import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfcov.data import (FunctionalDataset, check_fold_count, cross_products, gram_factors,
                        load_csv, make_folds, save_csv)
from mfcov.kernel import KernelSpec
from mfcov.solver import TUNING_BASE, admm_fit

# Text shaped like the CSV format, so examples get past the header check.
CSV_LIKE = st.text(alphabet="ab,.0123456789e-+\"\n\r inf", max_size=300).map(
    lambda body: "subject,t1,y\n" + body)


def toy_dataset():
    rng = np.random.default_rng(0)
    locs = [rng.uniform(size=(m, 2)) for m in (3, 4, 2)]
    vals = [rng.standard_normal(m) for m in (3, 4, 2)]
    return FunctionalDataset(locs, vals)


class TestDataset:
    def test_basic_properties(self):
        data = toy_dataset()
        assert data.n == 3
        assert data.p == 2
        assert list(data.counts) == [3, 4, 2]
        assert data.pooled_locations().shape == (9, 2)
        sl = data.subject_slices()
        assert [s.start for s in sl] == [0, 3, 7]
        assert data.stats()["total_observations"] == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionalDataset([np.zeros((1, 2))], [np.zeros(1)])  # m_i < 2
        with pytest.raises(ValueError):
            FunctionalDataset([np.full((2, 2), 1.5)], [np.zeros(2)])  # out of cube
        with pytest.raises(ValueError):
            FunctionalDataset(
                [np.zeros((2, 2)), np.zeros((2, 3))], [np.zeros(2), np.zeros(2)]
            )  # mixed dimension

    def test_one_dimensional_locations_fit_like_a_column(self):
        # a subject's (m,) locations are m points on the line, not one point
        rng = np.random.default_rng(1)
        locs = [rng.uniform(size=m) for m in (3, 5, 4, 6)]
        vals = [rng.standard_normal(m) for m in (3, 5, 4, 6)]
        flat = FunctionalDataset(locs, vals)
        column = FunctionalDataset([t[:, None] for t in locs], vals)
        assert flat.p == 1 and list(flat.counts) == [3, 5, 4, 6]
        for a, b in zip(flat.locations, column.locations):
            assert np.array_equal(a, b)
        fits = [admm_fit(d, cross_products(d), gram_factors(d, KernelSpec()), TUNING_BASE)
                for d in (flat, column)]
        assert fits[0].n_iters == fits[1].n_iters > 0
        assert np.array_equal(fits[0].coeffs, fits[1].coeffs)
        assert FunctionalDataset([np.array([0.1, 0.5, 0.9])],
                                 [np.array([1.0, 2.0, 3.0])]).counts.tolist() == [3]


class TestCsvRoundTrip:
    def test_parse_two_subjects(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "subject,t1,t2,y\n"
            "a,0.1,0.2,1.0\na,0.3,0.4,2.0\na,0.5,0.6,3.0\n"
            "b,0.7,0.8,4.0\nb,0.9,1.0,5.0\nb,0.0,0.1,6.0\n"
        )
        data = load_csv(f)
        assert data.n == 2
        assert list(data.counts) == [3, 3]
        assert data.values[1][0] == 4.0

    def test_out_of_range_coordinate_names_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("subject,t1,y\na,0.1,1.0\na,1.2,2.0\n")
        with pytest.raises(ValueError, match="bad.csv:3"):
            load_csv(f)

    def test_non_numeric_names_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("subject,t1,y\na,0.1,1.0\na,oops,2.0\n")
        with pytest.raises(ValueError, match="bad.csv:3"):
            load_csv(f)

    def test_wrong_arity_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("subject,t1,t2,y\na,0.1,1.0\n")
        with pytest.raises(ValueError, match="bad.csv:2"):
            load_csv(f)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("id,x,y\n1,0.1,2.0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(f)

    def test_oversized_field_names_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("subject,t1,y\na,0.1,1.0\n" + "a" * 140_000 + ",0.2,2.0\n")
        with pytest.raises(ValueError, match="bad.csv:3: field larger than field limit"):
            load_csv(f)

    def test_undecodable_bytes_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"subject,t1,y\n\xff\xfe,0.1,1.0\n")
        with pytest.raises(ValueError, match="bad.csv: not"):
            load_csv(f)

    def test_single_row_subject_dropped_with_warning(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("subject,t1,y\na,0.1,1.0\nb,0.2,2.0\nb,0.3,3.0\n")
        with pytest.warns(UserWarning, match="fewer than 2"):
            data = load_csv(f)
        assert data.n == 1

    def test_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(1)
        data = FunctionalDataset(
            [rng.uniform(size=(4, 3)), rng.uniform(size=(2, 3))],
            [rng.standard_normal(4), rng.standard_normal(2)],
        )
        f = tmp_path / "rt.csv"
        save_csv(data, f)
        back = load_csv(f)
        for a, b in zip(data.locations, back.locations):
            assert np.array_equal(a, b)
        for a, b in zip(data.values, back.values):
            assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "data.csv"


def loads_or_value_error(path):
    """True when ``path`` loads; False when it raises ValueError.  Any
    other exception propagates and fails the test."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert isinstance(load_csv(path), FunctionalDataset)
    except ValueError as exc:
        assert str(exc).startswith(str(path))
        return False
    return True


class TestLoadCsvFuzz:
    @given(st.binary(max_size=300))
    def test_bytes(self, fuzz_file, blob):
        fuzz_file.write_bytes(blob)
        loads_or_value_error(fuzz_file)

    @given(st.one_of(st.text(max_size=300), CSV_LIKE))
    def test_text(self, fuzz_file, text):
        fuzz_file.write_text(text)
        loads_or_value_error(fuzz_file)


class TestCrossProducts:
    def test_outer_product_values(self):
        data = FunctionalDataset([np.array([[0.1], [0.2], [0.3]])], [np.array([1.0, 2.0, 3.0])])
        cp = cross_products(data)
        assert np.array_equal(cp.z[0], [[1, 2, 3], [2, 4, 6], [3, 6, 9]])

    def test_rank_one_per_subject(self):
        data = toy_dataset()
        cp = cross_products(data)
        for z, vals in zip(cp.z, data.values):
            assert np.array_equal(z, np.outer(vals, vals))
            s = np.linalg.svd(z, compute_uv=False)
            assert s[1] < 1e-10 * max(s[0], 1e-300)

    def test_subjects_sharing_a_count_keep_their_own_products(self):
        # one broadcast product per count; each z is still exactly the
        # outer product of its own subject's values
        rng = np.random.default_rng(1)
        counts = [3, 2, 3, 4, 2, 3]
        data = FunctionalDataset([rng.uniform(size=(m, 1)) for m in counts],
                                 [rng.standard_normal(m) for m in counts])
        for z, vals in zip(cross_products(data).z, data.values):
            assert np.array_equal(z, np.outer(vals, vals))

    def test_overflow_is_judged_per_subject(self):
        # a subject with a NaN value has NaN products and is no overflow; a
        # subject of the same count with finite values that overflow is
        locs = [np.full((2, 1), 0.5)] * 2
        nan = FunctionalDataset(locs, [np.array([np.nan, 1.0]), np.array([1.0, 2.0])])
        assert np.isnan(cross_products(nan).z[0]).any()
        big = FunctionalDataset(locs, [np.array([np.nan, 1.0]), np.array([1e200, 1.0])])
        with pytest.raises(ValueError, match="cross-products overflow float64"):
            cross_products(big)


class TestMakeFolds:
    def test_balanced_10_into_5(self):
        data = FunctionalDataset(
            [np.random.default_rng(i).uniform(size=(2, 1)) for i in range(10)],
            [np.zeros(2) for _ in range(10)],
        )
        folds = make_folds(data, 5, seed=42)
        sizes = np.bincount(folds.assignment, minlength=5)
        assert list(sizes) == [2, 2, 2, 2, 2]

    def test_deterministic(self):
        data = toy_dataset()
        a = make_folds(data, 3, seed=7).assignment
        b = make_folds(data, 3, seed=7).assignment
        assert np.array_equal(a, b)

    def test_7_into_5_sizes(self):
        data = FunctionalDataset(
            [np.random.default_rng(i).uniform(size=(2, 1)) for i in range(7)],
            [np.zeros(2) for _ in range(7)],
        )
        sizes = sorted(np.bincount(make_folds(data, 5, seed=0).assignment, minlength=5))
        assert sizes == [1, 1, 1, 2, 2]

    def test_partition(self):
        data = toy_dataset()
        folds = make_folds(data, 2, seed=1)
        seen = np.concatenate([folds.valid_subjects(f) for f in range(2)])
        assert sorted(seen) == [0, 1, 2]
        assert set(folds.train_subjects(0)) == set(folds.valid_subjects(1))

    def test_too_many_folds(self):
        with pytest.raises(ValueError):
            make_folds(toy_dataset(), 4)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="fold_seed must be >= 0"):
            make_folds(toy_dataset(), 2, seed=-1)

    def test_fold_count_rule_with_and_without_n(self):
        check_fold_count(2)
        check_fold_count(3, 3)
        for args in ((1,), (1, 10), (0, 10)):
            with pytest.raises(ValueError, match="^need at least 2 folds$"):
                check_fold_count(*args)
        with pytest.raises(ValueError, match="^cannot split 3 subjects into 4 folds$"):
            check_fold_count(4, 3)
