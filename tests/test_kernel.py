import math
import re

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import zeta

from mfcov import cli
from mfcov.data import FunctionalDataset, gram_factors, save_csv
from mfcov.kernel import (
    GramFactor,
    KernelSpec,
    basis_matrix,
    check_point,
    check_unit_interval,
    factor_kernel,
    kernel_eval,
    peak_signs,
)
from mfcov.simulate import (SimSetting, component_functions, generate, true_covariance,
                            true_covariance_grid)
from mfcov.solver import CovarianceFit, FitConfig
from mfcov.spectral import evaluate_on_grid


def partial_sum(s, t, decay, terms):
    """Plain-loop oracle for the cosine series."""
    acc = 0.0
    for k in range(1, terms + 1):
        ek_s = math.sqrt(2.0) * math.cos(k * math.pi * s)
        ek_t = math.sqrt(2.0) * math.cos(k * math.pi * t)
        acc += (k * math.pi) ** (-decay) * ek_s * ek_t
    return acc


class TestKernelEval:
    def test_symmetry(self):
        spec = KernelSpec()
        rng = np.random.default_rng(0)
        for s, t in rng.uniform(size=(20, 2)):
            assert kernel_eval(spec, s, t) == kernel_eval(spec, t, s)

    def test_k00_series_limit(self):
        # K(0,0) -> 2 zeta(4) / pi^4 = 1/45
        spec = KernelSpec(decay_exponent=4.0, truncation_order=10_000)
        val = kernel_eval(spec, 0.0, 0.0)
        assert abs(val - 1.0 / 45.0) < 1e-9
        assert abs(val - partial_sum(0.0, 0.0, 4.0, 10_000)) < 1e-12

    def test_k0_half_series_limit(self):
        # K(0, 1/2) -> -7/5760 (alternating even-term series)
        spec = KernelSpec(decay_exponent=4.0, truncation_order=10_000)
        val = kernel_eval(spec, 0.0, 0.5)
        assert abs(val - (-7.0 / 5760.0)) < 1e-9
        assert abs(val - partial_sum(0.0, 0.5, 4.0, 10_000)) < 1e-12

    def test_matches_partial_sum_oracle(self):
        spec = KernelSpec(decay_exponent=3.0, truncation_order=37)
        rng = np.random.default_rng(1)
        for s, t in rng.uniform(size=(10, 2)):
            assert abs(kernel_eval(spec, s, t) - partial_sum(s, t, 3.0, 37)) < 1e-13

    def test_constant_term(self):
        base = KernelSpec(truncation_order=20)
        plus = KernelSpec(truncation_order=20, include_constant=True, constant_coef=0.7)
        assert abs(kernel_eval(plus, 0.3, 0.8) - kernel_eval(base, 0.3, 0.8) - 0.7) < 1e-15

    def test_diagonal_sup_bound(self):
        # sup_t K(t,t) <= 2 zeta(decay) / pi^decay + constant coefficient
        for spec in (KernelSpec(), KernelSpec(include_constant=True, constant_coef=0.5)):
            bound = 2.0 * zeta(spec.decay_exponent) / np.pi**spec.decay_exponent
            if spec.include_constant:
                bound += spec.constant_coef
            grid = np.linspace(0.0, 1.0, 1001)
            diag = kernel_eval(spec, grid, grid)
            assert diag.max() <= bound + 1e-12

    def test_domain_check(self):
        with pytest.raises(ValueError):
            kernel_eval(KernelSpec(), -0.1, 0.5)
        with pytest.raises(ValueError):
            kernel_eval(KernelSpec(), 0.1, 1.2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(decay_exponent=1.0)
        with pytest.raises(ValueError):
            KernelSpec(truncation_order=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                KernelSpec(decay_exponent=bad)
            with pytest.raises(ValueError):
                KernelSpec(include_constant=True, constant_coef=bad)

    def test_spec_round_trips_through_dict(self, tmp_path):
        # a fit's container carries the kernel in its JSON sidecar
        spec = KernelSpec(3.5, 17, True, 0.25)
        data = tmp_path / "data.csv"
        save_csv(generate(SimSetting(setting=3, n=6, m=4)), data)
        code = cli.main(["fit", "--data", str(data), "--out", str(tmp_path / "fit"),
                         "--decay-exponent", "3.5", "--truncation-order", "17",
                         "--include-constant", "--constant-coef", "0.25",
                         "--gram-cap", "2", "--max-iters", "5"])
        assert code in (0, 2)
        path = tmp_path / "fit" / "coeffs.mcov"
        _, sidecar = cli.read_container(path)
        assert cli._sidecar_parts(path, sidecar)[0] == spec


def gram_oracle(spec, coords):
    """Kernel gram [K(t_a, t_b)] entry by entry from ``kernel_eval``."""
    coords = np.asarray(coords, dtype=float)
    return kernel_eval(spec, coords[:, None], coords[None, :])


def cosine_basis(spec, s):
    """e_1 .. e_T (plus the constant) at ``s``, written out independently."""
    k = np.arange(1, spec.truncation_order + 1)
    e = math.sqrt(2.0) * np.cos(np.pi * np.outer(s, k))
    if spec.include_constant:
        e = np.hstack([np.ones((len(s), 1)), e])
    return e


def sections_cross_integral(gf):
    """L2 cross-integrals of the kernel sections the factor spans, M C C^T M^T.

    When the factor keeps the full rank of the gram, this equals
    [int_0^1 K(s, t_a) K(s, t_b) ds].
    """
    mc = gf.factor @ gf.coef_map
    return mc @ mc.T


def simpson_cross_integral(spec, coords):
    """Composite Simpson on 2001 nodes of K(s, t_a) K(s, t_b) over s."""
    s = np.linspace(0.0, 1.0, 2001)
    k_s = kernel_eval(spec, s[:, None], np.asarray(coords)[None, :])
    return simpson(k_s[:, :, None] * k_s[:, None, :], x=s, axis=0)


class TestAssembleGram:
    """The gram a factor represents, M M^T, against ``kernel_eval``."""

    def test_single_coordinate(self):
        spec = KernelSpec(truncation_order=10)
        gf = factor_kernel(spec, [0.4])
        g = gf.factor @ gf.factor.T
        assert g.shape == (1, 1)
        assert abs(g[0, 0] - kernel_eval(spec, 0.4, 0.4)) < 1e-15

    def test_duplicated_coordinates_rank_one(self):
        spec = KernelSpec(truncation_order=10)
        vals = np.linalg.eigvalsh(gram_oracle(spec, [0.3, 0.3]))
        assert abs(vals[0]) < 1e-12 * vals[-1]
        assert factor_kernel(spec, [0.3, 0.3], cap=2).retained_rank == 1

    def test_psd_on_random_coords(self):
        # the kept directions carry the top eigenvalues of a PSD gram
        spec = KernelSpec()
        rng = np.random.default_rng(2)
        coords = rng.uniform(size=5)
        vals = np.linalg.eigvalsh(gram_oracle(spec, coords))[::-1]
        assert vals.min() >= -1e-10
        gf = factor_kernel(spec, coords, cap=3)
        np.testing.assert_allclose((gf.factor**2).sum(axis=0), vals[:3],
                                   rtol=1e-10)

    def test_entries_match_kernel_eval(self):
        spec = KernelSpec(truncation_order=15)
        coords = np.array([0.0, 0.25, 0.9])
        gf = factor_kernel(spec, coords, cap=3)
        g = gf.factor @ gf.factor.T
        for a in range(3):
            for b in range(3):
                assert abs(g[a, b] - kernel_eval(spec, coords[a], coords[b])) < 1e-14

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            factor_kernel(KernelSpec(), [])


class TestFactorizeGram:
    def test_orthogonal_design_exact_spectrum(self):
        # at the N midpoints (j + 1/2)/N, e_1..e_{N-1} are orthogonal with
        # squared norm N, so the gram's eigenvalues are N w_k and C is
        # diag(sqrt(w)) up to signs
        n = 8
        spec = KernelSpec(truncation_order=n - 1)
        coords = (np.arange(n) + 0.5) / n
        gf = factor_kernel(spec, coords, tol=1e-14, cap=n)
        w = basis_matrix(spec, coords)[1]
        assert gf.retained_rank == n - 1
        np.testing.assert_allclose((gf.factor**2).sum(axis=0), n * w, rtol=1e-12)
        np.testing.assert_allclose(np.abs(gf.coef_map), np.diag(np.sqrt(w)),
                                   atol=1e-12 * np.sqrt(w[0]))

    def test_rank_one_gram(self):
        spec = KernelSpec()
        gf = factor_kernel(spec, [0.3, 0.3, 0.3], cap=5)
        assert gf.retained_rank == 1
        root = math.sqrt(kernel_eval(spec, 0.3, 0.3))
        np.testing.assert_allclose(gf.factor[:, 0], root, rtol=1e-12)

    def test_reconstruction_from_kernel(self):
        spec = KernelSpec()
        rng = np.random.default_rng(3)
        coords = rng.uniform(size=20)
        g = gram_oracle(spec, coords)
        gf = factor_kernel(spec, coords, tol=1e-10, cap=20)
        rel = np.linalg.norm(gf.factor @ gf.factor.T - g) / np.linalg.norm(g)
        assert rel <= 1e-8

    def test_factor_rows_are_basis_evaluations(self):
        # training rows and evaluation anywhere go through the same map
        spec = KernelSpec(include_constant=True, constant_coef=0.3)
        rng = np.random.default_rng(8)
        gf = factor_kernel(spec, rng.uniform(size=40), cap=9)
        rows = basis_matrix(spec, gf.locations)[0] @ gf.coef_map.T
        np.testing.assert_allclose(rows, gf.factor, atol=1e-13)

    def test_pinv_identities(self):
        # C = M+ E W: kernel sections K(x, t) projected through the factor's
        # pseudo-inverse equal the coefficient basis C e(x) at any x
        spec = KernelSpec()
        rng = np.random.default_rng(4)
        x = np.linspace(0.0, 1.0, 9)
        for _ in range(5):
            coords = rng.uniform(size=12)
            gf = factor_kernel(spec, coords, tol=1e-10, cap=8)
            mp = np.linalg.pinv(gf.factor)
            assert np.allclose(mp @ gf.factor, np.eye(gf.retained_rank), atol=1e-10)
            sections = kernel_eval(spec, coords[:, None], x[None, :])
            scale = np.abs(gf.coef_map).max()
            np.testing.assert_allclose(mp @ sections,
                                       gf.coef_map @ cosine_basis(spec, x).T,
                                       atol=1e-9 * scale)

    def test_cap_limits_rank(self):
        rng = np.random.default_rng(9)
        gf = factor_kernel(KernelSpec(), rng.uniform(size=4), cap=2)
        assert gf.retained_rank == 2
        assert gf.factor.shape == (4, 2)
        assert gf.coef_map.shape == (2, 50)

    def test_sign_canonicalization(self):
        rng = np.random.default_rng(10)
        gf = factor_kernel(KernelSpec(), rng.uniform(size=30), cap=6)
        cols = np.arange(gf.retained_rank)
        assert gf.factor[np.abs(gf.factor).argmax(axis=0), cols].min() > 0
        assert (peak_signs(gf.factor) == 1.0).all()

    def test_peak_sign_ties_go_to_the_lowest_index(self):
        # entries within 1e-9 relative of a column's largest magnitude tie
        x = np.array([[1.0, -1.0, 0.0, 1.0],
                      [-1.0 - 1e-12, 1.0, 0.0, -1.1]])
        np.testing.assert_array_equal(peak_signs(x), [1.0, -1.0, 1.0, -1.0])
        np.testing.assert_array_equal(peak_signs(x[::-1]), [-1.0, 1.0, 1.0, -1.0])
        assert peak_signs(np.array([0.5, -2.0, 2.0 * (1 - 1e-12)])) == -1.0

    def test_locations_hash_detects_tampering(self):
        coords = np.array([0.1, 0.2, 0.3])
        gf = factor_kernel(KernelSpec(), coords, cap=3)
        h1 = gf.locations_hash()
        gf.locations = np.array([0.1, 0.2, 0.30001])
        assert gf.locations_hash() != h1
        with pytest.raises(ValueError):
            GramFactor(np.eye(1), 1).locations_hash()

    def test_gram_factors_at_large_n(self):
        # 50,000 pooled points per dimension, where a dense N x N float64
        # gram would take 20 GB
        rng = np.random.default_rng(11)
        n, m = 10_000, 5
        data = FunctionalDataset([rng.uniform(size=(m, 2)) for _ in range(n)],
                                 [np.zeros(m) for _ in range(n)])
        for gf in gram_factors(data, KernelSpec(), cap=12):
            assert gf.factor.shape == (n * m, 12)
            assert gf.coef_map.shape == (12, 50)
            rows = basis_matrix(KernelSpec(), gf.locations[:100])[0] @ gf.coef_map.T
            np.testing.assert_allclose(rows, gf.factor[:100], atol=1e-13)


def svd_factor(spec, coords, tol=1e-10, cap=12):
    """(M, q, C) from the thin SVD A = E W^{1/2} = U S V^T with the same keep
    and sign rules: M = U_q S_q, C = V_q^T W^{1/2}."""
    e, w = basis_matrix(spec, coords)
    u, s, vt = np.linalg.svd(e * np.sqrt(w), full_matrices=False)
    q = min(int((s * s > tol * s[0] * s[0]).sum()), cap)
    m, c = u[:, :q] * s[:q], vt[:q] * np.sqrt(w)
    flip = peak_signs(m)
    return m * flip, q, c * flip[:, None]


def assert_matches_svd(gf, spec, coords, **options):
    """Same rank as the SVD reference; each factor column and coefficient row
    within 1e-12 relative, or within the documented eps / r where a kept
    eigenvalue is a fraction r of the largest that small."""
    m, q, c = svd_factor(spec, coords, **options)
    assert gf.retained_rank == q
    norms = np.linalg.norm(m, axis=0)
    bound = np.maximum(1e-12, 64 * np.finfo(float).eps * (norms[0] / norms) ** 2)
    assert np.all(np.linalg.norm(gf.factor - m, axis=0) <= bound * norms)
    assert np.all(np.linalg.norm(gf.coef_map - c, axis=1)
                  <= bound * np.linalg.norm(c, axis=1))
    assert np.linalg.norm(gf.factor - m) <= 1e-12 * np.linalg.norm(m)


class TestSmallerGram:
    """The factor from the smaller of A^T A and A A^T against a thin SVD."""

    @pytest.mark.parametrize("n", [12, 4_000])
    @pytest.mark.parametrize("cap", [5, 12])
    def test_spread_coordinates_match_svd(self, n, cap):
        # one point in each of n equal cells, so no mirror pairs tie the signs
        rng = np.random.default_rng(n + cap)
        coords = (np.arange(n) + rng.uniform(size=n)) / n
        spec = KernelSpec()
        assert_matches_svd(factor_kernel(spec, coords, cap=cap), spec, coords, cap=cap)

    @pytest.mark.parametrize("design", ["ends", "midpoints"])
    @pytest.mark.parametrize("n", [12, 4_000])
    @pytest.mark.parametrize("cap", [5, 12])
    def test_mirror_designs_match_svd(self, design, n, cap):
        # a design symmetric about 1/2 gives each odd column two peaks of
        # one magnitude and opposite signs, which only rounding tells apart;
        # the sign rule resolves them alike in both factorizations
        coords = np.linspace(0.0, 1.0, n) if design == "ends" else (np.arange(n) + 0.5) / n
        spec = KernelSpec()
        assert_matches_svd(factor_kernel(spec, coords, cap=cap), spec, coords, cap=cap)

    def test_repeated_grid_keeps_its_rank(self):
        # 40 subjects on one 10-point grid: the gram has rank 10 however
        # many rows it has
        spec = KernelSpec()
        coords = np.tile((np.arange(10) + 0.3) / 10, 40)
        gf = factor_kernel(spec, coords, cap=12)
        assert gf.retained_rank == 10
        assert_matches_svd(gf, spec, coords, cap=12)

    def test_few_points_decompose_the_points_gram(self, monkeypatch):
        # N = 72 points against T = 6,000 terms: the T x T Gram would take
        # 288 MB and a cubic eigh, the N x N one is tiny
        shapes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        spec = KernelSpec(truncation_order=6_000)
        coords = np.random.default_rng(12).uniform(size=72)
        gf = factor_kernel(spec, coords)
        assert shapes == [(72, 72)]
        assert gf.coef_map.shape == (12, 6_000)
        assert_matches_svd(gf, spec, coords)

    @pytest.mark.parametrize("tol", [-1.0, 1.0, 2.0, math.nan])
    def test_tolerance_outside_unit_interval_refused(self, tol):
        with pytest.raises(ValueError, match=r"^gram tol must be in \[0, 1\), got "):
            factor_kernel(KernelSpec(), [0.2, 0.7], tol=tol)


class TestKernelCrossIntegral:
    """The L2 metric of the coefficient basis, C C^T, against quadrature."""

    def test_symmetric_psd(self):
        spec = KernelSpec()
        rng = np.random.default_rng(5)
        gf = factor_kernel(spec, rng.uniform(size=8), cap=8)
        r = gf.coef_map @ gf.coef_map.T
        np.testing.assert_allclose(r, r.T, rtol=0, atol=1e-15 * np.abs(r).max())
        assert np.linalg.eigvalsh(r).min() > 0

    def test_closed_form_vs_simpson(self):
        # C C^T = int_0^1 (C e(s)) (C e(s))^T ds
        spec = KernelSpec(decay_exponent=4.0, truncation_order=30)
        rng = np.random.default_rng(6)
        gf = factor_kernel(spec, rng.uniform(size=6), cap=6)
        s = np.linspace(0.0, 1.0, 2001)
        vals = cosine_basis(spec, s) @ gf.coef_map.T
        quad = simpson(vals[:, :, None] * vals[:, None, :], x=s, axis=0)
        assert np.abs(gf.coef_map @ gf.coef_map.T - quad).max() < 1e-9

    def test_random_pairs_against_quadrature(self):
        spec = KernelSpec(truncation_order=25)
        rng = np.random.default_rng(7)
        coords = rng.uniform(size=50)
        gf = factor_kernel(spec, coords, cap=50)
        assert gf.retained_rank == 25
        quad = simpson_cross_integral(spec, coords)
        assert np.abs(sections_cross_integral(gf) - quad).max() < 1e-8

    def test_single_coordinate_closed_form(self):
        spec = KernelSpec(decay_exponent=4.0, truncation_order=40)
        t = 0.37
        k = np.arange(1, 41)
        expect = np.sum((k * np.pi) ** (-8.0) * 2.0 * np.cos(k * np.pi * t) ** 2)
        q = sections_cross_integral(factor_kernel(spec, [t]))
        assert abs(q[0, 0] - expect) < 1e-15

    def test_constant_term_contributes_square(self):
        base = KernelSpec(truncation_order=20)
        plus = KernelSpec(truncation_order=20, include_constant=True, constant_coef=0.5)
        qb = sections_cross_integral(factor_kernel(base, [0.2, 0.6]))
        qp = sections_cross_integral(factor_kernel(plus, [0.2, 0.6]))
        assert np.abs(qp - qb - 0.25).max() < 1e-15


def grid_fit():
    """An identity coefficient tensor over two kernel factors of rank 2."""
    grams = [factor_kernel(KernelSpec(), [0.1, 0.4, 0.8], cap=2)] * 2
    return CovarianceFit(coeffs=np.eye(4).reshape(2, 2, 2, 2), config=FitConfig(),
                         grams=grams, converged=True, n_iters=1, objective_value=0.0,
                         primal_residuals=np.zeros(3))


NAN = math.nan
# every entry point that takes coordinates in [0, 1], each given one NaN
NAN_ENTRIES = {
    "FunctionalDataset": lambda: FunctionalDataset([[[NAN, 0.5], [0.2, 0.3]]], [[1.0, 2.0]]),
    "basis_matrix": lambda: basis_matrix(KernelSpec(), [0.5, NAN]),
    "kernel_eval": lambda: kernel_eval(KernelSpec(), NAN, 0.5),
    "factor_kernel": lambda: factor_kernel(KernelSpec(), [0.1, NAN, 0.9]),
    "component_functions": lambda: component_functions(SimSetting(), [[0.5, NAN]]),
    "true_covariance": lambda: true_covariance(SimSetting(), [NAN, 0.5], [0.5, 0.5]),
    "true_covariance_grid": lambda: true_covariance_grid(SimSetting(), [[0.0, NAN], [0.5]]),
    "evaluate_on_grid": lambda: evaluate_on_grid(grid_fit(), KernelSpec(), [[0.5], [NAN]]),
}


class TestUnitInterval:
    @pytest.mark.parametrize("entry", list(NAN_ENTRIES))
    def test_nan_coordinate_refused(self, entry):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            NAN_ENTRIES[entry]()

    def test_closed_interval_and_empty_accepted(self):
        for x in ([0.0, 1.0], [], [[0.5, 1.0]]):
            np.testing.assert_array_equal(check_unit_interval(x, "x"), x)
        for bad in (-1e-300, 1.0 + 1e-15, math.inf):
            with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\]$"):
                check_unit_interval([0.5, bad], "x")


class TestPoint:
    def test_shape_rule_and_message(self):
        np.testing.assert_array_equal(check_point(0.25, 1, "s"), [0.25])
        np.testing.assert_array_equal(check_point([0.5, 1.0], 2, "t"), [0.5, 1.0])
        for bad in ([0.5], [[0.5, 0.5]], [0.1, 0.2, 0.3]):
            shape = np.atleast_1d(np.asarray(bad)).shape
            message = f"s must be a point in [0,1]^2, got shape {shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check_point(bad, 2, "s")

    def test_true_covariance_uses_the_rule(self):
        with pytest.raises(ValueError, match=r"^t must be a point in \[0,1\]\^2, "
                                             r"got shape \(3,\)$"):
            true_covariance(SimSetting(setting=1), (0.5, 0.5), (0.1, 0.2, 0.3))
