import math
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from mfcov import solver
from mfcov.cli import RunConfig
from mfcov.data import (FoldAssignment, FunctionalDataset, cross_products, gram_factors,
                        make_folds)
from mfcov.kernel import GramFactor, KernelSpec
from mfcov.simulate import BENCHMARK_LAMBDA_GRID, SimSetting, generate
from mfcov.solver import (
    CovarianceFit,
    FitConfig,
    SymPacking,
    admm_fit,
    cv_select,
    objective,
    precompute,
    prox_psd,
    prox_trace_mode_k,
    rank_report,
)
from mfcov.tensor import one_way_fold, one_way_unfold, square_fold, square_unfold

def synthetic_grams(rng, rows, dims):
    """Stand-in gram factors with unit-scale rows.

    The solver only reads ``.factor``; building the factors directly (rather
    than from a kernel gram) keeps the toy problems well conditioned.
    """
    out = []
    for q in dims:
        f = rng.standard_normal((rows, q))
        out.append(GramFactor(gram=f @ f.T, factor=f,
                              pinv=np.linalg.pinv(f), retained_rank=q))
    return out


def make_problem(p=1, n=5, m=4, q=3, seed=0, model_scale=None, noise=0.0):
    """Random dataset plus grams/cross-products/precompute bundle.

    With ``model_scale`` set, values are drawn from a rank-one instance of
    the finite model itself, so the fitted coefficients are O(model_scale^2)
    and moderate penalties bite without annihilating the fit; otherwise
    values are plain standard normals.
    """
    rng = np.random.default_rng(seed)
    locs = [rng.uniform(size=(m, p)) for _ in range(n)]
    grams = synthetic_grams(rng, n * m, [q] * p)
    if model_scale is None:
        vals = [rng.standard_normal(m) for _ in range(n)]
    else:
        shell = FunctionalDataset(locs, [np.zeros(m) for _ in range(n)])
        rows = precompute(shell, cross_products(shell), grams).L
        w = rng.standard_normal(rows[0].shape[1])
        w /= np.linalg.norm(w)
        vals = [model_scale * rng.standard_normal() * (rows[i] @ w)
                + noise * rng.standard_normal(m) for i in range(n)]
    data = FunctionalDataset(locs, vals)
    cross = cross_products(data)
    pre = precompute(data, cross, grams)
    return data, cross, grams, pre


def loss_from_scratch(data, cross, grams, b_sq):
    # independent pair-by-pair evaluation of the off-diagonal squared error
    slices = data.subject_slices()
    total = 0.0
    for i, sl in enumerate(slices):
        m = int(data.counts[i])
        rows = [np.kron(grams[0].factor[sl][j],
                        np.ones(1) if data.p == 1 else grams[1].factor[sl][j])
                for j in range(m)]
        for gf in grams[2:]:
            rows = [np.kron(r, gf.factor[sl][j]) for j, r in enumerate(rows)]
        z = cross.z[i]
        acc = 0.0
        for j in range(m):
            for jp in range(m):
                if j != jp:
                    pred = rows[j] @ b_sq @ rows[jp]
                    acc += (z[j, jp] - pred) ** 2
        total += acc / (m * (m - 1))
    return total / data.n


def pack_operator(pk, g):
    """S^T G S for a dense (Q^2, Q^2) operator preserving symmetry: the
    packed oracle of the pipeline's packed G."""
    off = pk.scale != 1.0
    gs = g[:, pk.col_upper].copy()
    gs[:, off] += g[:, pk.col_lower[off]]
    gs[:, off] /= math.sqrt(2.0)
    out = gs[pk.col_upper, :].copy()
    out[off, :] += gs[pk.col_lower[off], :]
    out[off, :] /= math.sqrt(2.0)
    return (out + out.T) / 2.0


class TestPacking:
    def test_isometry_and_roundtrip(self):
        rng = np.random.default_rng(3)
        pk = SymPacking(6)
        a = rng.standard_normal((6, 6))
        sym = (a + a.T) / 2
        x = pk.pack(sym)
        assert x.shape == (21,)
        assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(sym), abs=1e-12)
        np.testing.assert_allclose(pk.unpack(x), sym, atol=1e-14)
        # packing a general matrix symmetrizes it
        np.testing.assert_allclose(pk.unpack(pk.pack(a)), sym, atol=1e-14)

    def test_operator_congruence(self):
        # G -> S^T G S -> S (S^T G S) S^T, the view Precompute.G derives from
        # G_sym, gives G back on symmetric matrices and zero on antisymmetric
        # ones, and packs to G_sym again
        rng = np.random.default_rng(4)
        q = 4
        pk = SymPacking(q)
        m = rng.standard_normal((q * q, q * q))
        g = m @ m.T
        swap = np.arange(q * q).reshape(q, q).T.ravel()
        g = (g + g[swap][:, swap]) / 2    # preserves symmetry
        g_sym = pack_operator(pk, g)
        view = solver.Precompute(grams=[], dims=(q,), L=[], groups=[], h=np.zeros(q * q),
                                 c0=0.0, pack=pk, G_sym=g_sym).G
        assert view.shape == (q * q, q * q)
        assert_rel(pack_operator(pk, view), g_sym, rel=1e-14)
        for _ in range(10):
            a = rng.standard_normal((q, q))
            sym = (a + a.T) / 2
            lhs = pk.pack(sym) @ g_sym @ pk.pack(sym)
            rhs = sym.ravel() @ g @ sym.ravel()
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert_rel(view @ sym.ravel(), g @ sym.ravel(), rel=1e-13)
            anti = (a - a.T).ravel()
            assert np.abs(view @ anti).max() <= 1e-14 * np.abs(view).max() * np.abs(anti).sum()


class TestPrecompute:
    def test_p1_rows_are_factor_rows(self):
        data, cross, grams, pre = make_problem(p=1, n=3, m=4, q=3)
        sl = data.subject_slices()
        for i in range(data.n):
            np.testing.assert_array_equal(pre.L[i], grams[0].factor[sl[i]])

    def test_quadratic_form_consistency(self):
        data, cross, grams, pre = make_problem(p=2, n=4, m=3, q=3, seed=7)
        q = pre.q_total
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = rng.standard_normal((q, q))
            b_sq = (a + a.T) / 2
            direct = loss_from_scratch(data, cross, grams, b_sq)
            vec_c = b_sq.ravel()
            vec_f = b_sq.ravel(order="F")
            for vec in (vec_c, vec_f):
                quad = vec @ pre.G @ vec - pre.h @ vec + pre.c0
                assert abs(direct - quad) < 1e-10
            assert abs(direct - pre.loss_direct(b_sq)) < 1e-10

    def test_zero_values_give_zero_h(self):
        rng = np.random.default_rng(2)
        locs = [rng.uniform(size=(4, 1)) for _ in range(3)]
        vals = [np.zeros(4) for _ in range(3)]
        data = FunctionalDataset(locs, vals)
        grams = synthetic_grams(rng, 12, [3])
        pre = precompute(data, cross_products(data), grams)
        assert np.all(pre.h == 0.0)
        assert pre.c0 == 0.0

    def test_gram_row_mismatch_rejected(self):
        data, cross, grams, _ = make_problem(p=1, n=3, m=4, q=3)
        other = FunctionalDataset(
            [np.full((3, 1), 0.5), np.full((2, 1), 0.25)],
            [np.zeros(3), np.zeros(2)],
        )
        with pytest.raises(ValueError, match="rows"):
            precompute(other, cross_products(other), grams)

    def test_overflowing_pieces_rejected(self):
        data, cross, grams, _ = make_problem(p=1, n=4, m=3, q=2)
        # cross-products near 1e300 stay finite, but their squares do not
        data = FunctionalDataset(data.locations, [v * 1e150 for v in data.values])
        with pytest.raises(ValueError, match="cross-products overflow float64"):
            precompute(data, cross_products(data), grams)


def g_oracle(pre, data, subjects):
    """Sum of u_i (kron(C_i, C_i) - W_i^T W_i), subject by subject."""
    total = 0.0
    for i in subjects:
        li = pre.L[i]
        m = data.counts[i]
        c = li.T @ li
        w = np.stack([np.kron(row, row) for row in li])
        total = total + (np.kron(c, c) - w.T @ w) / (m * (m - 1.0))
    return total


def unequal_counts_problem(p, q, seed):
    """Eight subjects with counts 2..6 (five count groups) and 3 folds."""
    rng = np.random.default_rng(seed)
    counts = [2, 3, 6, 4, 2, 5, 3, 5]
    locs = [rng.uniform(size=(m, p)) for m in counts]
    vals = [rng.standard_normal(m) for m in counts]
    data = FunctionalDataset(locs, vals)
    grams = synthetic_grams(rng, sum(counts), [q] * p)
    return data, grams, make_folds(data, 3, 0)


def subject_rows(data, grams, i):
    """L_i built row by row with np.kron from the gram factors."""
    sl = data.subject_slices()[i]
    rows = [grams[0].factor[sl][j] for j in range(data.counts[i])]
    for gf in grams[1:]:
        rows = [np.kron(r, gf.factor[sl][j]) for j, r in enumerate(rows)]
    return np.array(rows)


def arrays(x):
    """Every array that x holds, through containers and attributes."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from arrays(y)
    elif is_dataclass(x):
        for f in fields(x):
            yield from arrays(getattr(x, f.name))
    elif hasattr(x, "__dict__"):
        for y in vars(x).values():
            yield from arrays(y)


def assert_rel(got, want, rel=1e-13):
    assert np.abs(np.asarray(got) - want).max() <= rel * np.abs(want).max()


class TestBatchedG:
    # the largest count group pools 10 rows, so the D-row correction blocks
    # split it for (p, q) = (1, 2) and (1, 3) (D = 3, 6), not for (2, 2) and
    # (2, 3) (D = 10, 45)
    @pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_matches_per_subject_kron(self, p, q):
        data, grams, folds = unequal_counts_problem(p, q, 40 + 3 * p + q)
        pre = precompute(data, cross_products(data), grams, folds=folds)
        assert pre.G_sym is not None
        split = max(g.rows.shape[0] * g.rows.shape[1] for g in pre.groups) > pre.pack.dim
        assert split == (p == 1)
        full = g_oracle(pre, data, range(data.n)) / data.n
        oracle = pack_operator(pre.pack, full)
        assert pre.G_sym.shape == (pre.pack.dim,) * 2
        assert_rel(pre.G_sym, oracle)
        for f in range(folds.n_folds):
            fold = pack_operator(pre.pack, g_oracle(pre, data, folds.valid_subjects(f)))
            assert pre.G_fold[f].shape == (pre.pack.dim,) * 2
            assert np.abs(pre.G_fold[f] - fold).max() <= 1e-13 * data.n * np.abs(oracle).max()
        plain = precompute(data, cross_products(data), grams)
        assert_rel(plain.G_sym, oracle)
        # the (Q^2, Q^2) view: the oracle on symmetric matrices, zero on
        # antisymmetric ones
        rng = np.random.default_rng(50 + 3 * p + q)
        g = pre.G
        for a in rng.standard_normal((5, pre.q_total, pre.q_total)):
            sym = (a + a.T).ravel()
            assert_rel(g @ sym, full @ sym)
            anti = (a - a.T).ravel()
            assert np.abs(g @ anti).max() <= 1e-14 * np.abs(g).max() * np.abs(anti).sum()

    def test_stores_no_full_operator(self):
        # a dense precomputation keeps G packed: no field, nor anything a
        # field holds, is a (Q^2, Q^2) array (Q^2 = 81 > D = 45 here)
        data, grams, folds = unequal_counts_problem(2, 3, 49)
        pre = precompute(data, cross_products(data), grams, folds=folds)
        assert pre.G.shape == (81, 81)
        shapes = [a.shape for f in fields(pre) for a in arrays(getattr(pre, f.name))]
        assert (45, 45) in shapes
        assert (81, 81) not in shapes

    @pytest.mark.parametrize("p", [1, 2])
    def test_grouped_layout_matches_per_subject_oracles(self, p):
        data, grams, folds = unequal_counts_problem(p, 2, 60 + p)
        cross = cross_products(data)
        pre = precompute(data, cross, grams, folds=folds)
        assert len(pre.groups) == 5
        q = pre.q_total
        rows = [subject_rows(data, grams, i) for i in range(data.n)]
        zt = [z - np.diag(np.diag(z)) for z in cross.z]
        u = 1.0 / (data.counts * (data.counts - 1.0))
        for i in range(data.n):
            np.testing.assert_array_equal(pre.L[i], rows[i])

        h = sum(u[i] * 2.0 * (rows[i].T @ zt[i] @ rows[i]).ravel()
                for i in range(data.n)) / data.n
        c0 = sum(u[i] * (zt[i] ** 2).sum() for i in range(data.n)) / data.n
        assert_rel(pre.h, h)
        assert pre.c0 == pytest.approx(c0, rel=1e-13)

        rng = np.random.default_rng(70 + p)
        stack = rng.standard_normal((4, q, q))
        stack = stack + np.swapaxes(stack, 1, 2)
        for f in range(folds.n_folds):
            valid = folds.valid_subjects(f)
            train = folds.train_subjects(f)
            # the stacked held-out loss, one value per matrix of the stack
            want = []
            for b in stack:
                total = 0.0
                for i in valid:
                    resid = zt[i] - rows[i] @ b @ rows[i].T
                    np.fill_diagonal(resid, 0.0)
                    total += u[i] * (resid ** 2).sum()
                want.append(total / valid.size)
            assert_rel(pre.loss_direct(stack, valid), np.array(want))
            # the training system's packed operator and its matrix-free G x
            system = pre.training(f)
            g_train = g_oracle(pre, data, train) / train.size
            assert_rel(system.G_sym, pack_operator(pre.pack, g_train))
            want_gx = []
            for x in stack:
                out = 0.0
                for i in train:
                    y = rows[i] @ x @ rows[i].T
                    np.fill_diagonal(y, 0.0)
                    out = out + u[i] * (rows[i].T @ y @ rows[i])
                want_gx.append(out / train.size)
            assert_rel(system._apply(stack), np.array(want_gx))

    @pytest.mark.parametrize("p", [1, 2])
    def test_matrix_free_quad_matches_dense_and_direct_loss(self, p):
        # the loss at a stack of symmetric matrices, over all subjects and
        # over each fold's training subjects: the dense quadratic form in
        # packed coordinates against the residual loss
        data, grams, folds = unequal_counts_problem(p, 2, 80 + p)
        pre = precompute(data, cross_products(data), grams, folds=folds)
        q = pre.q_total
        rng = np.random.default_rng(90 + p)
        stack = rng.standard_normal((4, q, q))
        stack = stack + np.swapaxes(stack, 1, 2)
        subsets = [(None, pre)] + [(folds.train_subjects(f), pre.training(f))
                                   for f in range(folds.n_folds)]
        for subjects, system in subsets:
            free = replace(system, G_sym=None).quad(stack)
            dense = system.quad(stack)
            assert_rel(free, dense, rel=1e-12)
            assert_rel(dense, pre.loss_direct(stack, subjects), rel=1e-12)


def with_rows(grams, idx):
    """Stand-in gram factors holding the rows ``idx`` of each factor."""
    return [GramFactor(gram=gf.factor[idx] @ gf.factor[idx].T, factor=gf.factor[idx],
                       pinv=np.linalg.pinv(gf.factor[idx]), retained_rank=gf.retained_rank)
            for gf in grams]


class TestLossSystem:
    """A Precompute is the loss system the ADMM runs on, for all subjects or
    for one fold's training subjects."""

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("p", [1, 2])
    def test_training_matches_a_precompute_of_its_subjects(self, p, dense, monkeypatch):
        if not dense:
            monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
        data, grams, folds = unequal_counts_problem(p, 2, 100 + p)
        pre = precompute(data, cross_products(data), grams, folds=folds)
        slices = data.subject_slices()
        stack = symmetric_stack(np.random.default_rng(110 + p), 3, pre.q_total)
        for f in range(folds.n_folds):
            train = folds.train_subjects(f)
            alone = FunctionalDataset([data.locations[i] for i in train],
                                      [data.values[i] for i in train])
            idx = np.concatenate([np.arange(slices[i].start, slices[i].stop)
                                  for i in train])
            want = precompute(alone, cross_products(alone), with_rows(grams, idx))
            got = pre.training(f)
            assert got.n == train.size
            if dense:
                assert_rel(got.G_sym, want.G_sym, rel=1e-12)
            else:
                assert got.G_sym is None and want.G_sym is None
                assert_rel(got._apply(stack), want._apply(stack))
            assert_rel(got.h, want.h)
            assert got.c0 == pytest.approx(want.c0, rel=1e-13)
            np.testing.assert_allclose(got._zero_bounds, want._zero_bounds, rtol=1e-12)

    def test_training_needs_the_fold_assignment(self):
        data, grams, folds = unequal_counts_problem(2, 2, 120)
        cross = cross_products(data)
        with pytest.raises(ValueError, match="built with a fold assignment"):
            precompute(data, cross, grams).training(0)
        # a training system carries no folds of its own
        system = precompute(data, cross, grams, folds=folds).training(0)
        assert system.folds is None
        with pytest.raises(ValueError, match="built with a fold assignment"):
            system.training(0)

    @pytest.mark.parametrize("n_assigned", [10, 30])
    def test_a_fold_assignment_of_other_subjects_is_refused(self, n_assigned):
        # with fewer labels than subjects CV would score only the first
        # subjects; with more it would index past the data
        data, cross, grams, _ = make_problem(p=1, n=20, m=4, q=2, seed=122)
        foreign = FoldAssignment(5, 0, np.arange(n_assigned) % 5)
        message = f"covers {n_assigned} subjects but the dataset has 20"
        with pytest.raises(ValueError, match=message):
            precompute(data, cross, grams, folds=foreign)
        with pytest.raises(ValueError, match=message):
            cv_select(data, grams, [0.1], [0.5], folds=foreign)

    @pytest.mark.parametrize("n_folds, modulus", [(5, 4), (3, 5)],
                             ids=["empty fold", "label past the folds"])
    def test_fold_labels_outside_the_folds_are_refused(self, n_folds, modulus):
        # an empty fold has no subject to score; subjects labelled past
        # n_folds would never be held out, and CV would score the rest only
        data, cross, grams, _ = make_problem(p=1, n=20, m=4, q=2, seed=122)
        folds = FoldAssignment(n_folds, 0, np.arange(20) % modulus)
        message = (f"^the fold assignment must label each subject with a fold in "
                   f"0..{n_folds - 1} and leave no fold empty$")
        with pytest.raises(ValueError, match=message):
            precompute(data, cross, grams, folds=folds)
        with pytest.raises(ValueError, match=message):
            cv_select(data, grams, [0.1], [0.5], folds=folds)

    @pytest.mark.parametrize("dense", [True, False])
    def test_a_fit_keeps_no_decomposition_on_its_precompute(self, dense, monkeypatch):
        # the ridge solve's eigendecomposition of G_sym lives for one run: a
        # fit caches on its precompute only quantities of h, none larger
        # than Q x Q; a second fit adds nothing and repeats the first bit
        # for bit
        if not dense:
            monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
        data, cross, grams, _ = make_problem(
            p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
        pre = precompute(data, cross, grams)
        fresh = set(vars(pre))
        cfg = FitConfig(lam=0.05, beta=0.5)
        first = admm_fit(data, cross, grams, cfg, pre=pre)
        assert first.n_iters > 0
        added = [vars(pre)[k] for k in set(vars(pre)) - fresh]
        assert set(vars(pre)) - fresh <= {"h_sq", "h_norm", "_zero_bounds", "_h_packed"}
        assert all(a.size <= pre.q_total ** 2 for a in arrays(added))

        before = dict(vars(pre))
        held = {id(a) for a in arrays(pre)}
        second = admm_fit(data, cross, grams, cfg, pre=pre)
        assert vars(pre).keys() == before.keys()
        assert all(vars(pre)[k] is v for k, v in before.items())
        assert {id(a) for a in arrays(pre)} == held
        for name in ("coeffs", "primal_residuals"):
            assert np.array_equal(getattr(second, name), getattr(first, name))
        assert (second.n_iters, second.objective_value) == (first.n_iters,
                                                            first.objective_value)

    @pytest.mark.parametrize("dense", [True, False])
    def test_a_fit_computes_the_linear_term_once(self, dense, monkeypatch):
        # admm_fit iterates on its precompute, whose h and c0 it reuses
        if not dense:
            monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
        data, cross, grams, _ = make_problem(
            p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
        calls = []
        pieces = solver._data_pieces
        monkeypatch.setattr(solver, "_data_pieces",
                            lambda groups: calls.append(len(groups)) or pieces(groups))
        fit = admm_fit(data, cross, grams, FitConfig(lam=1e-3, max_iters=5))
        assert fit.n_iters == 5
        assert len(calls) == 1


# p in {1, 2}; three to six subjects with unequal counts; a seed for the rest
small_problems = st.tuples(st.sampled_from([1, 2]),
                           st.lists(st.integers(2, 5), min_size=3, max_size=6).filter(
                               lambda counts: len(set(counts)) > 1),
                           st.integers(0, 2 ** 16))


def small_problem(p, counts, seed):
    rng = np.random.default_rng(seed)
    data = FunctionalDataset([rng.uniform(size=(m, p)) for m in counts],
                             [rng.standard_normal(m) for m in counts])
    return rng, data, synthetic_grams(rng, sum(counts), [2] * p)


def assert_same_loss(a, b):
    """Packed G, h and c0 of two precomputations agree to 1e-13 relative."""
    assert_rel(a.G_sym, b.G_sym)
    assert_rel(a.h, b.h)
    assert a.c0 == pytest.approx(b.c0, rel=1e-13)


class TestLossInvariances:
    """The loss sees each subject as an unordered set of observations, and
    averages over subjects."""

    @given(small_problems)
    def test_permuting_observations_within_subjects(self, problem):
        rng, data, grams = small_problem(*problem)
        perms = [rng.permutation(m) for m in data.counts]
        starts = np.cumsum(data.counts) - data.counts
        idx = np.concatenate([start + perm for start, perm in zip(starts, perms)])
        shuffled = FunctionalDataset([t[perm] for t, perm in zip(data.locations, perms)],
                                     [y[perm] for y, perm in zip(data.values, perms)])
        moved = with_rows(grams, idx)
        pre = precompute(data, cross_products(data), grams)
        pre_s = precompute(shuffled, cross_products(shuffled), moved)
        assert_same_loss(pre, pre_s)
        cfg = FitConfig(lam=1e-3, max_iters=200)
        fit = admm_fit(data, cross_products(data), grams, cfg, pre=pre)
        fit_s = admm_fit(shuffled, cross_products(shuffled), moved, cfg, pre=pre_s)
        assert fit.n_iters == fit_s.n_iters

    @given(small_problems)
    def test_duplicating_every_subject(self, problem):
        _, data, grams = small_problem(*problem)
        twice = FunctionalDataset(data.locations * 2, data.values * 2)
        idx = np.tile(np.arange(int(data.counts.sum())), 2)
        assert_same_loss(precompute(data, cross_products(data), grams),
                         precompute(twice, cross_products(twice), with_rows(grams, idx)))

    @given(small_problems)
    def test_permuting_subjects_with_their_fold_labels(self, problem):
        rng, data, grams = small_problem(*problem)
        folds = make_folds(data, 3, seed=int(rng.integers(100)))
        perm = rng.permutation(data.n)
        starts = np.cumsum(data.counts) - data.counts
        idx = np.concatenate([starts[i] + np.arange(data.counts[i]) for i in perm])
        moved = FunctionalDataset([data.locations[i] for i in perm],
                                  [data.values[i] for i in perm])
        moved_folds = FoldAssignment(folds.n_folds, folds.seed, folds.assignment[perm])
        tuning = dict(lambda_grid=(1e-3, 1e-2, 1e-1), beta_grid=(0.0, 0.5, 1.0),
                      base=FitConfig(max_iters=30))
        _, scores, cells = cv_select(data, grams, folds=folds, **tuning)
        _, scores_m, cells_m = cv_select(moved, with_rows(grams, idx),
                                         folds=moved_folds, **tuning)
        assert_rel(scores_m, scores, rel=1e-12)
        assert np.array_equal(cells_m.n_iters, cells.n_iters)
        assert np.array_equal(cells_m.unconverged_folds, cells.unconverged_folds)


class TestProxTrace:
    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3, 2, 3))
        np.testing.assert_allclose(prox_trace_mode_k(a, 0, 0.0), a, atol=1e-12)

    def test_diagonal_soft_threshold(self):
        a = np.diag([3.0, 1.0])  # order-2 tensor, mode-0 unfolding is itself
        out = prox_trace_mode_k(a, 0, 2.0)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_large_threshold_annihilates(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 2, 2, 2))
        top = np.linalg.svd(one_way_unfold(a, 1), compute_uv=False)[0]
        out = prox_trace_mode_k(a, 1, top + 1.0)
        assert np.abs(out).max() == 0.0

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 3, 2, 3))
        v = 0.7
        for mode in (0, 1):
            star = prox_trace_mode_k(a, mode, v)

            def val(w):
                nuc = np.linalg.svd(one_way_unfold(w, mode), compute_uv=False).sum()
                return 0.5 * ((w - a) ** 2).sum() + v * nuc

            best = val(star)
            for _ in range(200):
                cand = star + rng.standard_normal(a.shape) * rng.uniform(0.01, 1.0)
                assert best <= val(cand) + 1e-12

    @pytest.mark.parametrize("dims", [(4,), (3, 4), (2, 3, 2)])
    def test_gram_prox_matches_svd_reference(self, dims):
        # full-rank, rank-deficient and all-zero slices, each with thresholds
        # below, between and above its singular values, in every mode
        rng = np.random.default_rng(len(dims))
        full = rng.standard_normal((3,) + dims + dims)
        deficient = rng.standard_normal((3,) + dims + dims)
        for k, q in enumerate(dims):   # mode-k rank at most q - 1
            proj = rng.standard_normal((q, q - 1)) @ rng.standard_normal((q - 1, q))
            deficient = np.moveaxis(np.tensordot(proj, deficient, axes=(1, k + 1)), 0, k + 1)
        a = np.concatenate([full, deficient, np.zeros((1,) + dims + dims)])
        for mode in range(len(dims)):
            u, s, vt = np.linalg.svd([one_way_unfold(x, mode) for x in a],
                                     full_matrices=False)
            v = np.ones(len(a))
            for c in range(len(a) - 1):
                live = s[c][s[c] > 1e-10 * s[c, 0]]
                v[c] = (0.5 * live[-1], (s[c, 0] + s[c, 1]) / 2, 1.5 * s[c, 0])[c % 3]
            got = solver._prox_one_way(a, mode, v)
            for c, x in enumerate(a):
                shrunk = (u[c] * np.maximum(s[c] - v[c], 0.0)) @ vt[c]
                ref = one_way_fold(shrunk, mode, x.shape)
                assert np.linalg.norm(got[c] - ref) <= 1e-12 * np.linalg.norm(x)
                if c % 3 == 2 or c == len(a) - 1:   # above, or the zero slice
                    assert (got[c] == 0.0).all()

    def test_dominating_threshold_gives_exact_zeros(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 2, 3, 2, 3))
        for mode in (0, 1):
            top = np.array([np.linalg.svd(one_way_unfold(x, mode), compute_uv=False)[0]
                            for x in a])
            out = solver._prox_one_way(a, mode, top * np.array([1.0 + 1e-9, 2.0, 1e6]))
            assert (out == 0.0).all()


class TestProxPsd:
    def test_psd_input_zero_threshold_unchanged(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((4, 4))
        psd = m @ m.T
        a = square_fold(psd, (2, 2, 2, 2))
        np.testing.assert_allclose(prox_psd(a, 0.0), a, atol=1e-12)

    def test_negative_eigenvalue_removed(self):
        out = prox_psd(np.diag([2.0, -1.0]), 0.0)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_hand_worked_asymmetric_case(self):
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        out = prox_psd(a, 0.0)
        np.testing.assert_allclose(out, np.full((2, 2), 0.5), atol=1e-12)

    def test_output_exactly_symmetric_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((3, 3, 3, 3))
            out = square_unfold(prox_psd(a, rng.uniform(0, 0.5)))
            assert np.array_equal(out, out.T)
            assert np.linalg.eigvalsh(out).min() >= -1e-14

    def test_beats_random_psd_candidates(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4))
        v = 0.3
        star = prox_psd(a, v)

        def val(w):
            ww = square_unfold(w)
            return 0.5 * ((w - a) ** 2).sum() + v * np.trace(ww)

        best = val(star)
        for _ in range(200):
            c = star + 0.3 * rng.standard_normal((4, 4))
            cand = prox_psd(c, 0.0)  # project to the feasible PSD cone
            assert best <= val(cand) + 1e-12


class TestObjective:
    def test_zero_tensor_gives_pure_data_term(self):
        data, cross, grams, pre = make_problem(p=1, n=4, m=3, q=3)
        cfg = FitConfig(lam=0.37, beta=0.5)
        zero = np.zeros((pre.q_total,) * 2)
        assert objective(zero, pre, cfg) == pytest.approx(pre.c0, rel=1e-12)

    def test_negative_eigenvalue_is_infeasible(self):
        data, cross, grams, pre = make_problem(p=1, n=4, m=3, q=3)
        cfg = FitConfig(lam=0.1, beta=0.5)
        b = np.diag([-1.0, 0.5, 0.2])
        assert objective(b, pre, cfg) == float("inf")
        # the fit's feasible set is PSD at every (lambda, beta), so with
        # beta=0 or lambda=0 too
        for other in (FitConfig(lam=0.1, beta=0.0), FitConfig(lam=0.0, beta=0.5)):
            assert objective(b, pre, other) == float("inf")

    def test_asymmetric_square_unfolding_is_infeasible(self):
        data, cross, grams, pre = make_problem(p=1, n=4, m=3, q=3)
        b = np.diag([1.0, 0.5, 0.2])
        b[0, 1] = 0.3
        for lam, beta in ((0.1, 0.5), (0.1, 0.0), (0.0, 0.5)):
            assert objective(b, pre, FitConfig(lam=lam, beta=beta)) == float("inf")

    def test_matches_independent_composition(self):
        data, cross, grams, pre = make_problem(p=2, n=4, m=3, q=2, seed=9)
        q = pre.q_total
        rng = np.random.default_rng(10)
        cfg = FitConfig(lam=0.21, beta=0.4)
        for _ in range(5):
            m = rng.standard_normal((q, q))
            b_sq = m @ m.T  # feasible: symmetric PSD
            b = square_fold(b_sq, pre.dims + pre.dims)
            loss = loss_from_scratch(data, cross, grams, b_sq)
            nuc0 = np.abs(np.linalg.eigvalsh(b_sq)).sum()
            nucs = [np.linalg.svd(one_way_unfold(b, k), compute_uv=False).sum()
                    for k in range(2)]
            expect = loss + cfg.lam * (cfg.beta * nuc0
                                       + (1 - cfg.beta) / 2 * sum(nucs))
            assert objective(b, pre, cfg) == pytest.approx(expect, rel=1e-10)


def reference_unaccelerated(pre, lam, beta, eta, iters):
    """Plain ADMM (no extrapolation), dense solve, run for a fixed count."""
    q = pre.q_total
    p = pre.p
    dims2 = pre.dims + pre.dims
    a_mat = 2.0 * pre.G + (p + 1) * eta * np.eye(q * q)
    fac = cho_factor(a_mat)
    d = [np.zeros((q, q)) for _ in range(p + 1)]
    v = [np.zeros((q, q)) for _ in range(p + 1)]
    for _ in range(iters):
        rhs = pre.h + eta * sum((d[k] - v[k]).ravel() for k in range(p + 1))
        b = cho_solve(fac, rhs).reshape(q, q)
        for k in range(p + 1):
            ak = b + v[k]
            if k == 0:
                w, pm = np.linalg.eigh((ak + ak.T) / 2)
                c = np.maximum(w - lam * beta / eta, 0.0)
                d[k] = (pm * c) @ pm.T
            else:
                m = one_way_unfold(ak.reshape(dims2), k - 1)
                um, s, vt = np.linalg.svd(m, full_matrices=False)
                s = np.maximum(s - lam * (1 - beta) / (p * eta), 0.0)
                d[k] = square_unfold(one_way_fold((um * s) @ vt, k - 1, dims2))
            v[k] = v[k] + b - d[k]
    return d[0].reshape(dims2)


class TestAdmmFit:
    def test_matches_long_unaccelerated_reference(self):
        data, cross, grams, pre = make_problem(
            p=1, n=5, m=4, q=3, seed=12, model_scale=1.5, noise=0.3)
        cfg = FitConfig(lam=0.1, beta=0.5, eta=1.0)
        fit = admm_fit(data, cross, grams, cfg, pre=pre)
        assert fit.converged
        assert np.linalg.norm(fit.coeffs) > 1e-3  # nontrivial optimum
        ref = reference_unaccelerated(pre, cfg.lam, cfg.beta, cfg.eta / 10, 20000)
        obj_ref = objective(ref, pre, cfg)
        assert abs(fit.objective_value - obj_ref) < 1e-4
        # the reported objective is the public one, at every beta
        for beta in (0.0, 0.5, 1.0):
            cfg_b = replace(cfg, beta=beta)
            fit_b = admm_fit(data, cross, grams, cfg_b, pre=pre)
            assert objective(fit_b.coeffs, pre, cfg_b) == pytest.approx(
                fit_b.objective_value, abs=1e-9)

    def test_dominating_penalty_annihilates(self):
        data, cross, grams, pre = make_problem(p=1, n=5, m=4, q=3)
        fit = admm_fit(data, cross, grams, FitConfig(lam=1e6, beta=0.5), pre=pre)
        assert np.linalg.norm(fit.coeffs) < 1e-6

    def test_iterates_stay_symmetric_and_stationary(self):
        data, cross, grams, pre = make_problem(
            p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
        cfg = FitConfig(lam=0.05, beta=0.5)
        fit = admm_fit(data, cross, grams, cfg, pre=pre)
        assert np.linalg.norm(fit.coeffs) > 1e-3  # one-way prox engaged
        b_sq = fit.coeff_square()
        w = np.linalg.eigvalsh(b_sq)
        assert w.min() >= -1e-10 * max(w.max(), 1e-300)
        assert np.isfinite(fit.objective_value)

    def test_primal_residuals_vanish_at_convergence(self):
        data, cross, grams, pre = make_problem(
            p=1, n=5, m=4, q=3, seed=14, model_scale=1.5, noise=0.1)
        cfg = FitConfig(lam=1e-3, beta=0.5, tol=1e-12, max_iters=10000)
        fit = admm_fit(data, cross, grams, cfg, pre=pre)
        assert fit.converged
        scale = np.linalg.norm(fit.coeff_square())
        assert scale > 0
        assert fit.primal_residuals.max() < 1e-5 * scale

    def test_feasible_point_screen(self):
        # PSD candidates score no better than the fit, and symmetric ones
        # that are not PSD lie outside the feasible set, at beta = 0 too
        data, cross, grams, pre = make_problem(
            p=1, n=6, m=5, q=3, seed=15, model_scale=1.5, noise=0.3)
        for beta in (0.0, 0.5):
            cfg = FitConfig(lam=0.05, beta=beta, tol=1e-10, max_iters=3000)
            fit = admm_fit(data, cross, grams, cfg, pre=pre)
            assert fit.converged
            best = objective(fit.coeffs, pre, cfg)
            slack = 1e-6 * (1.0 + abs(best))
            assert best <= objective(np.zeros_like(fit.coeffs), pre, cfg) + slack
            rng = np.random.default_rng(16)
            for _ in range(200):
                cand = square_unfold(fit.coeffs) + 0.05 * rng.standard_normal((3, 3))
                cand = (cand + cand.T) / 2.0
                assert best <= objective(prox_psd(cand, 0.0), pre, cfg) + slack
                assert best <= objective(cand, pre, cfg) + slack

    def test_noiseless_rank_one_beats_generator(self):
        rng = np.random.default_rng(17)
        n, m = 8, 5
        locs = [rng.uniform(size=(m, 1)) for _ in range(n)]
        data = FunctionalDataset(locs, [np.zeros(m) for _ in range(n)])
        grams = synthetic_grams(rng, n * m, [3])
        pre0 = precompute(data, cross_products(data), grams)
        w_vec = rng.standard_normal(pre0.q_total)
        vals = [float(rng.standard_normal()) * (pre0.L[i] @ w_vec)
                for i in range(n)]
        data = FunctionalDataset(locs, vals)
        cross = cross_products(data)
        pre = precompute(data, cross, grams)
        cfg = FitConfig(lam=1e-4, beta=0.5, tol=1e-10, max_iters=3000)
        fit = admm_fit(data, cross, grams, cfg, pre=pre)
        b_star = np.outer(w_vec, w_vec)
        assert objective(fit.coeffs, pre, cfg) <= objective(b_star, pre, cfg) + 1e-8

    def test_beta_one_matches_single_block_reference(self):
        data, cross, grams, pre = make_problem(
            p=2, n=5, m=4, q=2, seed=18, model_scale=1.5, noise=0.2)
        cfg = FitConfig(lam=0.05, beta=1.0, tol=1e-10, max_iters=5000)
        fit = admm_fit(data, cross, grams, cfg, pre=pre)
        q = pre.q_total
        a_mat = 2.0 * pre.G + cfg.eta * np.eye(q * q)
        fac = cho_factor(a_mat)
        d = np.zeros((q, q))
        v = np.zeros((q, q))
        for _ in range(20000):
            b = cho_solve(fac, pre.h + cfg.eta * (d - v).ravel()).reshape(q, q)
            w, pm = np.linalg.eigh((b + v + (b + v).T) / 2)
            c = np.maximum(w - cfg.lam / cfg.eta, 0.0)
            d = (pm * c) @ pm.T
            v = v + b - d
        obj_ref = objective(d.reshape(pre.dims + pre.dims), pre, cfg)
        assert abs(fit.objective_value - obj_ref) <= 1e-6 * (1 + abs(obj_ref))

    def test_dense_and_matrix_free_agree(self, monkeypatch):
        data, cross, grams, pre_d = make_problem(
            p=2, n=4, m=4, q=2, seed=19, model_scale=1.5, noise=0.2)
        cfg = FitConfig(lam=0.03, beta=0.5)
        monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
        pre_m = precompute(data, cross, grams)
        assert pre_m.G is None
        fit_d = admm_fit(data, cross, grams, cfg, pre=pre_d)
        fit_m = admm_fit(data, cross, grams, cfg, pre=pre_m)
        np.testing.assert_allclose(fit_m.coeffs, fit_d.coeffs, atol=1e-8)
        assert fit_m.objective_value == pytest.approx(fit_d.objective_value, abs=1e-9)

    def test_nan_data_aborts_with_trace(self):
        rng = np.random.default_rng(22)
        locs = [rng.uniform(size=(3, 1)) for _ in range(3)]
        vals = [rng.standard_normal(3) for _ in range(3)]
        vals[0][1] = np.nan
        data = FunctionalDataset(locs, vals)
        grams = synthetic_grams(rng, 9, [2])
        with pytest.raises(RuntimeError, match="non-finite"):
            admm_fit(data, cross_products(data), grams, FitConfig(lam=0.1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(eta=0.0)
        with pytest.raises(ValueError):
            FitConfig(beta=1.5)
        with pytest.raises(ValueError):
            FitConfig(lam=-1.0)
        for key in ("lam", "eta", "tol"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=key):
                    FitConfig(**{key: bad})
        # through the CLI's config-file keys, as selected_config.json holds it
        config = FitConfig(lam=0.2, beta=0.75)
        written = replace(RunConfig("fit"), **asdict(config)).to_dict()
        assert written["lambda"] == 0.2
        assert RunConfig.from_dict(written).fit_config() == config


class TestAdmmMap:
    def test_plain_iteration_reaches_the_fit(self):
        # on acceptance test_04's toy problem: the map alone, with no
        # momentum, from zero until D stops moving, lands on the objective
        # of the accelerated fit; one more step from there moves D by at
        # most tol, and writes to none of its inputs
        data, cross, grams, pre = make_problem(
            p=1, n=5, m=4, q=3, seed=12, model_scale=1.5, noise=0.3)
        cfg = FitConfig(lam=0.1, beta=0.5, eta=1.0)
        fit = admm_fit(data, cross, grams, cfg, pre=pre)
        cell = [np.array([x]) for x in (cfg.lam, cfg.beta, cfg.eta)]
        solve = pre.solver()
        b, d, v = None, *np.zeros((2, 1, pre.p + 1, pre.q_total, pre.q_total))
        for _ in range(10000):
            b, d_next, v, _ = solver._admm_map(solve, pre.dims, b, d, v, *cell)
            moved = frob(d_next - d).max()
            d = d_next
            if moved <= 1e-12 * frob(d).max():
                break
        assert moved <= 1e-12 * frob(d).max()
        assert abs(objective(d[0, 0], pre, cfg) - fit.objective_value) < 1e-4

        state = [x.copy() for x in (b, d, v)]
        out = solver._admm_map(solve, pre.dims, b, d, v, *cell)
        assert frob(out[1] - d).max() <= cfg.tol * frob(d).max()
        assert all(np.array_equal(x, y) for x, y in zip((b, d, v), state))
        again = solver._admm_map(solve, pre.dims, b, d, v, *cell)
        assert all(np.array_equal(x, y) for x, y in zip(out, again))


def ridge_problem(dense, monkeypatch):
    """A loss system on the dense or the matrix-free path (Q = 4), and the
    dense packed G of its data."""
    data, cross, grams, _ = make_problem(
        p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
    g_sym = precompute(data, cross, grams).G_sym
    if not dense:
        monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    pre = precompute(data, cross, grams)
    assert (pre.G_sym is not None) == dense
    return pre, g_sym


def ridge_matvec(pre, eta):
    return lambda x: 2.0 * pre._apply(x) + (pre.p + 1) * eta * x


def symmetric_stack(rng, c, q):
    a = rng.standard_normal((c, q, q))
    return a + np.swapaxes(a, 1, 2)


def frob(x):
    return np.sqrt((x * x).sum(axis=(-2, -1)))


class TestRidgeSolve:
    @pytest.mark.parametrize("dense", [True, False])
    def test_solves_the_packed_ridge_system(self, dense, monkeypatch):
        # each B of the stack is exactly symmetric and solves
        # (2 G + (p+1) eta I) B = h + eta sym(acc), checked in packed
        # coordinates with the dense packed G whichever path solves
        pre, g_sym = ridge_problem(dense, monkeypatch)
        q, pk = pre.q_total, pre.pack
        acc = np.random.default_rng(24).standard_normal((3, q, q))
        solve = pre.solver()
        for eta in (1e-3, 0.1, 1.0, 10.0):
            b = solve(acc, eta)
            assert np.array_equal(b, np.swapaxes(b, 1, 2))
            rhs = pk.pack(pre.h.reshape(q, q) + eta * acc)   # packing symmetrizes
            x = pk.pack(b)
            res = 2.0 * x @ g_sym + (pre.p + 1) * eta * x - rhs
            assert (np.linalg.norm(res, axis=1)
                    <= 1e-8 * np.linalg.norm(rhs, axis=1)).all()

    @pytest.mark.parametrize("dense", [True, False])
    def test_stack_matches_stacks_of_one(self, dense, monkeypatch):
        # right-hand sides of very different scales take different numbers
        # of CG steps; each cell runs its own CG
        pre, _ = ridge_problem(dense, monkeypatch)
        rng = np.random.default_rng(25)
        acc = rng.standard_normal((4, pre.q_total, pre.q_total))
        acc *= np.array([1.0, 1e3, 1e-3, 30.0])[:, None, None]
        x0 = symmetric_stack(rng, 4, pre.q_total)
        mixed = np.array([0.1, 1e-3, 10.0, 1.0])   # one eta per row
        solve = pre.solver()
        for eta, start in ((0.1, None), (1e-3, None), (1e-3, x0), (mixed, None),
                           (mixed, x0)):
            stacked = solve(acc, eta, x0=start)
            row_eta = np.broadcast_to(eta, (len(acc),))
            ones = np.concatenate([
                solve(acc[c:c + 1], row_eta[c],
                      x0=None if start is None else start[c:c + 1])
                for c in range(len(acc))])
            if dense:
                # a one-row product takes numpy's gemv, which sums in
                # another order than the stack's gemm
                assert_rel(ones, stacked, rel=1e-14)
            else:
                assert np.array_equal(ones, stacked)

    def test_matrix_free_iteration_never_packs(self, monkeypatch):
        calls = []
        for name in ("pack", "unpack"):
            method = getattr(SymPacking, name)
            monkeypatch.setattr(SymPacking, name, lambda self, x, name=name, method=method:
                                calls.append(name) or method(self, x))
        for dense in (True, False):
            calls.clear()
            pre, _ = ridge_problem(dense, monkeypatch)
            outs = solver._iterate(pre, FitConfig(max_iters=20), STACK_LAM, STACK_BETA,
                                   STACK_ETA)
            assert sum(out["n_iters"] for out in outs) > 0
            # the counter sees the dense path pack
            assert (calls != []) == dense

    def test_zero_right_hand_side_gives_exact_zeros(self, monkeypatch):
        pre, _ = ridge_problem(False, monkeypatch)
        zero = np.zeros((pre.q_total,) * 2)
        x0 = symmetric_stack(np.random.default_rng(3), 1, pre.q_total)[0]
        for start in (None, x0):
            x = solver._conjugate_gradient(ridge_matvec(pre, 0.1), zero, start, 200)
            assert np.array_equal(x, zero)

    def test_warm_start_at_the_solution_returns_it(self, monkeypatch):
        pre, g_sym = ridge_problem(False, monkeypatch)
        eta, pk = 0.1, pre.pack
        rhs = symmetric_stack(np.random.default_rng(4), 1, pre.q_total)[0]
        a = 2.0 * g_sym + (pre.p + 1) * eta * np.eye(pk.dim)
        x0 = pk.unpack(np.linalg.solve(a, pk.pack(rhs)))
        matvec = ridge_matvec(pre, eta)
        assert frob(rhs - matvec(x0)) < 1e-12 * frob(rhs)
        calls = []
        x = solver._conjugate_gradient(lambda x: calls.append(x.shape) or matvec(x),
                                       rhs, x0, 200)
        assert np.array_equal(x, x0)
        assert calls == [x0.shape]   # the starting residual only

    def test_non_finite_residual_raises_at_once(self):
        calls = []

        def matvec(x):
            calls.append(x.shape)
            return np.full_like(x, np.nan)

        rhs = symmetric_stack(np.random.default_rng(5), 1, 4)[0]
        for start in (None, np.ones_like(rhs)):
            calls.clear()
            with pytest.raises(RuntimeError, match="conjugate gradient failed.*non-finite"):
                solver._conjugate_gradient(matvec, rhs, start, 200)
            assert calls == [rhs.shape]


# (lambda, beta) of a stack's cells; the fourth annihilates the fit
STACK_LAM = [0.3, 0.3, 0.3, 1e6, 0.01]
STACK_BETA = [0.0, 0.5, 1.0, 0.5, 1.0]
STACK_ETA = [FitConfig().eta] * len(STACK_LAM)


class TestStackedAdmm:
    @pytest.mark.parametrize("dense", [True, False])
    def test_cells_match_single_cell_runs(self, dense, monkeypatch):
        data, cross, grams, _ = make_problem(
            p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
        if not dense:
            monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
        pre = precompute(data, cross, grams)
        free = FitConfig(eta=10.0, tol=1e-9, max_iters=2000)
        capped = FitConfig(max_iters=3)
        for base in (free, capped):
            stacked = solver._iterate(pre, base, STACK_LAM, STACK_BETA,
                                      [base.eta] * len(STACK_LAM))
            for lam, beta, out in zip(STACK_LAM, STACK_BETA, stacked):
                single = admm_fit(data, cross, grams, replace(base, lam=lam, beta=beta),
                                  pre=pre)
                assert out["n_iters"] == single.n_iters
                assert out["converged"] == single.converged
                ref = np.linalg.norm(single.coeffs)
                assert np.linalg.norm(out["coeffs"] - single.coeffs) <= 1e-12 * ref
            n_iters = [out["n_iters"] for out in stacked]
            assert np.linalg.norm(stacked[3]["coeffs"]) == 0.0
            assert n_iters[3] == 0 and stacked[3]["converged"]
            if base is capped:
                assert n_iters == [3, 3, 3, 0, 3]
                assert not any(stacked[c]["converged"] for c in (0, 1, 2, 4))
            else:
                assert min(n_iters[:3]) > 10 and len(set(n_iters)) == 5

    @pytest.mark.parametrize("dense", [True, False])
    def test_mixed_eta_cells_match_single_cell_runs(self, dense, monkeypatch):
        # each cell of a stack steps with its own eta, as it would alone
        data, cross, grams, _ = make_problem(
            p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
        if not dense:
            monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
        pre = precompute(data, cross, grams)
        base = FitConfig(tol=1e-9, max_iters=2000)
        etas = [10.0, 1.0, 0.3, 5.0, 30.0]
        stacked = solver._iterate(pre, base, STACK_LAM, STACK_BETA, etas)
        for lam, beta, eta, out in zip(STACK_LAM, STACK_BETA, etas, stacked):
            single = admm_fit(data, cross, grams,
                              replace(base, lam=lam, beta=beta, eta=eta), pre=pre)
            assert out["n_iters"] == single.n_iters
            assert out["converged"] == single.converged
            if dense:
                ref = np.linalg.norm(single.coeffs)
                assert np.linalg.norm(out["coeffs"] - single.coeffs) <= 1e-14 * ref
            else:
                assert np.array_equal(out["coeffs"], single.coeffs)
        # the steps were used: at one eta for every cell the fits stop elsewhere
        at_one_eta = solver._iterate(pre, base, STACK_LAM, STACK_BETA, STACK_ETA)
        assert [o["n_iters"] for o in at_one_eta] != [o["n_iters"] for o in stacked]


def linear_term_bounds(pre):
    """(lambda_max(h), max_k ||h_(k)||_2) of the full-data linear term,
    computed directly from ``pre.h``."""
    h = pre.h.reshape(pre.q_total, pre.q_total)
    h = (h + h.T) / 2.0
    rho0 = max(np.linalg.eigvalsh(h).max(), 0.0)
    h = h.reshape(pre.dims * 2)
    rho1 = max(np.linalg.svd(one_way_unfold(h, k), compute_uv=False).max()
               for k in range(pre.p))
    return rho0, rho1


def certified(pre, lam, beta):
    return pre.zero_certified(np.atleast_1d(lam), np.atleast_1d(beta))


class TestZeroCertificate:
    # beta = 1 above lambda_max used to run to the cap without converging
    FOUND = dict(p=2, n=9, m=4, q=2, seed=30, model_scale=1.5, noise=0.2)

    @pytest.mark.parametrize("lam", [1.0, 1e6])
    def test_beta_one_above_lambda_max_is_exact_zero(self, lam):
        data, cross, grams, pre = make_problem(**self.FOUND)
        assert lam > linear_term_bounds(pre)[0]
        fit = admm_fit(data, cross, grams, FitConfig(lam=lam, beta=1.0), pre=pre)
        assert not fit.coeffs.any()
        assert fit.converged and fit.n_iters == 0
        assert fit.objective_value == pre.c0
        assert not fit.primal_residuals.any()

    def test_beta_one_threshold_is_lambda_max(self):
        data, cross, grams, pre = make_problem(**self.FOUND)
        lam_max = linear_term_bounds(pre)[0]
        assert certified(pre, lam_max * (1 + 1e-9), 1.0).all()
        below = lam_max * (1 - 1e-3)
        assert not certified(pre, below, 1.0).any()
        fit = admm_fit(data, cross, grams, FitConfig(lam=below, beta=1.0), pre=pre)
        assert fit.n_iters > 0
        assert np.linalg.norm(fit.coeffs) > 0.0

    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_certified_cells_are_optimal_at_zero(self, seed):
        p = 1 + seed % 2
        data, cross, grams, pre = make_problem(
            p=p, n=6, m=4, q=2, seed=seed, model_scale=1.5, noise=0.3)
        rho0, rho1 = linear_term_bounds(pre)
        q = pre.q_total
        h = pre.h.reshape(q, q)
        top = np.linalg.eigh((h + h.T) / 2.0)[1][:, -1]
        rng = np.random.default_rng(seed)
        n_certified = 0
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            # the smallest lambda the certificate accepts at this beta
            lam_min = rho0 / (beta + (1.0 - beta) * rho0 / rho1)
            for lam in lam_min * np.array([0.25, 0.5, 0.75, 0.9, 1 + 1e-9, 1.5]):
                if not certified(pre, lam, beta).all():
                    continue
                n_certified += 1
                cfg = FitConfig(lam=lam, beta=beta)
                at_zero = objective(np.zeros(pre.dims * 2), pre, cfg)
                slack = 1e-12 * (1.0 + abs(at_zero))
                # random PSD points, the top eigendirection of h, and where
                # a plain ADMM run (which knows no certificate) ends up
                cands = [reference_unaccelerated(pre, lam, beta, 0.1, 500)]
                for scale in (1e-6, 1e-3, 1e-1, 1.0):
                    a = rng.standard_normal((q, rng.integers(1, q + 1)))
                    cands += [square_fold(scale * b_sq, pre.dims * 2)
                              for b_sq in (a @ a.T, np.outer(top, top))]
                for b in cands:
                    assert objective(b, pre, cfg) >= at_zero - slack
        assert n_certified == 10  # exactly the cells at or above lam_min

    @pytest.mark.parametrize("dense", [True, False])
    def test_mixed_stack_leaves_iterating_cells_bit_identical(self, dense, monkeypatch):
        data, cross, grams, _ = make_problem(**self.FOUND)
        if not dense:
            monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
        pre = precompute(data, cross, grams)
        iterating = [(0.03, 0.5), (0.01, 1.0), (0.05, 0.0)]
        zero = [(1e6, 0.5), (1.0, 1.0)]
        mixed_cells = [zero[0], iterating[0], zero[1], iterating[1], iterating[2]]
        for base in (FitConfig(), FitConfig(max_iters=7)):   # free, and capped
            alone = solver._iterate(pre, base, *zip(*iterating), [base.eta] * 3)
            mixed = solver._iterate(pre, base, *zip(*mixed_cells), [base.eta] * 5)
            for ref, out in zip(alone, [mixed[1], mixed[3], mixed[4]]):
                assert ref["n_iters"] == out["n_iters"] > 0
                assert ref["converged"] == out["converged"]
                for key in ("coeffs", "objective_value", "primal_residuals"):
                    assert np.array_equal(ref[key], out[key])
            for out in (mixed[0], mixed[2]):
                assert not out["coeffs"].any()
                assert out["converged"] and out["n_iters"] == 0
                assert out["objective_value"] == pre.c0


def synthetic_fit(coeffs, threshold=1e-8):
    return CovarianceFit(
        coeffs=coeffs, config=FitConfig(rank_threshold=threshold), grams=[],
        converged=True, n_iters=1, objective_value=0.0,
        primal_residuals=np.zeros(1))


class TestRankReport:
    def test_zero_tensor(self):
        fit = synthetic_fit(np.zeros((3, 2, 3, 2)))
        assert rank_report(fit) == (0, 0, 0)

    def test_constructed_tucker_ranks(self):
        rng = np.random.default_rng(23)
        u1 = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        u2 = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        core = rng.standard_normal((6, 4))
        c_psd = core @ core.T  # rank 4 PSD core on the 2x3 factor space
        u = np.kron(u1, u2)
        b_sq = u @ c_psd @ u.T
        fit = synthetic_fit(square_fold(b_sq, (5, 6, 5, 6)))
        assert rank_report(fit, threshold=1e-8) == (4, 2, 3)

    def test_threshold_one_keeps_at_most_top(self):
        rng = np.random.default_rng(24)
        m = rng.standard_normal((6, 6))
        fit = synthetic_fit(square_fold(m @ m.T, (2, 3, 2, 3)))
        assert max(rank_report(fit, threshold=1.0)) <= 1


class TestCvSelect:
    def test_single_point_grid(self):
        data, cross, grams, _ = make_problem(p=1, n=6, m=4, q=2, seed=25)
        best, scores, _ = cv_select(data, grams, [0.1], [0.5], n_folds=3)
        assert best.lam == 0.1 and best.beta == 0.5
        assert scores.shape == (1, 1)
        assert np.isfinite(scores).all()

    def test_duplicate_lambda_scores_identical(self):
        data, cross, grams, _ = make_problem(p=1, n=6, m=4, q=2, seed=26)
        _, scores, _ = cv_select(data, grams, [0.1, 0.1], [0.25, 0.75], n_folds=3)
        np.testing.assert_array_equal(scores[0], scores[1])

    def test_ties_break_toward_larger_lambda_then_beta(self):
        data, cross, grams, _ = make_problem(p=1, n=6, m=4, q=2, seed=27)
        # both lambdas annihilate the fit, so all scores tie exactly
        best, scores, _ = cv_select(data, grams, [1e9, 1e12], [0.25, 0.75],
                                    n_folds=3)
        assert best.lam == 1e12
        assert best.beta == 0.75
        assert np.ptp(scores) == 0.0

    def test_deterministic_across_calls(self):
        data, cross, grams, _ = make_problem(p=1, n=6, m=4, q=2, seed=28)
        b1, s1, _ = cv_select(data, grams, [1e-3, 1e-2], [0.0, 1.0], n_folds=3)
        b2, s2, _ = cv_select(data, grams, [1e-3, 1e-2], [0.0, 1.0], n_folds=3)
        assert b1 == b2
        np.testing.assert_array_equal(s1, s2)

    def test_dense_and_matrix_free_agree(self, monkeypatch):
        data, cross, grams, _ = make_problem(
            p=2, n=9, m=4, q=2, seed=30, model_scale=1.5, noise=0.2)
        grid = ([1e-3, 1e-2, 3e-2], [0.0, 0.5, 1.0])
        best_d, scores_d, cells_d = cv_select(data, grams, *grid, n_folds=3)
        monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
        best_m, scores_m, cells_m = cv_select(data, grams, *grid, n_folds=3)
        assert best_m == best_d
        np.testing.assert_allclose(scores_m, scores_d, rtol=1e-8)
        assert np.ptp(scores_d) > 1e-3 * scores_d.max()
        np.testing.assert_array_equal(cells_m.unconverged_folds,
                                      cells_d.unconverged_folds)

    @pytest.mark.parametrize("dense", [True, False])
    def test_iteration_makes_no_svd_call(self, dense, monkeypatch):
        # the one-way prox comes from small Gram eigendecompositions
        data, cross, grams, _ = make_problem(
            p=2, n=9, m=4, q=2, seed=30, model_scale=1.5, noise=0.2)
        if not dense:
            monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
        calls = []
        svd = np.linalg.svd

        def spy(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        _, _, cells = cv_select(data, grams, [1e-3, 1e-2], [0.0, 0.5], n_folds=3)
        assert (cells.n_iters > 0).all()   # every cell ran the one-way prox
        assert calls == []

    def test_unconverged_cells_are_reported(self):
        data, cross, grams, _ = make_problem(
            p=1, n=6, m=4, q=2, seed=31, model_scale=1.5, noise=0.2)
        grid = ([1e-3, 1e-1], [0.0, 1.0])   # no cell is certified zero
        _, _, capped = cv_select(data, grams, *grid, n_folds=3,
                                 base=FitConfig(max_iters=4, tol=1e-12))
        assert capped.n_iters.shape == (2, 2)
        assert (capped.n_iters == 12).all()
        assert (capped.unconverged_folds == 3).all()
        _, _, free = cv_select(data, grams, *grid, n_folds=3,
                               base=FitConfig(tol=1e-12))
        assert (free.n_iters > 12).all()
        assert (free.unconverged_folds == 0).all()
        # a cell far above lambda_max is certified zero in every fold
        _, _, zero = cv_select(data, grams, [1e9], [0.5], n_folds=3,
                               base=FitConfig(max_iters=4, tol=1e-12))
        assert zero.n_iters[0, 0] == 0
        assert zero.unconverged_folds[0, 0] == 0

    def test_winner_keeps_its_cells_eta(self):
        data, cross, grams, _ = make_problem(
            p=2, n=9, m=4, q=2, seed=30, model_scale=1.5, noise=0.2)
        grid = ([1e-3, 1e-2, 3e-2], [0.0, 0.5, 1.0])
        base = FitConfig(eta=0.7)
        best, _, _ = cv_select(data, grams, *grid, n_folds=3, base=base)
        assert best.lam != 1e-2   # the median lambda, whose cells step with base.eta
        assert best.eta == base.eta * (best.lam / 1e-2)

    def test_empty_grid_rejected(self):
        data, cross, grams, _ = make_problem(p=1, n=6, m=4, q=2, seed=29)
        with pytest.raises(ValueError):
            cv_select(data, grams, [], [0.5])


def relation_problem(dense, monkeypatch):
    """Setting-1 data (n = 30, m = 6) on a 4 x 4 gram basis, and the
    settings the relations fit with."""
    if not dense:
        monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    data = generate(SimSetting(setting=1, n=30, m=6, spawn_key=(0,)))
    grams = gram_factors(data, KernelSpec(), cap=4)
    assert [gf.retained_rank for gf in grams] == [4, 4]
    tuning = dict(lambda_grid=BENCHMARK_LAMBDA_GRID[::2], beta_grid=(0.0, 0.5, 1.0),
                  base=FitConfig(eta=1e-9, max_iters=30), n_folds=3)
    return data, grams, tuning


class TestEstimatorSymmetries:
    """Relations between fits of transformed data, exact or to rounding."""

    @pytest.mark.parametrize("dense", [True, False])
    def test_doubling_y_with_four_times_lambda_scales_exactly(self, dense, monkeypatch):
        data, grams, tuning = relation_problem(dense, monkeypatch)
        best, scores, cells = cv_select(data, grams, **tuning)
        # some cells converge, some stop at the cap
        assert 0 < (cells.unconverged_folds == 0).sum() < cells.n_iters.size
        twice = FunctionalDataset(data.locations, [2.0 * y for y in data.values])
        tuning["lambda_grid"] = [4.0 * lam for lam in tuning["lambda_grid"]]
        best_2, scores_2, cells_2 = cv_select(twice, grams, **tuning)
        assert np.array_equal(scores_2, 16.0 * scores)
        assert best_2 == replace(best, lam=4.0 * best.lam)
        assert np.array_equal(cells_2.n_iters, cells.n_iters)
        assert np.array_equal(cells_2.unconverged_folds, cells.unconverged_folds)
        fit = admm_fit(data, cross_products(data), grams, best)
        fit_2 = admm_fit(twice, cross_products(twice), grams, best_2)
        assert fit.n_iters == fit_2.n_iters
        assert np.array_equal(fit_2.coeffs, 4.0 * fit.coeffs)

    @pytest.mark.parametrize("dense", [True, False])
    def test_swapping_the_coordinates_transposes_the_modes(self, dense, monkeypatch):
        data, grams, tuning = relation_problem(dense, monkeypatch)
        swapped = FunctionalDataset([t[:, ::-1] for t in data.locations], data.values)
        grams_s = gram_factors(swapped, KernelSpec(), cap=4)
        cfg = replace(tuning["base"], lam=1e-5, beta=0.5, max_iters=500)
        fit = admm_fit(data, cross_products(data), grams, cfg)
        fit_s = admm_fit(swapped, cross_products(swapped), grams_s, cfg)
        assert fit.converged and fit.n_iters == fit_s.n_iters
        assert np.abs(fit.coeffs).max() > 0.0
        assert_rel(fit_s.coeffs, fit.coeffs.transpose(1, 0, 3, 2), rel=1e-12)
