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
from mfcov.spectral import l2_eigensystem, marginal_basis
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
    """Eight subjects with counts 2..6 (five count groups) and 3 folds; q is
    the rank of every dimension, or a tuple of one rank per dimension."""
    rng = np.random.default_rng(seed)
    counts = [2, 3, 6, 4, 2, 5, 3, 5]
    locs = [rng.uniform(size=(m, p)) for m in counts]
    vals = [rng.standard_normal(m) for m in counts]
    data = FunctionalDataset(locs, vals)
    grams = synthetic_grams(rng, sum(counts), [q] * p if np.isscalar(q) else q)
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
    # the largest count group pools 10 rows: more than D for (p, q) = (1, 2)
    # and (1, 3) (D = 3, 6), where the correction is the Gram of the rows'
    # pair products, and fewer for the products of p >= 2 dimensions (D = 10
    # to 45), where it comes from the per-dimension fourth moments, also at
    # p = 3 and at unequal ranks
    @pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 2), (2, 3), (3, (2, 2, 2)),
                                     (2, (3, 2))])
    def test_matches_per_subject_kron(self, p, q):
        data, grams, folds = unequal_counts_problem(p, q, 40 + 3 * p + int(np.prod(q)))
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
        rng = np.random.default_rng(50 + 3 * p + int(np.prod(q)))
        g = pre.G
        for a in rng.standard_normal((5, pre.q_total, pre.q_total)):
            sym = (a + a.T).ravel()
            assert_rel(g @ sym, full @ sym)
            anti = (a - a.T).ravel()
            assert np.abs(g @ anti).max() <= 1e-14 * np.abs(g).max() * np.abs(anti).sum()

    def test_stores_no_full_operator(self):
        # a precomputation keeps G packed: no field, nor anything a
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
            # the training system's packed operator and its G x
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
            got_gx = stack.reshape(len(stack), -1) @ system.G   # G is symmetric
            assert_rel(got_gx.reshape(stack.shape), np.array(want_gx))

    @pytest.mark.parametrize("p", [1, 2])
    def test_quad_matches_direct_loss(self, p):
        # the loss at a stack of symmetric matrices, over all subjects and
        # over each fold's training subjects: the quadratic form in packed
        # coordinates against the residual loss
        data, grams, folds = unequal_counts_problem(p, 2, 80 + p)
        pre = precompute(data, cross_products(data), grams, folds=folds)
        q = pre.q_total
        rng = np.random.default_rng(90 + p)
        stack = rng.standard_normal((4, q, q))
        stack = stack + np.swapaxes(stack, 1, 2)
        subsets = [(None, pre)] + [(folds.train_subjects(f), pre.training(f))
                                   for f in range(folds.n_folds)]
        for subjects, system in subsets:
            assert_rel(system.quad(stack), pre.loss_direct(stack, subjects), rel=1e-12)


class TestDenseLimit:
    @pytest.mark.parametrize("p, cap", [(1, 50), (2, 7), (3, 3)])
    def test_precompute_refuses_q_past_the_limit_before_the_layout(self, p, cap,
                                                                   monkeypatch):
        # cap is the largest with cap^(2p) <= DENSE_LIMIT: it builds the
        # loss system, and one more is refused before any of it is built
        assert cap ** (2 * p) <= solver.DENSE_LIMIT < (cap + 1) ** (2 * p)
        rng = np.random.default_rng(p)
        data = FunctionalDataset([rng.uniform(size=(3, p)) for _ in range(4)],
                                 [rng.standard_normal(3) for _ in range(4)])
        cross = cross_products(data)
        pre = precompute(data, cross, synthetic_grams(rng, 12, [cap] * p))
        assert pre.G_sym.shape == (pre.pack.dim,) * 2
        monkeypatch.setattr(solver, "_layout", None)
        with pytest.raises(ValueError) as err:
            precompute(data, cross, synthetic_grams(rng, 12, [cap + 1] * p))
        assert str(err.value) == (
            f"the retained ranks {(cap + 1,) * p} give Q = {(cap + 1) ** p}, over the dense "
            f"solver's limit Q <= 50; use --gram-cap {cap} or lower at p = {p}")


def with_rows(grams, idx):
    """Stand-in gram factors holding the rows ``idx`` of each factor."""
    return [GramFactor(gram=gf.factor[idx] @ gf.factor[idx].T, factor=gf.factor[idx],
                       pinv=np.linalg.pinv(gf.factor[idx]), retained_rank=gf.retained_rank)
            for gf in grams]


class TestLossSystem:
    """A Precompute is the loss system the ADMM runs on, for all subjects or
    for one fold's training subjects."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_training_matches_a_precompute_of_its_subjects(self, p):
        data, grams, folds = unequal_counts_problem(p, 2, 100 + p)
        pre = precompute(data, cross_products(data), grams, folds=folds)
        slices = data.subject_slices()
        for f in range(folds.n_folds):
            train = folds.train_subjects(f)
            alone = FunctionalDataset([data.locations[i] for i in train],
                                      [data.values[i] for i in train])
            idx = np.concatenate([np.arange(slices[i].start, slices[i].stop)
                                  for i in train])
            want = precompute(alone, cross_products(alone), with_rows(grams, idx))
            got = pre.training(f)
            assert got.n == train.size
            assert_rel(got.G_sym, want.G_sym, rel=1e-12)
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
        foreign = FoldAssignment(5, np.arange(n_assigned) % 5)
        message = f"covers {n_assigned} subjects but the dataset has 20"
        with pytest.raises(ValueError, match=message):
            precompute(data, cross, grams, folds=foreign)
        with pytest.raises(ValueError, match=message):
            cv_select(data, grams, [0.1], [0.5], folds=foreign, base=FitConfig())

    @pytest.mark.parametrize("n_folds, modulus", [(5, 4), (3, 5)],
                             ids=["empty fold", "label past the folds"])
    def test_fold_labels_outside_the_folds_are_refused(self, n_folds, modulus):
        # an empty fold has no subject to score; subjects labelled past
        # n_folds would never be held out, and CV would score the rest only
        data, cross, grams, _ = make_problem(p=1, n=20, m=4, q=2, seed=122)
        folds = FoldAssignment(n_folds, np.arange(20) % modulus)
        message = (f"^the fold assignment must label each subject with a fold in "
                   f"0..{n_folds - 1} and leave no fold empty$")
        with pytest.raises(ValueError, match=message):
            precompute(data, cross, grams, folds=folds)
        with pytest.raises(ValueError, match=message):
            cv_select(data, grams, [0.1], [0.5], folds=folds, base=FitConfig())

    def test_a_fit_keeps_no_decomposition_on_its_precompute(self):
        # the ridge solve's eigendecomposition of G_sym lives for one run: a
        # fit caches on its precompute only quantities of h, none larger
        # than Q x Q; a second fit adds nothing and repeats the first bit
        # for bit
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

    def test_a_fit_computes_the_linear_term_once(self, monkeypatch):
        # admm_fit iterates on its precompute, whose h and c0 it reuses
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

    @pytest.mark.parametrize("p", [1, 2])
    def test_permuting_subjects_leaves_the_loss_system_bit_identical(self, p):
        # a count group sums its subjects in the order of their data, so the
        # packed G and its fold pieces, h and c0 do not depend on how the
        # subjects are numbered, to the last bit
        data, grams, folds = unequal_counts_problem(p, 2, 130 + p)
        perm = np.random.default_rng(140 + p).permutation(data.n)
        starts = np.cumsum(data.counts) - data.counts
        idx = np.concatenate([starts[i] + np.arange(data.counts[i]) for i in perm])
        moved = FunctionalDataset([data.locations[i] for i in perm],
                                  [data.values[i] for i in perm])
        pre = precompute(data, cross_products(data), grams, folds=folds)
        pre_m = precompute(moved, cross_products(moved), with_rows(grams, idx),
                           folds=FoldAssignment(folds.n_folds, folds.assignment[perm]))
        assert np.array_equal(pre_m.G_sym, pre.G_sym)
        assert all(np.array_equal(a, b) for a, b in zip(pre_m.G_fold, pre.G_fold))
        assert np.array_equal(pre_m.h, pre.h)
        assert pre_m.c0 == pre.c0

    @given(small_problems)
    def test_permuting_subjects_with_their_fold_labels(self, problem):
        rng, data, grams = small_problem(*problem)
        folds = make_folds(data, 3, seed=int(rng.integers(100)))
        perm = rng.permutation(data.n)
        starts = np.cumsum(data.counts) - data.counts
        idx = np.concatenate([starts[i] + np.arange(data.counts[i]) for i in perm])
        moved = FunctionalDataset([data.locations[i] for i in perm],
                                  [data.values[i] for i in perm])
        moved_folds = FoldAssignment(folds.n_folds, folds.assignment[perm])
        tuning = dict(lambda_grid=(1e-3, 1e-2, 1e-1), beta_grid=(0.0, 0.5, 1.0),
                      base=FitConfig(max_iters=30))
        _, scores, cells = cv_select(data, grams, folds=folds, **tuning)
        _, scores_m, cells_m = cv_select(moved, with_rows(grams, idx),
                                         folds=moved_folds, **tuning)
        assert np.array_equal(scores_m, scores)
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

    def test_mixed_beta_stack_matches_stacks_of_one(self):
        # beta = 1 rows skip the one-way spectra; every row keeps its value
        dims = (2, 3)
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 6, 6))
        b_sq = m @ np.swapaxes(m, -1, -2)
        eigs = np.linalg.eigvalsh(b_sq)
        loss = rng.uniform(size=4)
        lam, beta = np.array([0.3, 0.2, 0.0, 0.1]), np.array([1.0, 0.5, 0.5, 0.0])
        stacked = solver._penalized(loss, b_sq, eigs, lam, beta, dims)
        alone = [solver._penalized(loss[c:c + 1], b_sq[c:c + 1], eigs[c:c + 1],
                                   lam[c], beta[c], dims)[0] for c in range(4)]
        np.testing.assert_array_equal(stacked, alone)
        assert stacked[2] == loss[2]


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
        d, v = np.zeros((2, 1, pre.p + 1, pre.q_total, pre.q_total))
        for _ in range(10000):
            _, d_next, v, _ = solver._admm_map(solve, pre.dims, d, v, *cell)
            moved = frob(d_next - d).max()
            d = d_next
            if moved <= 1e-12 * frob(d).max():
                break
        assert moved <= 1e-12 * frob(d).max()
        assert abs(objective(d[0, 0], pre, cfg) - fit.objective_value) < 1e-4

        state = [x.copy() for x in (d, v)]
        out = solver._admm_map(solve, pre.dims, d, v, *cell)
        assert frob(out[1] - d).max() <= cfg.tol * frob(d).max()
        assert all(np.array_equal(x, y) for x, y in zip((d, v), state))
        again = solver._admm_map(solve, pre.dims, d, v, *cell)
        assert all(np.array_equal(x, y) for x, y in zip(out, again))


def ridge_problem():
    """A loss system with Q = 4."""
    *_, pre = make_problem(p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
    return pre


def frob(x):
    return np.sqrt((x * x).sum(axis=(-2, -1)))


class TestRidgeSolve:
    def test_solves_the_packed_ridge_system(self):
        # each B of the stack is exactly symmetric and solves
        # (2 G + (p+1) eta I) B = h + eta sym(acc), checked in packed
        # coordinates
        pre = ridge_problem()
        g_sym = pre.G_sym
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

    def test_stack_matches_stacks_of_one(self):
        # right-hand sides of very different scales, at one eta for every
        # row and at one eta per row
        pre = ridge_problem()
        rng = np.random.default_rng(25)
        acc = rng.standard_normal((4, pre.q_total, pre.q_total))
        acc *= np.array([1.0, 1e3, 1e-3, 30.0])[:, None, None]
        mixed = np.array([0.1, 1e-3, 10.0, 1.0])
        solve = pre.solver()
        for eta in (0.1, 1e-3, mixed):
            stacked = solve(acc, eta)
            row_eta = np.broadcast_to(eta, (len(acc),))
            ones = np.concatenate([solve(acc[c:c + 1], row_eta[c]) for c in range(len(acc))])
            # a one-row product takes numpy's gemv, which sums in another
            # order than the stack's gemm
            assert_rel(ones, stacked, rel=1e-14)


# (lambda, beta) of a stack's cells; the fourth annihilates the fit
STACK_LAM = [0.3, 0.3, 0.3, 1e6, 0.01]
STACK_BETA = [0.0, 0.5, 1.0, 0.5, 1.0]
STACK_ETA = [FitConfig().eta] * len(STACK_LAM)


def cells(base, lam, beta, eta=None):
    """One FitConfig per cell: ``base`` at each cell's lam, beta and eta
    (base.eta for every cell when ``eta`` is None)."""
    eta = [base.eta] * len(lam) if eta is None else eta
    return [replace(base, lam=lm, beta=bt, eta=et) for lm, bt, et in zip(lam, beta, eta)]


class TestStackedAdmm:
    def test_cells_match_single_cell_runs(self):
        data, cross, grams, pre = make_problem(
            p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
        free = FitConfig(eta=10.0, tol=1e-9, max_iters=2000)
        capped = FitConfig(max_iters=3)
        for base in (free, capped):
            stacked = solver._iterate(pre, cells(base, STACK_LAM, STACK_BETA))
            for lam, beta, out in zip(STACK_LAM, STACK_BETA, stacked):
                single = admm_fit(data, cross, grams, replace(base, lam=lam, beta=beta),
                                  pre=pre)
                assert out.n_iters == single.n_iters
                assert out.converged == single.converged
                ref = np.linalg.norm(single.coeffs)
                assert np.linalg.norm(out.coeffs - single.coeffs) <= 1e-12 * ref
            n_iters = [out.n_iters for out in stacked]
            assert np.linalg.norm(stacked[3].coeffs) == 0.0
            assert n_iters[3] == 0 and stacked[3].converged
            if base is capped:
                assert n_iters == [3, 3, 3, 0, 3]
                assert not any(stacked[c].converged for c in (0, 1, 2, 4))
            else:
                assert min(n_iters[:3]) > 10 and len(set(n_iters)) == 5

    def test_mixed_eta_cells_match_single_cell_runs(self):
        # each cell of a stack steps with its own eta, as it would alone
        data, cross, grams, pre = make_problem(
            p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
        base = FitConfig(tol=1e-9, max_iters=2000)
        etas = [10.0, 1.0, 0.3, 5.0, 30.0]
        stacked = solver._iterate(pre, cells(base, STACK_LAM, STACK_BETA, etas))
        for lam, beta, eta, out in zip(STACK_LAM, STACK_BETA, etas, stacked):
            single = admm_fit(data, cross, grams,
                              replace(base, lam=lam, beta=beta, eta=eta), pre=pre)
            assert out.n_iters == single.n_iters
            assert out.converged == single.converged
            ref = np.linalg.norm(single.coeffs)
            assert np.linalg.norm(out.coeffs - single.coeffs) <= 1e-14 * ref
        # the steps were used: at one eta for every cell the fits stop elsewhere
        at_one_eta = solver._iterate(pre, cells(base, STACK_LAM, STACK_BETA, STACK_ETA))
        assert [o.n_iters for o in at_one_eta] != [o.n_iters for o in stacked]

    def test_each_fit_carries_its_cell_config(self):
        data, cross, grams, pre = make_problem(
            p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
        configs = cells(FitConfig(max_iters=7), STACK_LAM, STACK_BETA)
        fits = solver._iterate(pre, configs)
        assert len(fits) == len(configs)
        assert all(fit.config is config for fit, config in zip(fits, configs))
        assert all(fit.grams is pre.grams for fit in fits)
        assert admm_fit(data, cross, grams, configs[1], pre=pre).config is configs[1]

    @pytest.mark.parametrize("change", [dict(tol=1e-5), dict(max_iters=8)])
    def test_a_stack_of_mixed_stopping_rules_is_refused(self, change):
        *_, pre = make_problem(p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
        configs = cells(FitConfig(max_iters=7), STACK_LAM, STACK_BETA)
        configs[2] = replace(configs[2], **change)
        with pytest.raises(ValueError, match="share one tol and one max_iters"):
            solver._iterate(pre, configs)


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

    def test_mixed_stack_leaves_iterating_cells_bit_identical(self):
        *_, pre = make_problem(**self.FOUND)
        iterating = [(0.03, 0.5), (0.01, 1.0), (0.05, 0.0)]
        zero = [(1e6, 0.5), (1.0, 1.0)]
        mixed_cells = [zero[0], iterating[0], zero[1], iterating[1], iterating[2]]
        for base in (FitConfig(), FitConfig(max_iters=7)):   # free, and capped
            alone = solver._iterate(pre, cells(base, *zip(*iterating)))
            mixed = solver._iterate(pre, cells(base, *zip(*mixed_cells)))
            for ref, out in zip(alone, [mixed[1], mixed[3], mixed[4]]):
                assert ref.n_iters == out.n_iters > 0
                assert ref.converged == out.converged
                for key in ("coeffs", "objective_value", "primal_residuals"):
                    assert np.array_equal(getattr(ref, key), getattr(out, key))
            for out in (mixed[0], mixed[2]):
                assert not out.coeffs.any()
                assert out.converged and out.n_iters == 0
                assert out.objective_value == pre.c0


def synthetic_fit(coeffs, threshold=1e-8):
    """A fit of ``coeffs`` over factors with identity coefficient maps, whose
    L2 coordinates are the coefficients themselves."""
    dims = coeffs.shape[:coeffs.ndim // 2]
    grams = [GramFactor(factor=np.eye(q), retained_rank=q, coef_map=np.eye(q)) for q in dims]
    return CovarianceFit(
        coeffs=coeffs, config=FitConfig(rank_threshold=threshold), grams=grams,
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
        fit = replace(fit, config=replace(fit.config, rank_threshold=1e-8))
        assert rank_report(fit) == (4, 2, 3)

    @pytest.mark.parametrize("m, beta", [(10, 0.0), (10, 1.0), (20, 0.5)])
    def test_ranks_count_the_l2_spectrum(self, m, beta):
        # the ranks of the fitted operator: its L2 eigenvalues and the
        # singular values of its L2 marginal bases above the threshold
        data = generate(SimSetting(setting=1, n=40, m=m, spawn_key=(3, 0)))
        spec = KernelSpec()
        grams = gram_factors(data, spec)
        fit = admm_fit(data, cross_products(data), grams, replace(solver.TUNING_BASE, beta=beta))

        def count(v):
            return int((v > fit.config.rank_threshold * v.max()).sum())

        ranks = (count(l2_eigensystem(fit, spec).eigenvalues),
                 *(count(marginal_basis(fit, spec, k).singular_values) for k in range(data.p)))
        assert min(ranks) > 0
        assert rank_report(fit) == ranks

    def test_factors_without_coefficient_maps_are_refused(self):
        fit = synthetic_fit(np.eye(4).reshape(2, 2, 2, 2))
        fit.grams[1] = replace(fit.grams[1], coef_map=None)
        with pytest.raises(ValueError, match="gram factor 1 carries no coefficient map"):
            rank_report(fit)

    def test_threshold_one_keeps_at_most_top(self):
        rng = np.random.default_rng(24)
        m = rng.standard_normal((6, 6))
        fit = synthetic_fit(square_fold(m @ m.T, (2, 3, 2, 3)))
        fit = replace(fit, config=replace(fit.config, rank_threshold=1.0))
        assert max(rank_report(fit)) <= 1


class TestCvSelect:
    def test_single_point_grid(self):
        data, cross, grams, _ = make_problem(p=1, n=6, m=4, q=2, seed=25)
        best, scores, _ = cv_select(data, grams, [0.1], [0.5], folds=make_folds(data, 3),
                                    base=FitConfig())
        assert best.lam == 0.1 and best.beta == 0.5
        assert scores.shape == (1, 1)
        assert np.isfinite(scores).all()

    def test_duplicate_lambda_scores_identical(self):
        data, cross, grams, _ = make_problem(p=1, n=6, m=4, q=2, seed=26)
        _, scores, _ = cv_select(data, grams, [0.1, 0.1], [0.25, 0.75],
                                 folds=make_folds(data, 3), base=FitConfig())
        np.testing.assert_array_equal(scores[0], scores[1])

    def test_ties_break_toward_larger_lambda_then_beta(self):
        data, cross, grams, _ = make_problem(p=1, n=6, m=4, q=2, seed=27)
        # both lambdas annihilate the fit, so all scores tie exactly
        best, scores, _ = cv_select(data, grams, [1e9, 1e12], [0.25, 0.75],
                                    folds=make_folds(data, 3), base=FitConfig())
        assert best.lam == 1e12
        assert best.beta == 0.75
        assert np.ptp(scores) == 0.0

    def test_deterministic_across_calls(self):
        data, cross, grams, _ = make_problem(p=1, n=6, m=4, q=2, seed=28)
        grid = ([1e-3, 1e-2], [0.0, 1.0])
        b1, s1, _ = cv_select(data, grams, *grid, folds=make_folds(data, 3), base=FitConfig())
        b2, s2, _ = cv_select(data, grams, *grid, folds=make_folds(data, 3), base=FitConfig())
        assert b1 == b2
        np.testing.assert_array_equal(s1, s2)

    def test_each_fold_runs_its_whole_grid_as_one_stack(self, monkeypatch):
        data, cross, grams, _ = make_problem(
            p=2, n=9, m=4, q=2, seed=30, model_scale=1.5, noise=0.2)
        stacks = []
        iterate = solver._iterate
        monkeypatch.setattr(solver, "_iterate", lambda pre, configs: (
            stacks.append(len(configs)) or iterate(pre, configs)))
        cv_select(data, grams, [1e-3, 1e-2], [0.0, 0.5, 1.0], folds=make_folds(data, 3),
                  base=FitConfig())
        assert stacks == [6, 6, 6]

    def test_grid_matches_cells_run_one_at_a_time(self):
        # each cell of a fold's stack has the fit it has alone, up to the
        # rounding of a stacked product, so the whole-grid stack moves no
        # score beyond rounding and no iteration count
        data, cross, grams, _ = make_problem(
            p=2, n=9, m=4, q=2, seed=30, model_scale=1.5, noise=0.2)
        lambda_grid, beta_grid = [1e-3, 1e-2, 3e-2, 1e9], [0.0, 0.5, 1.0]
        base, folds = FitConfig(max_iters=40), make_folds(data, 3)
        _, scores, cells = cv_select(data, grams, lambda_grid, beta_grid, folds=folds,
                                     base=base)
        pre = precompute(data, cross, grams, folds=folds)
        want = np.zeros((3,) + scores.shape)
        for f in range(folds.n_folds):
            system = pre.training(f)
            for c in np.ndindex(scores.shape):
                lam = lambda_grid[c[0]]
                # the eta cv_select gives a lambda; 2e-2 is the median positive one
                [fit] = solver._iterate(system, [replace(
                    base, lam=lam, beta=beta_grid[c[1]], eta=base.eta * lam / 2e-2)])
                want[(0,) + c] += pre.loss_direct(fit.coeff_square()[None],
                                                  folds.valid_subjects(f))[0]
                want[(1,) + c] += fit.n_iters
                want[(2,) + c] += not fit.converged
        assert_rel(scores, want[0] / folds.n_folds, rel=1e-12)
        assert np.array_equal(cells.n_iters, want[1])
        assert np.array_equal(cells.unconverged_folds, want[2])
        # some cells converge, some stop at the cap and one is certified zero
        assert 0 < cells.unconverged_folds.sum() < 3 * (cells.n_iters > 0).sum()
        assert (cells.n_iters[3] == 0).all()

    def test_iteration_makes_no_svd_call(self, monkeypatch):
        # the one-way prox comes from small Gram eigendecompositions
        data, cross, grams, _ = make_problem(
            p=2, n=9, m=4, q=2, seed=30, model_scale=1.5, noise=0.2)
        calls = []
        svd = np.linalg.svd

        def spy(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        _, _, cells = cv_select(data, grams, [1e-3, 1e-2], [0.0, 0.5],
                                folds=make_folds(data, 3), base=FitConfig())
        assert (cells.n_iters > 0).all()   # every cell ran the one-way prox
        assert calls == []

    def test_unconverged_cells_are_reported(self):
        data, cross, grams, _ = make_problem(
            p=1, n=6, m=4, q=2, seed=31, model_scale=1.5, noise=0.2)
        grid = ([1e-3, 1e-1], [0.0, 1.0])   # no cell is certified zero
        _, _, capped = cv_select(data, grams, *grid, folds=make_folds(data, 3),
                                 base=FitConfig(max_iters=4, tol=1e-12))
        assert capped.n_iters.shape == (2, 2)
        assert (capped.n_iters == 12).all()
        assert (capped.unconverged_folds == 3).all()
        _, _, free = cv_select(data, grams, *grid, folds=make_folds(data, 3),
                               base=FitConfig(tol=1e-12))
        assert (free.n_iters > 12).all()
        assert (free.unconverged_folds == 0).all()
        # a cell far above lambda_max is certified zero in every fold
        _, _, zero = cv_select(data, grams, [1e9], [0.5], folds=make_folds(data, 3),
                               base=FitConfig(max_iters=4, tol=1e-12))
        assert zero.n_iters[0, 0] == 0
        assert zero.unconverged_folds[0, 0] == 0

    def test_winner_keeps_its_cells_eta(self):
        data, cross, grams, _ = make_problem(
            p=2, n=9, m=4, q=2, seed=30, model_scale=1.5, noise=0.2)
        grid = ([1e-3, 1e-2, 3e-2], [0.0, 0.5, 1.0])
        base = FitConfig(eta=0.7)
        best, _, _ = cv_select(data, grams, *grid, folds=make_folds(data, 3), base=base)
        assert best.lam != 1e-2   # the median lambda, whose cells step with base.eta
        assert best.eta == base.eta * (best.lam / 1e-2)

    def test_empty_grid_rejected(self):
        data, cross, grams, _ = make_problem(p=1, n=6, m=4, q=2, seed=29)
        with pytest.raises(ValueError):
            cv_select(data, grams, [], [0.5], base=FitConfig())

    def test_a_handed_precompute_is_the_one_it_builds(self, monkeypatch):
        data, cross, grams, _ = make_problem(
            p=2, n=9, m=4, q=2, seed=30, model_scale=1.5, noise=0.2)
        grid = ([1e-3, 1e-2], [0.0, 0.5, 1.0])
        built = cv_select(data, grams, *grid, folds=make_folds(data, 3), base=FitConfig())
        pre = precompute(data, cross, grams, folds=make_folds(data, 3))
        monkeypatch.setattr(solver, "precompute", None)   # cv_select must not build one
        handed = cv_select(data, grams, *grid, pre=pre, base=FitConfig())
        assert handed[0] == built[0]
        np.testing.assert_array_equal(handed[1], built[1])
        np.testing.assert_array_equal(handed[2].n_iters, built[2].n_iters)

    def test_a_precompute_without_its_folds_is_refused(self):
        data, cross, grams, pre = make_problem(p=1, n=6, m=4, q=2, seed=29)
        with pytest.raises(ValueError) as err:
            cv_select(data, grams, [0.1], [0.5], pre=pre, base=FitConfig())
        assert str(err.value) == "cv_select needs a precompute built with a fold assignment"
        folded = precompute(data, cross, grams, folds=make_folds(data, 3))
        with pytest.raises(ValueError, match="not both"):
            cv_select(data, grams, [0.1], [0.5], folds=make_folds(data, 3), pre=folded,
                      base=FitConfig())


def relation_problem():
    """Setting-1 data (n = 30, m = 6) on a 4 x 4 gram basis, and the
    settings the relations fit with."""
    data = generate(SimSetting(setting=1, n=30, m=6, spawn_key=(0,)))
    grams = gram_factors(data, KernelSpec(), cap=4)
    assert [gf.retained_rank for gf in grams] == [4, 4]
    tuning = dict(lambda_grid=BENCHMARK_LAMBDA_GRID[::2], beta_grid=(0.0, 0.5, 1.0),
                  base=FitConfig(eta=1e-9, max_iters=30), folds=make_folds(data, 3))
    return data, grams, tuning


class TestEstimatorSymmetries:
    """Relations between fits of transformed data, exact or to rounding."""

    def test_doubling_y_with_four_times_lambda_scales_exactly(self):
        data, grams, tuning = relation_problem()
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

    def test_swapping_the_coordinates_transposes_the_modes(self):
        data, grams, tuning = relation_problem()
        swapped = FunctionalDataset([t[:, ::-1] for t in data.locations], data.values)
        grams_s = gram_factors(swapped, KernelSpec(), cap=4)
        cfg = replace(tuning["base"], lam=1e-5, beta=0.5, max_iters=500)
        fit = admm_fit(data, cross_products(data), grams, cfg)
        fit_s = admm_fit(swapped, cross_products(swapped), grams_s, cfg)
        assert fit.converged and fit.n_iters == fit_s.n_iters
        assert np.abs(fit.coeffs).max() > 0.0
        assert_rel(fit_s.coeffs, fit.coeffs.transpose(1, 0, 3, 2), rel=1e-12)
