import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from mfcov import solver
from mfcov.data import FunctionalDataset, cross_products, make_folds
from mfcov.kernel import GramFactor
from mfcov.solver import (
    CovarianceFit,
    FitConfig,
    FitState,
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
        rng = np.random.default_rng(4)
        q = 4
        pk = SymPacking(q)
        m = rng.standard_normal((q * q, q * q))
        g = m @ m.T
        g_sym = pk.pack_operator(g)
        for _ in range(10):
            a = rng.standard_normal((q, q))
            sym = (a + a.T) / 2
            lhs = pk.pack(sym) @ g_sym @ pk.pack(sym)
            rhs = sym.ravel() @ g @ sym.ravel()
            assert lhs == pytest.approx(rhs, rel=1e-12)


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


def g_oracle(pre, subjects):
    """Sum of u_i (kron(C_i, C_i) - W_i^T W_i), subject by subject."""
    total = 0.0
    for i in subjects:
        li = pre.L[i]
        c = li.T @ li
        w = np.stack([np.kron(row, row) for row in li])
        total = total + pre.u[i] * (np.kron(c, c) - w.T @ w)
    return total


class TestBatchedG:
    # 30 pooled rows exceed Q^2 = 9 and 16 for (p, q) = (1, 3) and (2, 2),
    # not Q^2 = 81 for (2, 3); the Q^2/4-row blocks split all three
    @pytest.mark.parametrize("p,q", [(1, 3), (2, 2), (2, 3)])
    def test_matches_per_subject_kron(self, p, q):
        rng = np.random.default_rng(40 + 3 * p + q)
        counts = [2, 3, 6, 4, 2, 5, 3, 5]
        locs = [rng.uniform(size=(m, p)) for m in counts]
        vals = [rng.standard_normal(m) for m in counts]
        data = FunctionalDataset(locs, vals)
        grams = synthetic_grams(rng, sum(counts), [q] * p)
        folds = make_folds(data, 3, 0)
        pre = precompute(data, cross_products(data), grams, folds=folds)
        assert pre.dense
        n_rows = sum(counts)
        assert (n_rows > pre.q_total ** 2) == (q ** p < 9)
        scale = np.abs(pre.G).max()
        np.testing.assert_allclose(pre.G, g_oracle(pre, range(data.n)) / data.n,
                                   rtol=0, atol=1e-13 * scale)
        for f in range(folds.n_folds):
            oracle = g_oracle(pre, folds.valid_subjects(f))
            np.testing.assert_allclose(pre.G_fold[f], oracle,
                                       rtol=0, atol=1e-13 * data.n * scale)
        plain = precompute(data, cross_products(data), grams)
        np.testing.assert_allclose(plain.G, pre.G, rtol=0, atol=1e-13 * scale)


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
        # but with beta=0 the PSD indicator is inactive
        assert np.isfinite(objective(b, pre, FitConfig(lam=0.1, beta=0.0)))

    def test_asymmetric_square_unfolding_is_infeasible(self):
        data, cross, grams, pre = make_problem(p=1, n=4, m=3, q=3)
        b = np.diag([1.0, 0.5, 0.2])
        b[0, 1] = 0.3
        assert objective(b, pre, FitConfig(lam=0.1, beta=0.5)) == float("inf")

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
        assert objective(fit.coeffs, pre, cfg) == pytest.approx(
            fit.objective_value, abs=1e-9)

    def test_dominating_penalty_annihilates(self):
        data, cross, grams, pre = make_problem(p=1, n=5, m=4, q=3)
        fit = admm_fit(data, cross, grams, FitConfig(lam=1e6, beta=0.5), pre=pre)
        assert np.linalg.norm(fit.coeffs) < 1e-6

    def test_iterates_stay_symmetric_and_stationary(self):
        data, cross, grams, pre = make_problem(
            p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
        cfg = FitConfig(lam=0.05, beta=0.5)
        fit = admm_fit(data, cross, grams, cfg, pre=pre, track=True)
        assert np.linalg.norm(fit.coeffs) > 1e-3  # one-way prox engaged
        assert fit.max_skew <= 1e-10
        assert fit.stationarity.max() <= 1e-8 * np.linalg.norm(pre.h)
        b_sq = fit.coeff_square()
        w = np.linalg.eigvalsh(b_sq)
        assert w.min() >= -1e-10 * max(w.max(), 1e-300)
        assert np.all(np.isfinite(fit.objective_trace))

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
        data, cross, grams, pre = make_problem(
            p=1, n=6, m=5, q=3, seed=15, model_scale=1.5, noise=0.3)
        cfg = FitConfig(lam=0.05, beta=0.5, tol=1e-10, max_iters=3000)
        fit = admm_fit(data, cross, grams, cfg, pre=pre)
        assert fit.converged
        best = objective(fit.coeffs, pre, cfg)
        slack = 1e-6 * (1.0 + abs(best))
        assert best <= objective(np.zeros_like(fit.coeffs), pre, cfg) + slack
        rng = np.random.default_rng(16)
        for _ in range(200):
            cand = prox_psd(
                fit.coeffs + 0.05 * rng.standard_normal(fit.coeffs.shape), 0.0)
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

    def test_dense_and_matrix_free_agree(self):
        data, cross, grams, _ = make_problem(
            p=2, n=4, m=4, q=2, seed=19, model_scale=1.5, noise=0.2)
        cfg = FitConfig(lam=0.03, beta=0.5)
        pre_d = precompute(data, cross, grams, dense=True)
        pre_m = precompute(data, cross, grams, dense=False)
        assert pre_m.G is None
        fit_d = admm_fit(data, cross, grams, cfg, pre=pre_d)
        fit_m = admm_fit(data, cross, grams, cfg, pre=pre_m)
        np.testing.assert_allclose(fit_m.coeffs, fit_d.coeffs, atol=1e-8)
        assert fit_m.objective_value == pytest.approx(fit_d.objective_value, abs=1e-9)

    def test_warm_start_resumes(self):
        data, cross, grams, pre = make_problem(
            p=1, n=5, m=4, q=3, seed=20, model_scale=1.5, noise=0.2)
        cfg = FitConfig(lam=0.01, beta=0.5, tol=1e-10, max_iters=3000)
        fit = admm_fit(data, cross, grams, cfg, pre=pre)
        assert fit.converged and fit.n_iters > 3
        # restarting from the full final state is (nearly) a fixed point
        refit = admm_fit(data, cross, grams, cfg, pre=pre, initial=fit.state)
        assert refit.converged
        assert refit.n_iters <= 3
        assert refit.objective_value == pytest.approx(fit.objective_value,
                                                      abs=1e-8)
        # and an asymmetric initial B is rejected up front
        bad = FitState(B=np.triu(np.ones((3, 3))),
                       D=fit.state.D, V=fit.state.V)
        with pytest.raises(ValueError, match="symmetric"):
            admm_fit(data, cross, grams, cfg, pre=pre, initial=bad)

    def test_adaptive_eta_reaches_same_objective(self):
        data, cross, grams, pre = make_problem(
            p=1, n=5, m=4, q=3, seed=21, model_scale=1.5, noise=0.2)
        base = FitConfig(lam=0.01, beta=0.5, tol=1e-10, max_iters=4000)
        fit = admm_fit(data, cross, grams, base, pre=pre)
        fit_a = admm_fit(data, cross, grams,
                         FitConfig(lam=0.01, beta=0.5, tol=1e-10, max_iters=4000,
                                   adaptive_eta=True),
                         pre=pre)
        assert fit_a.objective_value == pytest.approx(fit.objective_value, abs=1e-6)

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
        roundtrip = FitConfig.from_dict(FitConfig(lam=0.2, beta=0.75).to_dict())
        assert roundtrip == FitConfig(lam=0.2, beta=0.75)


STACK_CONFIGS = [
    FitConfig(lam=0.05, beta=0.0, tol=1e-9, max_iters=2000),
    FitConfig(lam=0.05, beta=0.5, tol=1e-9, max_iters=2000),
    FitConfig(lam=0.05, beta=1.0, tol=1e-9, max_iters=2000),
    FitConfig(lam=1e6, beta=0.5),                       # annihilates the fit
    FitConfig(lam=0.05, beta=0.5, max_iters=3),         # stops at the cap
    FitConfig(lam=0.01, beta=0.25, eta=10.0, tol=1e-10, max_iters=2000,
              adaptive_eta=True),
]


class TestStackedAdmm:
    @pytest.mark.parametrize("dense", [True, False])
    def test_cells_match_single_cell_runs(self, dense):
        data, cross, grams, _ = make_problem(
            p=2, n=6, m=5, q=2, seed=13, model_scale=1.5, noise=0.2)
        pre = precompute(data, cross, grams, dense=dense)
        system = solver._System(pre, None, g_sym=pre.G_sym)
        stacked = solver._iterate(system, pre, STACK_CONFIGS)
        for cfg, out in zip(STACK_CONFIGS, stacked):
            single = admm_fit(data, cross, grams, cfg, pre=pre)
            assert out["n_iters"] == single.n_iters
            assert out["converged"] == single.converged
            assert out["eta_final"] == single.eta_final
            ref = np.linalg.norm(single.coeffs)
            assert np.linalg.norm(out["coeffs"] - single.coeffs) <= 1e-12 * ref
        n_iters = [out["n_iters"] for out in stacked]
        assert n_iters[4] == 3 and not stacked[4]["converged"]
        assert np.linalg.norm(stacked[3]["coeffs"]) == 0.0
        assert min(n_iters[:3]) > 10 and len(set(n_iters)) > 3
        assert stacked[5]["eta_final"] != STACK_CONFIGS[5].eta


def synthetic_fit(coeffs, threshold=1e-8):
    return CovarianceFit(
        coeffs=coeffs, config=FitConfig(rank_threshold=threshold), grams=[],
        converged=True, n_iters=1, objective_value=0.0,
        primal_residuals=np.zeros(1), objective_trace=np.zeros(1), eta_final=1.0)


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

    def test_unconverged_cells_are_reported(self):
        data, cross, grams, _ = make_problem(
            p=1, n=6, m=4, q=2, seed=31, model_scale=1.5, noise=0.2)
        grid = ([1e-3, 1e9], [0.5])
        _, _, capped = cv_select(data, grams, *grid, n_folds=3,
                                 base=FitConfig(max_iters=4, tol=1e-12))
        assert capped.n_iters.shape == (2, 1)
        assert (capped.n_iters == 12).all()
        assert (capped.unconverged_folds == 3).all()
        _, _, free = cv_select(data, grams, *grid, n_folds=3,
                               base=FitConfig(tol=1e-12))
        assert (free.n_iters > 12).all()
        assert (free.unconverged_folds == 0).all()

    def test_empty_grid_rejected(self):
        data, cross, grams, _ = make_problem(p=1, n=6, m=4, q=2, seed=29)
        with pytest.raises(ValueError):
            cv_select(data, grams, [], [0.5])
