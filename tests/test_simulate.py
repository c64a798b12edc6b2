"""Simulation settings, data generation, AISE, and the benchmark loop."""

import concurrent.futures
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import mfcov.simulate as simulate
from mfcov import solver
from mfcov.cli import _write_json
from mfcov.data import cross_products, gram_factors, make_folds
from mfcov.kernel import KernelSpec, basis_matrix
from mfcov.simulate import (COMPONENTS, FitProtocol, SimSetting, aise,
                            component_functions, generate, run_benchmark,
                            run_replication, save_table, true_covariance,
                            true_covariance_grid)
from mfcov.solver import FitConfig, admm_fit, cv_select

# small enough to keep the pipeline tests quick, still a real estimate
FAST = FitProtocol(lambda_grid=(1e-3,), beta_grid=(0.5,), gram_cap=3,
                   base=FitConfig(max_iters=150))


@pytest.fixture(scope="module")
def small_fit():
    """A real (if rough) estimate on a small setting-3 dataset."""
    setting = SimSetting(setting=3, n=20, m=8, sigma=0.1, seed=7)
    spec = KernelSpec()
    data = generate(setting)
    grams = gram_factors(data, spec, cap=5)
    cfg = FitConfig(lam=1e-3, beta=0.5, max_iters=400)
    fit = admm_fit(data, cross_products(data), grams, cfg)
    return setting, spec, fit


class TestSimSetting:
    def test_component_tables(self):
        s1 = SimSetting(setting=1)
        assert s1.components == COMPONENTS[1]
        assert len(s1.components) == 6
        assert s1.one_way_ranks == (3, 2)
        s2 = SimSetting(setting=2)
        assert len(s2.components) == 6
        assert s2.one_way_ranks == (4, 4)
        s3 = SimSetting(setting=3)
        assert len(s3.components) == 4
        assert s3.one_way_ranks == (4, 4)

    def test_eigenvalue_decay(self):
        np.testing.assert_allclose(
            SimSetting(setting=1).eigenvalues,
            [1.0, 1 / 4, 1 / 9, 1 / 16, 1 / 25, 1 / 36])
        assert SimSetting(setting=3).eigenvalues.shape == (4,)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown setting"):
            SimSetting(setting=4)
        with pytest.raises(ValueError, match="n must be"):
            SimSetting(n=0)
        with pytest.raises(ValueError, match="m must be"):
            SimSetting(m=1)
        for bad in (-0.1, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
                SimSetting(sigma=bad)
        with pytest.raises(ValueError, match="seed must be"):
            SimSetting(seed=-1)

    def test_spawn_key_coerced(self):
        s = SimSetting(spawn_key=[np.int64(3), 1])
        assert s.spawn_key == (3, 1)
        assert all(type(k) is int for k in s.spawn_key)


class TestTrueCovariance:
    def test_origin_value_setting_1(self):
        # every component is 2 at the origin, so the value is 4 sum 1/k^2
        val = true_covariance(SimSetting(setting=1), (0.0, 0.0), (0.0, 0.0))
        assert val == pytest.approx(4 * 5369 / 3600, rel=1e-12)

    def test_origin_value_setting_3(self):
        val = true_covariance(SimSetting(setting=3), (0.0, 0.0), (0.0, 0.0))
        assert val == pytest.approx(4 * 205 / 144, rel=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for sid in COMPONENTS:
            setting = SimSetting(setting=sid)
            for _ in range(10):
                s, t = rng.uniform(size=(2, 2))
                assert true_covariance(setting, s, t) == pytest.approx(
                    true_covariance(setting, t, s), rel=1e-12)

    def test_matches_direct_component_sum(self):
        rng = np.random.default_rng(1)
        for sid, pairs in COMPONENTS.items():
            setting = SimSetting(setting=sid)
            for _ in range(20):
                s, t = rng.uniform(size=(2, 2))
                direct = sum(
                    (1.0 / k**2)
                    * 2.0 * np.cos(i * np.pi * s[0]) * np.cos(j * np.pi * s[1])
                    * 2.0 * np.cos(i * np.pi * t[0]) * np.cos(j * np.pi * t[1])
                    for k, (i, j) in enumerate(pairs, start=1))
                assert true_covariance(setting, s, t) == pytest.approx(
                    direct, rel=1e-12)

    def test_point_validation(self):
        setting = SimSetting()
        with pytest.raises(ValueError, match="point"):
            true_covariance(setting, (0.5,), (0.5, 0.5))
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            true_covariance(setting, (1.2, 0.0), (0.5, 0.5))

    def test_grid_matches_pointwise(self):
        setting = SimSetting(setting=2)
        a1 = np.linspace(0.0, 1.0, 5)
        a2 = np.linspace(0.0, 1.0, 4)
        grid = true_covariance_grid(setting, [a1, a2])
        assert grid.shape == (5, 4, 5, 4)
        for a in range(5):
            for b in range(4):
                for c in range(5):
                    for d in range(4):
                        assert grid[a, b, c, d] == pytest.approx(
                            true_covariance(setting, (a1[a], a2[b]),
                                            (a1[c], a2[d])), abs=1e-12)

    def test_pairwise_gram_is_exact(self):
        # the generating expansion reproduces the population covariance on
        # any finite point set, without Monte Carlo
        rng = np.random.default_rng(2)
        for sid in COMPONENTS:
            setting = SimSetting(setting=sid)
            pts = rng.uniform(size=(40, 2))
            psi = component_functions(setting, pts)
            gram = (psi * setting.eigenvalues) @ psi.T
            direct = np.array([[true_covariance(setting, s, t) for t in pts]
                               for s in pts])
            np.testing.assert_allclose(gram, direct, atol=1e-12)


class TestGenerate:
    def test_deterministic(self):
        setting = SimSetting(setting=1, n=4, m=5, sigma=0.2, seed=42)
        a, b = generate(setting), generate(setting)
        for i in range(setting.n):
            assert np.array_equal(a.locations[i], b.locations[i])
            assert np.array_equal(a.values[i], b.values[i])

    def test_spawn_key_changes_stream(self):
        base = SimSetting(setting=1, n=3, m=4, seed=42)
        a = generate(base)
        b = generate(replace(base, spawn_key=(1,)))
        assert not np.array_equal(a.values[0], b.values[0])

    def test_shapes(self):
        data = generate(SimSetting(setting=2, n=6, m=9, seed=1))
        assert data.n == 6 and data.p == 2
        assert all(t.shape == (9, 2) for t in data.locations)
        assert all(y.shape == (9,) for y in data.values)

    def test_documented_draw_order(self):
        # locations, then scores, then noise, one subject at a time
        setting = SimSetting(setting=2, n=3, m=4, sigma=0.3, seed=11,
                             spawn_key=(5,))
        data = generate(setting)
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(5,)))
        root = np.sqrt(setting.eigenvalues)
        for i in range(setting.n):
            t = rng.uniform(size=(4, 2))
            zeta = rng.standard_normal(6)
            eps = rng.standard_normal(4)
            assert np.array_equal(data.locations[i], t)
            x = component_functions(setting, t) @ (root * zeta)
            assert np.array_equal(data.values[i], x + 0.3 * eps)

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("setting_id", [1, 2, 3])
    def test_matches_per_subject_oracle(self, setting_id, sigma):
        # one component evaluation over every pooled point gives, bit for
        # bit, the values of one evaluation per subject
        for n, m in ((20, 10), (7, 13)):
            setting = SimSetting(setting=setting_id, n=n, m=m, sigma=sigma,
                                 spawn_key=(2,))
            data = generate(setting)
            rng = setting.rng()
            root = np.sqrt(setting.eigenvalues)
            for t, y in zip(data.locations, data.values):
                want_t = rng.uniform(size=(m, 2))
                zeta = rng.standard_normal(root.size)
                eps = rng.standard_normal(m)
                want = component_functions(setting, want_t) @ (root * zeta) + sigma * eps
                assert t.tobytes() == want_t.tobytes()
                assert y.tobytes() == want.tobytes()

    def test_noise_variance(self):
        # same seed, sigma on vs off: the difference is exactly the scaled
        # noise, whose variance must sit at sigma^2 within Monte Carlo error
        n, m, sigma = 12500, 8, 0.4
        noisy = generate(SimSetting(setting=1, n=n, m=m, sigma=sigma, seed=3))
        clean = generate(SimSetting(setting=1, n=n, m=m, sigma=0.0, seed=3))
        assert np.array_equal(np.vstack(noisy.locations),
                              np.vstack(clean.locations))
        resid = np.concatenate(noisy.values) - np.concatenate(clean.values)
        sq = resid**2
        se = sq.std(ddof=1) / np.sqrt(sq.size)
        assert sq.size == 100_000
        assert abs(sq.mean() - sigma**2) < 3 * se

    def test_field_variance_matches_covariance(self):
        # scores drawn as in generate give the advertised pointwise variance
        setting = SimSetting(setting=1)
        t_star = np.array([0.35, 0.62])
        psi = component_functions(setting, [t_star]).ravel()
        zeta = np.random.default_rng(99).standard_normal((100_000, 6))
        x = zeta @ (np.sqrt(setting.eigenvalues) * psi)
        target = true_covariance(setting, t_star, t_star)
        se = np.std(x**2, ddof=1) / np.sqrt(x.size)
        assert abs(np.var(x) - target) < 3 * se


def coefficient_fit(setting, spec, offset=0.0):
    """The setting's covariance as a fit over the kernel's own cosine basis
    (identity coefficient maps), plus ``offset`` times e_0 (x) e_0 when the
    kernel has the constant e_0."""
    width = spec.truncation_order + spec.include_constant
    coeffs = np.zeros((width,) * 4)
    for lam, (i, j) in zip(setting.eigenvalues, setting.components):
        a, b = i - 1 + spec.include_constant, j - 1 + spec.include_constant
        coeffs[a, b, a, b] = lam
    coeffs[0, 0, 0, 0] += offset
    return SimpleNamespace(coeffs=coeffs,
                           grams=[SimpleNamespace(coef_map=np.eye(width))] * 2)


def simpson_aise(fit, spec, setting, g=81):
    """Composite Simpson quadrature of (fitted - true)^2 over a g^4 grid,
    from the factors' cosine maps, in row blocks of the (g^2, g^2) surface."""
    w = np.ones(g)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w /= 3.0 * (g - 1)
    ax = np.linspace(0.0, 1.0, g)
    pts = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    weights = np.outer(w, w).ravel()
    proj = [basis_matrix(spec, pts[:, k])[0] @ gf.coef_map.T
            for k, gf in enumerate(fit.grams)]
    rows = np.einsum("na,nb->nab", *proj).reshape(len(pts), -1)
    b_sq = fit.coeffs.reshape(rows.shape[1], -1)
    psi = component_functions(setting, pts)
    total = 0.0
    for block in np.array_split(np.arange(len(pts)), g):
        diff = rows[block] @ b_sq @ rows.T - (psi[block] * setting.eigenvalues) @ psi.T
        total += weights[block] @ (diff * diff) @ weights
    return float(total)


class TestAise:
    def test_exact_fit_scores_zero(self):
        setting, spec = SimSetting(setting=1), KernelSpec(truncation_order=5)
        assert abs(aise(coefficient_fit(setting, spec), spec, setting)) < 1e-15

    def test_constant_offset(self):
        setting = SimSetting(setting=1)
        spec = KernelSpec(truncation_order=5, include_constant=True)
        fit = coefficient_fit(setting, spec, offset=0.3)
        assert aise(fit, spec, setting) == pytest.approx(0.09, rel=1e-12)

    @pytest.mark.parametrize("setting, spec", [
        (SimSetting(setting=1, n=20, m=8, seed=7), KernelSpec(include_constant=True)),
        # setting 2's last components use e_4, past a truncation at 3
        (SimSetting(setting=2, n=20, m=8, seed=7), KernelSpec(truncation_order=3)),
    ], ids=["include-constant", "truncated-below-an-index"])
    def test_equals_a_fine_simpson_rule(self, setting, spec):
        data = generate(setting)
        grams = gram_factors(data, spec, cap=5)
        fit = admm_fit(data, cross_products(data), grams,
                       replace(solver.TUNING_BASE, lam=1e-5, max_iters=100))
        assert fit.coeffs.any()
        exact = aise(fit, spec, setting)
        assert exact == pytest.approx(simpson_aise(fit, spec, setting), rel=1e-10)

    def test_a_kernel_unlike_the_fits_is_refused(self, small_fit):
        setting, spec, fit = small_fit
        for other, width in ((replace(spec, truncation_order=49), 49),
                             (replace(spec, include_constant=True), 51)):
            with pytest.raises(ValueError) as err:
                aise(fit, other, setting)
            assert str(err.value) == (f"the kernel has {width} basis functions per "
                                      "dimension but the fit's coefficient maps have "
                                      "[50, 50]")

    def test_takes_no_quadrature_grid(self, small_fit):
        setting, spec, fit = small_fit
        assert FitProtocol.aise_grid is None and "aise_grid" not in FAST.to_dict()
        with pytest.raises(ValueError, match="exact and takes no quadrature grid, got 21"):
            aise(fit, spec, setting, 21)

    def test_monte_carlo_oracle(self, small_fit):
        # brute-force integration of (fitted - true)^2 at random points,
        # evaluating the coefficient basis through the factors' cosine maps
        setting, spec, fit = small_fit
        value = aise(fit, spec, setting)
        mats = [gf.coef_map.T for gf in fit.grams]
        b_sq = fit.coeff_square()
        lam = setting.eigenvalues
        rng = np.random.default_rng(2024)
        total = total_sq = 0.0
        n_chunks, chunk = 10, 100_000
        for _ in range(n_chunks):
            pts = rng.uniform(size=(chunk, 4))
            rows = []
            for pair in (pts[:, :2], pts[:, 2:]):
                proj = [basis_matrix(spec, pair[:, k])[0] @ mats[k]
                        for k in range(2)]
                rows.append(np.einsum("na,nb->nab", proj[0],
                                      proj[1]).reshape(chunk, -1))
            fitted = np.einsum("nA,AB,nB->n", rows[0], b_sq, rows[1],
                               optimize=True)
            truth = np.einsum("nk,k,nk->n",
                              component_functions(setting, pts[:, :2]), lam,
                              component_functions(setting, pts[:, 2:]))
            d2 = (fitted - truth) ** 2
            total += d2.sum()
            total_sq += (d2**2).sum()
        n_mc = n_chunks * chunk
        mean = total / n_mc
        var = (total_sq - n_mc * mean**2) / (n_mc - 1)
        se = np.sqrt(var / n_mc)
        assert se > 0.0
        assert abs(value - mean) < 3 * se


class TestProtocol:
    def test_defaults(self):
        proto = FitProtocol()
        assert proto.lambda_grid == tuple(np.logspace(-6.0, -4.0, 5))
        assert proto.beta_grid == (0.0, 0.5, 1.0)
        assert proto.base.eta == 1e-9
        assert not proto.is_fixed
        assert FAST.is_fixed

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            FitProtocol(lambda_grid=())
        with pytest.raises(ValueError, match="folds"):
            FitProtocol(n_folds=1)
        with pytest.raises(ValueError, match="gram cap"):
            FitProtocol(gram_cap=0)
        for tol in (-1.0, 1.0, 2.0, math.nan):
            with pytest.raises(ValueError, match=r"gram tol must be in \[0, 1\)"):
                FitProtocol(gram_tol=tol)

    @pytest.mark.parametrize("grids, message", [
        (((-1.0,), (0.5,)), "lam must be finite and nonnegative, got -1.0"),
        (((math.nan,), (0.5,)), "lam must be finite and nonnegative, got nan"),
        (((1e-5,), (2.0,)), "beta must lie in [0, 1]"),
    ])
    def test_grids_are_refused_as_cv_select_refuses_them(self, grids, message):
        data = generate(SimSetting(setting=1, n=10, m=4))
        grams = gram_factors(data, KernelSpec(), cap=2)
        with pytest.raises(ValueError) as cv_err:
            cv_select(data, grams, *grids)
        with pytest.raises(ValueError) as err:
            FitProtocol(lambda_grid=grids[0], beta_grid=grids[1])
        assert str(err.value) == str(cv_err.value) == message

    def test_dict_round_trip(self):
        proto = FitProtocol(lambda_grid=(0.1, 0.2), beta_grid=(0.5,),
                            gram_cap=4, kernel=KernelSpec(truncation_order=9),
                            base=FitConfig(lam=0.3, eta=2.0))
        d = proto.to_dict()
        assert json.loads(json.dumps(d)) == d
        # the grids set lambda and beta; the base records only the rest
        assert d["base"] == {"eta": 2.0, "max_iters": 500, "tol": 1e-6,
                             "rank_threshold": 1e-4}


def cv_steps(*args, **kwargs):
    """cv_select's return value, and the step it gave each lambda."""
    steps, iterate = {}, solver._iterate

    def spy(pre, configs):
        steps.update((c.lam, c.eta) for c in configs)
        return iterate(pre, configs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_iterate", spy)
        return cv_select(*args, **kwargs), steps


class TestScaledEta:
    """Cross-validation steps each lambda of its grid with eta proportional
    to lambda, anchored at the grid's median positive lambda."""

    @pytest.fixture(scope="class")
    def replication_cv(self):
        """Key (1, 0), m = 10: one replication's data, gram factors and CV."""
        proto = FitProtocol()
        data = generate(SimSetting(setting=1, n=100, m=10, sigma=0.1, spawn_key=(1, 0)))
        grams = gram_factors(data, proto.kernel, tol=proto.gram_tol, cap=proto.gram_cap)
        cv = cv_steps(data, grams, proto.lambda_grid, proto.beta_grid, base=proto.base,
                      folds=make_folds(data, proto.n_folds))
        return proto, data, grams, cv

    def test_eta_grid_scales_with_lambda(self, replication_cv):
        proto, _, _, ((chosen, _, _), steps) = replication_cv
        lam = np.array(proto.lambda_grid)
        median = float(np.median(lam))
        np.testing.assert_allclose([steps[x] for x in lam], 1e-9 * lam / 1e-5, rtol=1e-15)
        assert steps[median] == 1e-9 == proto.base.eta
        assert chosen.eta == proto.base.eta * (chosen.lam / median)

    @pytest.mark.parametrize("grid, etas", [
        ((3e-6,), (0.7,)),
        ((0.0,), (0.7,)),
        ((0.0, 1e-6, 1e-5, 1e-4), (0.7, 0.07, 0.7, 7.0)),   # lambda = 0 keeps base.eta
    ])
    def test_steps_of_small_grids(self, grid, etas):
        data = generate(SimSetting(setting=1, n=10, m=4))
        grams = gram_factors(data, KernelSpec(), cap=2)
        (chosen, _, _), steps = cv_steps(data, grams, grid, (0.5,), folds=make_folds(data, 2),
                                         base=FitConfig(eta=0.7, max_iters=2))
        np.testing.assert_allclose([steps[x] for x in grid], etas, rtol=1e-15)
        assert chosen.eta == steps[chosen.lam]

    def test_scaled_fits_sit_no_further_above_the_optimum(self, replication_cv):
        proto, data, grams, (_, steps) = replication_cv
        folds = make_folds(data, proto.n_folds, 0)
        pre = solver.precompute(data, cross_products(data), grams, folds=folds)
        system = pre.training(0)
        cells = [(lam, beta) for lam in (proto.lambda_grid[0], proto.lambda_grid[-1])
                 for beta in (0.0, 0.5, 1.0)]
        eta = [steps[lam] for lam, _ in cells]

        def stack(base, etas):
            return [replace(base, lam=lam, beta=beta, eta=e)
                    for (lam, beta), e in zip(cells, etas)]

        long = replace(proto.base, tol=1e-14, max_iters=20000)
        ref = [out.objective_value for out in solver._iterate(system, stack(long, eta))]

        def excess(outs):
            return np.median([(out.objective_value - r) / abs(r)
                              for out, r in zip(outs, ref)])

        fixed = solver._iterate(system, stack(proto.base, [proto.base.eta] * len(cells)))
        scaled = solver._iterate(system, stack(proto.base, eta))
        assert excess(scaled) <= excess(fixed)
        assert all(out.converged for out in fixed + scaled)

    def test_cv_iteration_budget(self, replication_cv):
        # the fixed eta needs 2,560 cell-iterations here, the scaled one 1,433
        *_, ((_, _, cells), _) = replication_cv
        assert cells.n_iters.sum() <= 1650


class TestBenchmark:
    SETTING = SimSetting(setting=3, n=8, m=5, sigma=0.2, seed=3)

    def test_reps_one_aggregate_equals_row(self):
        res = run_benchmark(self.SETTING, 1, FAST)
        assert len(res.rows) == 1 and not res.failures
        agg = res.aggregates()
        assert agg["reps"] == 1 and agg["failures"] == 0
        assert agg["aise_mean"] == res.rows[0]["aise"]
        assert agg["aise_se"] is None
        assert agg["rank_mean"] == res.rows[0]["rank"]

    def test_rerun_single_replication(self):
        res = run_benchmark(self.SETTING, 3, FAST)
        assert [row["rep"] for row in res.rows] == [0, 1, 2]
        redo = run_replication(replace(self.SETTING, spawn_key=(2,)), FAST)
        assert {k: v for k, v in res.rows[2].items() if k != "rep"} == redo

    def test_standard_error_formula(self):
        res = run_benchmark(self.SETTING, 3, FAST)
        vals = np.array([row["aise"] for row in res.rows])
        agg = res.aggregates()
        assert agg["aise_mean"] == pytest.approx(vals.mean(), rel=1e-15)
        assert agg["aise_se"] == pytest.approx(
            vals.std(ddof=1) / np.sqrt(3), rel=1e-15)

    def test_worker_pool_matches_sequential(self):
        seq = run_benchmark(self.SETTING, 3, FAST)
        par = run_benchmark(self.SETTING, 3, FAST, workers=2)
        assert par.rows == seq.rows
        assert par.failures == seq.failures

    def test_pool_has_no_more_workers_than_reps(self, monkeypatch):
        # the pool is replaced by an in-process fake: no process starts
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        res = run_benchmark(self.SETTING, 2, FAST, workers=5000)
        assert pools == [2]
        assert res.rows == run_benchmark(self.SETTING, 2, FAST).rows

    def test_failures_recorded(self, monkeypatch):
        real = simulate.run_replication

        def flaky(setting, protocol=None):
            if setting.spawn_key[-1] == 1:
                raise RuntimeError("synthetic failure")
            return real(setting, protocol)

        monkeypatch.setattr(simulate, "run_replication", flaky)
        res = run_benchmark(self.SETTING, 3, FAST)
        assert [row["rep"] for row in res.rows] == [0, 2]
        assert res.failures == [
            {"rep": 1, "error": "RuntimeError: synthetic failure"}]
        agg = res.aggregates()
        assert agg["reps"] == 2 and agg["failures"] == 1
        json.dumps(res.as_dict(), allow_nan=False)

    def test_a_cap_past_the_dense_limit_fails_every_replication(self):
        # the settings are two-dimensional: cap 8 gives Q = 64, which the
        # loss system refuses
        res = run_benchmark(self.SETTING, 2, FitProtocol(gram_cap=8))
        assert res.rows == []
        assert res.failures == [{"rep": rep, "error": (
            "ValueError: the retained ranks (8, 8) give Q = 64, over the dense solver's "
            "limit Q <= 50; use --gram-cap 7 or lower at p = 2")} for rep in (0, 1)]

    def test_reps_validation(self):
        with pytest.raises(ValueError, match="reps"):
            run_benchmark(self.SETTING, 0, FAST)

    def test_cv_selection_stays_on_grid(self):
        proto = replace(FAST, lambda_grid=(1e-3, 1e-1), beta_grid=(0.25, 0.75))
        res = run_benchmark(self.SETTING, 1, proto)
        row = res.rows[0]
        assert row["lambda"] in proto.lambda_grid
        assert row["beta"] in proto.beta_grid

    @pytest.mark.parametrize("grids", [((1e-3,), (0.5,)), ((1e-3, 1e-1), (0.0, 1.0))])
    def test_a_replication_builds_one_loss_system(self, monkeypatch, grids):
        built, fitted = [], []
        make, fit = simulate.precompute, simulate.admm_fit

        def spy_make(*args, **kwargs):
            built.append(make(*args, **kwargs))
            return built[-1]

        def spy_fit(*args, pre=None, **kwargs):
            fitted.append(pre)
            return fit(*args, pre=pre, **kwargs)

        monkeypatch.setattr(simulate, "precompute", spy_make)
        monkeypatch.setattr(simulate, "admm_fit", spy_fit)
        monkeypatch.setattr(solver, "precompute", None)   # cv_select builds none
        proto = replace(FAST, lambda_grid=grids[0], beta_grid=grids[1], n_folds=2)
        run_replication(self.SETTING, proto)
        assert len(built) == 1 and fitted == built
        assert (built[0].folds is None) == proto.is_fixed

    def test_serialization(self, tmp_path):
        res = run_benchmark(self.SETTING, 2, FAST)
        jpath = tmp_path / "result.json"
        _write_json(jpath, res.as_dict())
        loaded = json.loads(jpath.read_text())
        assert loaded["setting"]["setting"] == 3
        assert len(loaded["rows"]) == 2
        assert loaded["aggregates"] == res.aggregates()
        cpath = tmp_path / "table.csv"
        save_table(res, cpath)
        header, row = cpath.read_text().strip().splitlines()
        assert header.split(",") == ["setting", "n", "m", "sigma", "reps",
                                     "failures", "AISE (SE)", "R", "r1", "r2"]
        fields = row.split(",")
        assert fields[0] == "3" and fields[4] == "2" and fields[5] == "0"
