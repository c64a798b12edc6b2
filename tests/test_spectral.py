import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import subspace_angles

from mfcov.data import FunctionalDataset, cross_products, gram_factors
from mfcov.kernel import GramFactor, KernelSpec, peak_signs
from mfcov.simulate import SimSetting, generate
from mfcov.solver import CovarianceFit, FitConfig, admm_fit, precompute
from mfcov.spectral import (
    evaluate_cov,
    evaluate_on_grid,
    l2_eigensystem,
    marginal_basis,
    reconstruct_on_grid,
)
from mfcov.tensor import square_fold

# Truncation 19 keeps every basis-product frequency below the first aliased
# mode of 41-point composite Simpson (cos(40*pi*t)), so the tensor-grid
# quadrature oracles below are exact to roundoff rather than approximate.
SPEC = KernelSpec(truncation_order=19)


def kernel_problem(p=1, n=6, m=5, seed=0, cap=4):
    """Dataset plus kernel-derived (location-aware) gram factors."""
    rng = np.random.default_rng(seed)
    locs = [rng.uniform(size=(m, p)) for _ in range(n)]
    vals = [rng.standard_normal(m) for _ in range(n)]
    data = FunctionalDataset(locs, vals)
    return data, gram_factors(data, SPEC, cap=cap)


def cov_fit(grams, seed=0, rank=None, decay=0.6):
    """CovarianceFit with handpicked PSD coefficients over the given factors.

    Spectral post-processing is a pure transform of the coefficients, so the
    tests construct them directly instead of running the solver.  ``decay``
    tapers the factor columns to give the spectrum a realistic profile.
    """
    dims = tuple(gf.retained_rank for gf in grams)
    q = int(np.prod(dims))
    r = q if rank is None else rank
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((q, r)) * decay ** np.arange(r)
    b_sq = g @ g.T
    return CovarianceFit(
        coeffs=square_fold(b_sq, dims + dims), config=FitConfig(),
        grams=list(grams), converged=True, n_iters=1, objective_value=0.0,
        primal_residuals=np.zeros(1))


def zero_fit(grams):
    dims = tuple(gf.retained_rank for gf in grams)
    fit = cov_fit(grams)
    fit.coeffs = np.zeros(dims + dims)
    return fit


def simpson2(values, ax):
    """Iterated Simpson rule over a 2-D tensor-product grid."""
    return simpson(simpson(values, x=ax, axis=-1), x=ax)


class TestEvaluateCov:
    def test_zero_coefficients_vanish(self):
        _, grams = kernel_problem(p=2, n=4, m=4, seed=1, cap=2)
        fit = zero_fit(grams)
        rng = np.random.default_rng(2)
        for _ in range(10):
            s, t = rng.uniform(size=2)[:, None] * np.ones(2)
            assert evaluate_cov(fit, SPEC, s, t) == 0.0
        grid = evaluate_on_grid(fit, SPEC, [np.linspace(0, 1, 4)] * 2)
        assert np.all(grid == 0.0)

    def test_symmetric_in_arguments(self):
        _, grams = kernel_problem(p=2, n=4, m=4, seed=3, cap=3)
        fit = cov_fit(grams, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = rng.uniform(size=2)
            t = rng.uniform(size=2)
            d = evaluate_cov(fit, SPEC, s, t) - evaluate_cov(fit, SPEC, t, s)
            assert abs(d) <= 1e-10

    def test_matches_training_row_contraction(self):
        data, grams = kernel_problem(p=2, n=4, m=4, seed=6, cap=3)
        pre = precompute(data, cross_products(data), grams)
        fit = cov_fit(grams, seed=7)
        b_sq = fit.coeff_square()
        for i in range(2):
            pts = data.locations[i]
            rows = pre.L[i]
            for j in range(pts.shape[0]):
                for jp in range(pts.shape[0]):
                    expect = rows[j] @ b_sq @ rows[jp]
                    got = evaluate_cov(fit, SPEC, pts[j], pts[jp])
                    assert abs(got - expect) <= 1e-10

    def test_out_of_cube_rejected(self):
        _, grams = kernel_problem(p=1, n=3, m=4, seed=8, cap=2)
        fit = cov_fit(grams, seed=9)
        with pytest.raises(ValueError):
            evaluate_cov(fit, SPEC, [1.5], [0.5])
        with pytest.raises(ValueError):
            evaluate_cov(fit, SPEC, [0.5], [-0.1])
        with pytest.raises(ValueError):
            evaluate_on_grid(fit, SPEC, [np.array([0.0, 2.0])])

    def test_wrong_point_shape_rejected(self):
        _, grams = kernel_problem(p=2, n=3, m=4, seed=10, cap=2)
        fit = cov_fit(grams, seed=11)
        with pytest.raises(ValueError, match="point"):
            evaluate_cov(fit, SPEC, [0.5], [0.5, 0.5])

    def test_missing_coef_map_rejected(self):
        rng = np.random.default_rng(12)
        bare = GramFactor(factor=rng.standard_normal((8, 2)), retained_rank=2)
        fit = cov_fit([bare], seed=13)
        with pytest.raises(ValueError, match="coefficient map"):
            evaluate_cov(fit, SPEC, [0.5], [0.5])

    def test_grid_matches_pointwise(self):
        _, grams = kernel_problem(p=2, n=4, m=3, seed=14, cap=2)
        fit = cov_fit(grams, seed=15)
        ax1 = np.linspace(0.1, 0.9, 4)
        ax2 = np.linspace(0.0, 1.0, 3)
        grid = evaluate_on_grid(fit, SPEC, [ax1, ax2])
        for i1 in range(4):
            for i2 in range(3):
                for j1 in range(4):
                    for j2 in range(3):
                        want = evaluate_cov(fit, SPEC,
                                            [ax1[i1], ax2[i2]],
                                            [ax1[j1], ax2[j2]])
                        assert grid[i1, i2, j1, j2] == pytest.approx(
                            want, abs=1e-12)


class TestL2EigenSystem:
    def test_zero_fit_empty_spectrum(self):
        _, grams = kernel_problem(p=2, n=4, m=4, seed=16, cap=2)
        eig = l2_eigensystem(zero_fit(grams), SPEC)
        assert len(eig) == 0
        assert eig.fraction_of_variation.size == 0

    def test_descending_positive_and_fve(self):
        _, grams = kernel_problem(p=2, n=5, m=4, seed=17, cap=3)
        eig = l2_eigensystem(cov_fit(grams, seed=18), SPEC)
        w = eig.eigenvalues
        assert w.size > 0
        assert np.all(w > 0)
        assert np.all(np.diff(w) <= 0)
        fve = eig.fraction_of_variation
        assert np.all(np.diff(fve) >= 0)
        assert fve[-1] == pytest.approx(1.0, abs=1e-12)

    def test_count_matches_construction_rank(self):
        _, grams = kernel_problem(p=2, n=5, m=4, seed=19, cap=3)
        eig = l2_eigensystem(cov_fit(grams, seed=20, rank=3), SPEC)
        assert len(eig) == 3

    def test_trace_identity_p1(self):
        _, grams = kernel_problem(p=1, n=6, m=5, seed=21, cap=4)
        fit = cov_fit(grams, seed=22)
        eig = l2_eigensystem(fit, SPEC)
        ax = np.linspace(0.0, 1.0, 2001)
        diag = np.einsum("ii->i", evaluate_on_grid(fit, SPEC, [ax]))
        integral = simpson(diag, x=ax)
        assert eig.eigenvalues.sum() == pytest.approx(integral, rel=1e-6)

    def test_trace_identity_p2(self):
        _, grams = kernel_problem(p=2, n=5, m=4, seed=23, cap=3)
        fit = cov_fit(grams, seed=24)
        eig = l2_eigensystem(fit, SPEC)
        ax = np.linspace(0.0, 1.0, 41)
        grid = evaluate_on_grid(fit, SPEC, [ax, ax])
        diag = np.einsum("ijij->ij", grid)
        integral = simpson2(diag, ax)
        assert eig.eigenvalues.sum() == pytest.approx(integral, rel=1e-6)

    def test_eigenfunctions_orthonormal_p2(self):
        _, grams = kernel_problem(p=2, n=5, m=4, seed=25, cap=3)
        eig = l2_eigensystem(cov_fit(grams, seed=26), SPEC)
        ax = np.linspace(0.0, 1.0, 41)
        top = min(5, len(eig))
        funcs = [eig.eigenfunction_grid(l, [ax, ax]) for l in range(top)]
        for a in range(top):
            for b in range(a, top):
                integral = simpson2(funcs[a] * funcs[b], ax)
                assert abs(integral - (1.0 if a == b else 0.0)) <= 1e-6

    def test_reconstruction_matches_evaluation(self):
        _, grams = kernel_problem(p=2, n=5, m=4, seed=27, cap=3)
        fit = cov_fit(grams, seed=28)
        eig = l2_eigensystem(fit, SPEC)
        ax = np.linspace(0.0, 1.0, 11)
        direct = evaluate_on_grid(fit, SPEC, [ax, ax])
        rebuilt = reconstruct_on_grid(eig, [ax, ax])
        assert np.abs(rebuilt - direct).max() < 1e-8

    def test_single_component_is_rank_one(self):
        _, grams = kernel_problem(p=2, n=5, m=4, seed=29, cap=2)
        eig = l2_eigensystem(cov_fit(grams, seed=30), SPEC)
        ax = np.linspace(0.0, 1.0, 7)
        f0 = eig.eigenfunction_grid(0, [ax, ax])
        want = eig.eigenvalues[0] * np.multiply.outer(f0, f0)
        got = reconstruct_on_grid(eig, [ax, ax], n_components=1)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_truncation_at_99_percent_fve(self):
        _, grams = kernel_problem(p=2, n=5, m=4, seed=31, cap=3)
        fit = cov_fit(grams, seed=32, decay=0.4)
        eig = l2_eigensystem(fit, SPEC)
        r99 = int(np.searchsorted(eig.fraction_of_variation, 0.99)) + 1
        ax = np.linspace(0.0, 1.0, 21)
        full = evaluate_on_grid(fit, SPEC, [ax, ax])
        trunc = reconstruct_on_grid(eig, [ax, ax], n_components=r99)
        err = np.sqrt(((full - trunc) ** 2).sum() / (full ** 2).sum())
        assert err <= 0.01 + 1e-3

    def test_section_coefficients_reproduce_values(self):
        _, grams = kernel_problem(p=2, n=4, m=3, seed=33, cap=2)
        eig = l2_eigensystem(cov_fit(grams, seed=34), SPEC)
        u = eig.section_coefficients(0)
        ax = np.linspace(0.05, 0.95, 3)
        vals = eig.eigenfunction_grid(0, [ax, ax])
        k = np.arange(1, SPEC.truncation_order + 1)
        e = np.sqrt(2.0) * np.cos(np.pi * np.outer(ax, k))
        for i in range(ax.size):
            for j in range(ax.size):
                assert u @ np.kron(e[i], e[j]) == pytest.approx(
                    vals[i, j], abs=1e-10)


class TestMarginalBasis:
    def test_p1_matches_eigensystem(self):
        _, grams = kernel_problem(p=1, n=6, m=5, seed=37, cap=4)
        fit = cov_fit(grams, seed=38)
        eig = l2_eigensystem(fit, SPEC)
        mb = marginal_basis(fit, SPEC, 0)
        np.testing.assert_allclose(mb.singular_values, eig.eigenvalues,
                                   rtol=1e-10)
        angles = subspace_angles(mb.vectors, eig.vectors)
        assert angles.max() < 1e-6

    def test_basis_orthonormal(self):
        _, grams = kernel_problem(p=2, n=5, m=4, seed=39, cap=3)
        fit = cov_fit(grams, seed=40)
        ax = np.linspace(0.0, 1.0, 2001)
        for k in range(2):
            mb = marginal_basis(fit, SPEC, k)
            vals = mb.basis_grid(ax)
            for a in range(len(mb)):
                for b in range(a, len(mb)):
                    integral = simpson(vals[:, a] * vals[:, b], x=ax)
                    assert abs(integral - (1.0 if a == b else 0.0)) <= 1e-6

    def test_zero_fit_empty_basis(self):
        _, grams = kernel_problem(p=2, n=4, m=4, seed=41, cap=2)
        mb = marginal_basis(zero_fit(grams), SPEC, 1)
        assert len(mb) == 0

    def test_dimension_out_of_range(self):
        _, grams = kernel_problem(p=2, n=4, m=4, seed=42, cap=2)
        fit = cov_fit(grams, seed=43)
        with pytest.raises(ValueError):
            marginal_basis(fit, SPEC, 2)
        with pytest.raises(ValueError):
            marginal_basis(fit, SPEC, -1)

    def test_counts_follow_one_way_structure(self):
        # mode-0 rank 2 by construction: coefficients U (x) I with U rank 2
        _, grams = kernel_problem(p=2, n=5, m=5, seed=44, cap=3)
        dims = tuple(gf.retained_rank for gf in grams)
        rng = np.random.default_rng(45)
        u = rng.standard_normal((dims[0], 2))
        core = rng.standard_normal((2 * dims[1], 2 * dims[1]))
        b_small = core @ core.T
        big = np.kron(u, np.eye(dims[1]))
        b_sq = big @ b_small @ big.T
        fit = cov_fit(grams, seed=46)
        fit.coeffs = square_fold(b_sq, dims + dims)
        assert len(marginal_basis(fit, SPEC, 0)) == 2
        assert len(marginal_basis(fit, SPEC, 1)) == dims[1]


class TestCanonicalSigns:
    def test_largest_cosine_coefficient_is_positive(self):
        # data shaped like the CLI benchmark's: n = 20, m = 10, gram cap 12
        # (Q = 144), and the cell its cross-validation selects
        data = generate(SimSetting(setting=1, n=20, m=10, spawn_key=(1, 0)))
        spec = KernelSpec()
        grams = gram_factors(data, spec, cap=12)
        fit = admm_fit(data, cross_products(data), grams,
                       FitConfig(lam=6.8e-5, beta=0.0, max_iters=25))
        eig = l2_eigensystem(fit, spec)
        assert len(eig) > 0
        sections = np.stack([eig.section_coefficients(l) for l in range(len(eig))], axis=1)
        assert (peak_signs(sections) == 1.0).all()
        for k in range(2):
            mb = marginal_basis(fit, spec, k)
            assert len(mb) > 0
            assert (peak_signs(mb.map.T @ mb.vectors) == 1.0).all()

    def test_exports_ignore_the_signs_of_the_factor_basis(self):
        # negating factor columns changes the coefficients, not the surface,
        # so neither the eigenfunctions nor the marginal functions move
        _, grams = kernel_problem(p=2, n=5, m=4, seed=35, cap=3)
        fit = cov_fit(grams, seed=36)
        flip = np.array([-1.0, 1.0, -1.0])
        flipped = cov_fit([GramFactor(factor=grams[0].factor * flip, retained_rank=3,
                                      coef_map=grams[0].coef_map * flip[:, None]),
                           grams[1]])
        flipped.coeffs = fit.coeffs * flip[:, None, None, None] * flip[None, None, :, None]
        ax = np.linspace(0.0, 1.0, 7)
        eig, eig_f = l2_eigensystem(fit, SPEC), l2_eigensystem(flipped, SPEC)
        assert len(eig) == len(eig_f) > 1
        for l in range(len(eig)):
            np.testing.assert_allclose(eig_f.eigenfunction_grid(l, [ax, ax]),
                                       eig.eigenfunction_grid(l, [ax, ax]), atol=1e-10)
        for k in range(2):
            np.testing.assert_allclose(marginal_basis(flipped, SPEC, k).basis_grid(ax),
                                       marginal_basis(fit, SPEC, k).basis_grid(ax),
                                       atol=1e-10)


class TestGridAxes:
    @pytest.mark.parametrize("count", [1, 3])
    def test_axis_count_must_match_p(self, count):
        _, grams = kernel_problem(p=2, n=4, m=4, seed=47, cap=2)
        fit = cov_fit(grams, seed=48)
        eig = l2_eigensystem(fit, SPEC)
        axes = [np.linspace(0.0, 1.0, 5)] * count
        for evaluate in (lambda: eig.eigenfunction_grid(0, axes),
                         lambda: evaluate_on_grid(fit, SPEC, axes),
                         lambda: reconstruct_on_grid(eig, axes)):
            with pytest.raises(ValueError, match=f"expected 2 axes, got {count}"):
                evaluate()


class TestThreeDimensions:
    """p = 3 tells a contraction stride of p from a stride of 2."""

    AXES = [np.linspace(0.1, 0.9, 3), np.array([0.0, 1.0]), np.array([0.3, 0.6])]

    @pytest.fixture(scope="class")
    def fit(self):
        _, grams = kernel_problem(p=3, n=6, m=5, seed=49, cap=2)
        assert [gf.retained_rank for gf in grams] == [2, 2, 2]
        return cov_fit(grams, seed=50)

    def test_grid_matches_pointwise(self, fit):
        grid = evaluate_on_grid(fit, SPEC, self.AXES)
        shape = tuple(ax.size for ax in self.AXES)
        assert grid.shape == shape + shape
        for i in np.ndindex(shape):
            s = [ax[a] for ax, a in zip(self.AXES, i)]
            for j in np.ndindex(shape):
                t = [ax[b] for ax, b in zip(self.AXES, j)]
                assert grid[i + j] == pytest.approx(evaluate_cov(fit, SPEC, s, t),
                                                    abs=1e-12)

    def test_eigenfunctions_match_section_coefficients(self, fit):
        eig = l2_eigensystem(fit, SPEC)
        k = np.arange(1, SPEC.truncation_order + 1)
        e = [np.sqrt(2.0) * np.cos(np.pi * np.outer(ax, k)) for ax in self.AXES]
        for l in range(min(3, len(eig))):
            u = eig.section_coefficients(l)
            vals = eig.eigenfunction_grid(l, self.AXES)
            for i in np.ndindex(vals.shape):
                row = np.kron(np.kron(e[0][i[0]], e[1][i[1]]), e[2][i[2]])
                assert u @ row == pytest.approx(vals[i], abs=1e-10)
