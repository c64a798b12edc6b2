"""Spectral post-processing of fitted covariances.

The fitted coefficient tensor lives in per-dimension bases tied to the
kernel gram factors, which are not L2-orthonormal.  Each factor carries a
q_k x T map C_k from the cosine basis e = (e_1, ..., e_T) of its kernel
(``kernel.basis_matrix``) to its coefficient basis: coefficient function a
of dimension k is x -> C_k[a] . e(x).  This module evaluates the fitted
surface at arbitrary points of the unit cube through those maps and
re-expresses the coefficients in per-dimension L2-orthonormal bases, from
which honest L2 eigenvalues, eigenfunctions, and marginal bases follow.

The transform: with the thin QR C_k^T = Q_k R_k, the functions Q_k^T e are
L2-orthonormal and coefficient function a is sum_j R_k[j, a] (Q_k^T e)_j.
So the square unfolding B^L = (R_1 (x) ... (x) R_p) B ((x)_k R_k)^T has the
L2 eigenvalues of the fitted surface, and eigenvectors map back to functions
through A_k = Q_k^T applied to e.  Nothing is inverted, so a rank-deficient
C_k needs no floor.

Each eigenvector and marginal vector is signed so that its function's
peak cosine coefficient is positive (``kernel.peak_signs``, the rule of
``factor_kernel``), so exports depend neither on the orthonormalization nor
on the LAPACK build.
"""

from dataclasses import dataclass

import numpy as np

from .kernel import basis_matrix, check_point, peak_signs
from .tensor import n_mode_product, one_way_unfold, square_fold, square_unfold

__all__ = [
    "L2EigenSystem",
    "MarginalBasis",
    "evaluate_cov",
    "evaluate_on_grid",
    "l2_eigensystem",
    "l2_transform",
    "marginal_basis",
    "reconstruct_on_grid",
]

#: Relative cutoff under which transformed eigenvalues / singular values are
#: treated as numerically zero and dropped from the returned spectrum.
SPECTRUM_FLOOR = 1e-12


def _coef_maps(fit):
    maps = []
    for k, gf in enumerate(fit.grams):
        if gf.coef_map is None:
            raise ValueError(
                f"gram factor {k} carries no coefficient map; spectral "
                "post-processing needs factors built from a kernel"
            )
        maps.append(np.asarray(gf.coef_map, dtype=float))
    return maps


def _basis_values(spec, c, pts):
    """Functions x -> c[a] . e(x) at ``pts``, shape (len(pts), len(c))."""
    return basis_matrix(spec, pts)[0] @ c.T


def _grid_values(maps, spec, axes):
    """Each dimension's coefficient functions at its grid axis, one matrix
    (len(axes[k]), len(maps[k])) per map; the axis count must match."""
    if len(axes) != len(maps):
        raise ValueError(f"expected {len(maps)} axes, got {len(axes)}")
    return [_basis_values(spec, c, ax) for c, ax in zip(maps, axes)]


def _contract(tensor, mats):
    """Mode k of ``tensor`` times ``mats[k]``, and mode p + k too when the
    tensor has order 2p (a covariance; p = len(mats)), mode k first."""
    p = len(mats)
    for k, mat in enumerate(mats):
        for mode in range(k, tensor.ndim, p):
            tensor = n_mode_product(tensor, mat, mode)
    return tensor


def evaluate_cov(fit, spec, s, t):
    """Fitted covariance value at a pair of points of the unit cube.

    Each point's per-dimension cosine basis is mapped into the coefficient
    basis and contracted against the coefficient tensor; at observed
    coordinates this reproduces the factor rows used inside the training
    loss.
    """
    p = len(fit.grams)
    s = check_point(s, p, "s")
    t = check_point(t, p, "t")
    row_s = row_t = np.ones(1)
    for k, c in enumerate(_coef_maps(fit)):
        proj = _basis_values(spec, c, [s[k], t[k]])
        row_s = np.kron(row_s, proj[0])
        row_t = np.kron(row_t, proj[1])
    return float(row_s @ fit.coeff_square() @ row_t)


def evaluate_on_grid(fit, spec, axes):
    """Fitted covariance over a tensor-product grid.

    ``axes`` holds one coordinate array per dimension; the result has shape
    (g_1, ..., g_p, g_1, ..., g_p) with entry [i..., j...] the covariance
    between the grid points indexed by i and j.
    """
    return _contract(np.asarray(fit.coeffs, dtype=float),
                     _grid_values(_coef_maps(fit), spec, axes))


def l2_transform(fit):
    """The coefficient tensor in L2 coordinates plus the A_k maps, from the
    thin QR C_k^T = Q_k R_k of each coefficient map."""
    factors = [np.linalg.qr(c.T) for c in _coef_maps(fit)]
    return (_contract(np.asarray(fit.coeffs, dtype=float), [r for _, r in factors]),
            [q.T for q, _ in factors])


@dataclass
class L2EigenSystem:
    """L2 spectrum of a fitted covariance.

    eigenvalues
        Positive L2 eigenvalues, descending.
    vectors
        Matching eigenvectors of the transformed square unfolding (columns).
    fraction_of_variation
        Cumulative eigenvalue shares.
    maps
        Per-dimension matrices A_k mapping the cosine basis to the
        L2-orthonormal coordinate functions.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    fraction_of_variation: np.ndarray
    maps: list
    spec: object
    dims: tuple

    def __len__(self):
        return int(self.eigenvalues.size)

    def eigenfunction_grid(self, l, axes):
        """Values of eigenfunction ``l`` over a tensor-product grid."""
        return _contract(self.vectors[:, l].reshape(self.dims),
                         _grid_values(self.maps, self.spec, axes))

    def section_coefficients(self, l):
        """Coefficients of eigenfunction ``l`` over the tensor cosine basis.

        The returned u_l satisfies f_l(s) = u_l . [e(s_1) (x) ... (x)
        e(s_p)] with e the kernel's cosine basis (``kernel.basis_matrix``).
        """
        v = self.vectors[:, l].reshape(self.dims)
        return _contract(v, [a_k.T for a_k in self.maps]).ravel()


@dataclass
class MarginalBasis:
    """L2 marginal basis along one dimension.

    Functions are evaluable through ``basis_grid``; singular values are those
    of the one-way unfolding of the L2-transformed coefficient tensor.
    """

    dimension: int
    singular_values: np.ndarray
    vectors: np.ndarray
    map: np.ndarray
    spec: object

    def __len__(self):
        return int(self.singular_values.size)

    def basis_grid(self, ax):
        """Values of all basis functions at ``ax``: shape (len(ax), count)."""
        return _basis_values(self.spec, self.map, ax) @ self.vectors


def l2_eigensystem(fit, spec):
    """L2 eigenvalues and eigenfunctions of the fitted covariance.

    Numerically zero eigenvalues (below ``SPECTRUM_FLOOR`` relative, so in
    particular everything for a zero fit) are dropped; the congruence
    transform preserves positive semidefiniteness, so nothing material is
    discarded.  Eigenvectors carry the module's sign rule.
    """
    b, maps = l2_transform(fit)
    bl_sq = square_unfold(b)
    bl_sq = (bl_sq + bl_sq.T) / 2.0
    w, v = np.linalg.eigh(bl_sq)
    w, v = w[::-1], v[:, ::-1]
    w_max = max(float(w[0]), 0.0) if w.size else 0.0
    kept = w > SPECTRUM_FLOOR * w_max if w_max > 0 else np.zeros_like(w, bool)
    eigenvalues, vectors = w[kept], v[:, kept]
    total = eigenvalues.sum()
    fve = np.cumsum(eigenvalues) / total if total > 0 else np.zeros(0)
    eig = L2EigenSystem(
        eigenvalues=eigenvalues,
        vectors=vectors,
        fraction_of_variation=fve,
        maps=maps,
        spec=spec,
        dims=fit.dims,
    )
    for l in range(len(eig)):
        eig.vectors[:, l] *= peak_signs(eig.section_coefficients(l))
    return eig


def marginal_basis(fit, spec, k):
    """L2 marginal basis for dimension ``k`` (0-based).

    Singular value decomposition of the one-way unfolding of the
    L2-transformed coefficient tensor; numerically zero singular values are
    dropped as in ``l2_eigensystem``, and vectors carry the module's sign rule.
    """
    p = len(fit.grams)
    if not 0 <= k < p:
        raise ValueError(f"dimension {k} out of range for p={p}")
    b, maps = l2_transform(fit)
    u, s, _ = np.linalg.svd(one_way_unfold(b, k), full_matrices=False)
    s_max = float(s[0]) if s.size else 0.0
    kept = s > SPECTRUM_FLOOR * s_max if s_max > 0 else np.zeros_like(s, bool)
    vectors = u[:, kept]
    vectors *= peak_signs(maps[k].T @ vectors)
    return MarginalBasis(
        dimension=k,
        singular_values=s[kept],
        vectors=vectors,
        map=maps[k],
        spec=spec,
    )


def reconstruct_on_grid(eig, axes, n_components=None):
    """Finite eigen-expansion sum_l lambda_l f_l (x) f_l over a grid.

    Returns the same layout as ``evaluate_on_grid``; with all components the
    two agree to roundoff.  ``n_components`` truncates the expansion.
    """
    values = _grid_values(eig.maps, eig.spec, axes)
    n_l = len(eig) if n_components is None else min(n_components, len(eig))
    core = (eig.vectors[:, :n_l] * eig.eigenvalues[:n_l]) @ eig.vectors[:, :n_l].T
    return _contract(square_fold(core, eig.dims + eig.dims), values)
