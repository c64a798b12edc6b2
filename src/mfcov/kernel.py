"""Univariate reproducing kernels from truncated cosine series.

The kernel on [0,1] is K(s,t) = sum_{k=1}^{T} (k*pi)^(-decay) e_k(s) e_k(t)
with e_k(t) = sqrt(2) cos(k*pi*t), optionally plus a constant eigenfunction
term.  The decay exponent must exceed one so the coefficient sequence is
summable; the default truncation T = 50 leaves a tail below 1e-6 of the
trace for the default decay 4.

Kernels are represented in coefficient space.  Over N pooled coordinates
the gram is E W E^T, with E the N x T basis matrix and W the diagonal of
coefficients, so it has rank at most T.  ``factor_kernel`` factors it
through the thin SVD of E W^{1/2} and keeps an N x q factor for the solver
plus a q x T map from the cosine basis to the factor's coefficient basis;
no N x N matrix is ever formed.
"""

import hashlib
import math
from dataclasses import KW_ONLY, InitVar, dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "basis_matrix",
    "kernel_eval",
    "GramFactor",
    "factor_kernel",
]


@dataclass(frozen=True)
class KernelSpec:
    """Truncated cosine-series kernel on [0, 1].

    decay_exponent
        Coefficient of term k is (k*pi) ** -decay_exponent.
    truncation_order
        Number of retained cosine terms.
    include_constant
        Adds a constant eigenfunction e_0 = 1 with eigenvalue
        ``constant_coef`` (the basis {e_k} spans only zero-mean functions).
    """

    decay_exponent: float = 4.0
    truncation_order: int = 50
    include_constant: bool = False
    constant_coef: float = 1.0

    def __post_init__(self):
        if self.truncation_order < 1:
            raise ValueError("truncation_order must be >= 1")
        if self.decay_exponent <= 1.0:
            raise ValueError("decay_exponent must exceed 1 for a summable series")
        if self.include_constant and self.constant_coef < 0:
            raise ValueError("constant_coef must be nonnegative")

    def to_dict(self):
        return {
            "decay_exponent": self.decay_exponent,
            "truncation_order": self.truncation_order,
            "include_constant": self.include_constant,
            "constant_coef": self.constant_coef,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def _check_unit_interval(x):
    x = np.asarray(x, dtype=float)
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError("coordinates must lie in [0, 1]")
    return x


def basis_matrix(spec, x):
    """Evaluate the eigenbasis at ``x``: columns e_1 .. e_N (plus constant).

    Returns (E, w): E has one row per point, w holds the eigenvalues so that
    K(s, t) = E(s) @ diag(w) @ E(t).T.
    """
    x = np.atleast_1d(_check_unit_interval(x))
    k = np.arange(1, spec.truncation_order + 1)
    e = math.sqrt(2.0) * np.cos(np.pi * np.outer(x, k))
    w = (k * np.pi) ** (-spec.decay_exponent)
    if spec.include_constant:
        e = np.hstack([np.ones((x.size, 1)), e])
        w = np.concatenate([[spec.constant_coef], w])
    return e, w


def kernel_eval(spec, s, t):
    """Kernel value K(s, t); broadcasts over array arguments."""
    s = _check_unit_interval(s)
    t = _check_unit_interval(t)
    k = np.arange(1, spec.truncation_order + 1)
    w = (k * np.pi) ** (-spec.decay_exponent)
    terms = (
        2.0
        * np.cos(np.pi * np.multiply.outer(s, k))
        * np.cos(np.pi * np.multiply.outer(t, k))
    )
    out = terms @ w
    if spec.include_constant:
        out = out + spec.constant_coef
    return out if out.ndim else float(out)




@dataclass
class GramFactor:
    """Rank-q factor K ~= M M^T of a kernel gram over pooled coordinates.

    factor
        N x q matrix M, one row per pooled coordinate (what the solver reads).
    retained_rank
        q, the number of kept directions.
    coef_map
        q x T matrix C with M = E C^T, E the cosine basis at the pooled
        coordinates (``basis_matrix``).  Coefficient-basis function a is
        x -> C[a] . e(x), so evaluation anywhere is ``basis_matrix(x) @ C.T``
        and, {e_k} being L2-orthonormal, the basis has L2 gram C C^T.  None
        for factors that do not come from a kernel.
    locations
        Pooled coordinates defining the row order, or None.

    ``gram`` and ``pinv`` are accepted as keywords from callers that build a
    factor by hand, and discarded: nothing downstream needs either.
    """

    factor: np.ndarray
    retained_rank: int
    coef_map: np.ndarray | None = None
    locations: np.ndarray | None = None
    _: KW_ONLY
    gram: InitVar[np.ndarray | None] = None
    pinv: InitVar[np.ndarray | None] = None

    def locations_hash(self):
        """SHA-256 of the pooled coordinates (row-order sensitive)."""
        if self.locations is None:
            raise ValueError("gram factor carries no locations")
        payload = np.ascontiguousarray(np.asarray(self.locations, dtype=float))
        return hashlib.sha256(payload.tobytes()).hexdigest()


def factor_kernel(spec, coords, tol=1e-10, cap=12):
    """Rank-q factor of the kernel gram [K(t_a, t_b)] over ``coords``.

    The gram E W E^T has rank at most T, so it is never formed: the thin SVD
    A = E W^{1/2} = U S V^T (N x T) gives its eigenvalues S^2 and
    eigenvectors U.  Directions with S^2 above ``tol`` times the largest are
    kept, up to ``cap`` of them; M = U_q S_q and C = V_q^T W^{1/2}.  Columns
    are sign-canonicalized (largest-magnitude entry of each U column
    positive) so refactorizing the same coordinates on a different BLAS
    reproduces the same basis.
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    if coords.size == 0:
        raise ValueError("empty coordinate list")
    e, w = basis_matrix(spec, coords)
    root_w = np.sqrt(w)
    u, s, vt = np.linalg.svd(e * root_w, full_matrices=False)
    q = min(int((s * s > tol * s[0] * s[0]).sum()), cap)
    u, s, vt = u[:, :q], s[:q], vt[:q]
    flip = np.where(u[np.abs(u).argmax(axis=0), np.arange(q)] < 0, -1.0, 1.0)
    return GramFactor(
        factor=u * (s * flip),
        retained_rank=q,
        coef_map=(vt * flip[:, None]) * root_w,
        locations=coords,
    )
