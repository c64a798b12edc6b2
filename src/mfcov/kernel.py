"""Univariate reproducing kernels from truncated cosine series.

The kernel on [0,1] is K(s,t) = sum_{k=1}^{T} (k*pi)^(-decay) e_k(s) e_k(t)
with e_k(t) = sqrt(2) cos(k*pi*t), optionally plus a constant eigenfunction
term.  The decay exponent must exceed one so the coefficient sequence is
summable; the default truncation T = 50 leaves a tail below 1e-6 of the
trace for the default decay 4.

Kernels are represented in coefficient space.  Over N pooled coordinates
the gram is E W E^T, with E the N x T basis matrix and W the diagonal of
coefficients, so it has rank at most T.  ``factor_kernel`` factors it
through the smaller of the two Grams of A = E W^{1/2}, the T x T A^T A or
the N x N A A^T, and keeps an N x q factor for the solver plus a q x T map
from the cosine basis to the factor's coefficient basis.  One eigh of a
min(N, T) square does all the work, so no gram larger than that square is
ever formed.  Squaring A squares its conditioning: a kept direction whose
eigenvalue is a fraction r of the largest is accurate to about eps / r, and
the keep rule holds r above the gram tolerance.
"""

import hashlib
import math
from dataclasses import KW_ONLY, InitVar, dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "check_unit_interval",
    "check_point",
    "basis_matrix",
    "kernel_eval",
    "GramFactor",
    "DEFAULT_GRAM_TOL", "DEFAULT_GRAM_CAP",
    "check_gram_options",
    "peak_signs",
    "factor_kernel",
]

# gram factorization defaults: the keep tolerance and the rank cap
DEFAULT_GRAM_TOL, DEFAULT_GRAM_CAP = 1e-10, 5


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
        if not 1.0 < self.decay_exponent < math.inf:
            raise ValueError("decay_exponent must be a finite number above 1 "
                             "(a summable series)")
        if self.include_constant and not 0.0 <= self.constant_coef < math.inf:
            raise ValueError("constant_coef must be finite and nonnegative")


def check_unit_interval(x, what):
    """``x`` as a float array; a ValueError naming ``what`` unless every
    entry lies in [0, 1].  The test is a range, so NaN fails it."""
    x = np.asarray(x, dtype=float)
    if x.size and not (0.0 <= x.min() and x.max() <= 1.0):
        raise ValueError(f"{what} must lie in [0, 1]")
    return x


def check_point(x, p, what):
    """``x`` as a float vector; a ValueError naming ``what`` unless it is
    one point of the p-dimensional cube (its shape is (p,))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (p,):
        raise ValueError(f"{what} must be a point in [0,1]^{p}, got shape {x.shape}")
    return x


def basis_matrix(spec, x):
    """Evaluate the eigenbasis at ``x``: columns e_1 .. e_N (plus constant).

    Returns (E, w): E has one row per point, w holds the eigenvalues so that
    K(s, t) = E(s) @ diag(w) @ E(t).T.
    """
    x = np.atleast_1d(check_unit_interval(x, "coordinates"))
    k = np.arange(1, spec.truncation_order + 1)
    e = math.sqrt(2.0) * np.cos(np.pi * np.outer(x, k))
    w = (k * np.pi) ** (-spec.decay_exponent)
    if spec.include_constant:
        e = np.hstack([np.ones((x.size, 1)), e])
        w = np.concatenate([[spec.constant_coef], w])
    return e, w


def kernel_eval(spec, s, t):
    """Kernel value K(s, t); broadcasts over array arguments."""
    s = check_unit_interval(s, "coordinates")
    t = check_unit_interval(t, "coordinates")
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


def check_gram_options(tol, cap):
    """A ValueError unless the gram tolerance lies in [0, 1) and the cap is
    at least 1.  The tolerance test is a range, so NaN fails it."""
    if cap < 1:
        raise ValueError(f"gram cap must be >= 1, got {cap}")
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"gram tol must be in [0, 1), got {tol}")


def peak_signs(x):
    """+1 or -1 per column of the array ``x`` (one value for a vector): the
    sign of the lowest-index entry within a relative 1e-9 of the column's
    largest magnitude, so the two opposite peaks of an odd column on a
    mirror-symmetric design resolve the same way whatever the rounding."""
    mag = np.abs(x)
    first = np.argmax(mag >= (1.0 - 1e-9) * mag.max(axis=0), axis=0)
    peak = np.take_along_axis(x, np.expand_dims(first, 0), axis=0)[0]
    return np.where(peak < 0, -1.0, 1.0)


def factor_kernel(spec, coords, tol=DEFAULT_GRAM_TOL, cap=DEFAULT_GRAM_CAP):
    """Rank-q factor of the kernel gram [K(t_a, t_b)] over ``coords``.

    The gram A A^T, A = E W^{1/2} (N x T), is never formed beyond the
    smaller of A^T A and A A^T (the method of snapshots), whose eigenvalues
    ev are the gram's nonzero ones.  Directions with ev above ``tol`` times
    the largest are kept, up to ``cap`` of them.  With T <= N and
    A^T A = V diag(ev) V^T, the factor is M = A V_q and C = V_q^T W^{1/2};
    with N < T and A A^T = U diag(ev) U^T, M = U_q ev_q^{1/2} and
    C = (A^T U_q ev_q^{-1/2})^T W^{1/2}.

    The cross-product squares the conditioning of A: a kept column whose
    eigenvalue is a fraction r of the largest is accurate to about eps / r,
    and the keep rule holds r above ``tol``.  A rank-deficient gram's null
    eigenvalues come out near eps times the largest, so a ``tol`` below
    about 1e-15 can keep directions that are rounding noise.

    Columns are sign-canonicalized (``peak_signs`` of each column of M is
    +1) so refactorizing the same coordinates on a different BLAS reproduces
    the same basis.
    """
    check_gram_options(tol, cap)
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    if coords.size == 0:
        raise ValueError("empty coordinate list")
    e, w = basis_matrix(spec, coords)
    root_w = np.sqrt(w)
    a = e * root_w
    wide = a.shape[0] < a.shape[1]
    ev, vec = np.linalg.eigh(a @ a.T if wide else a.T @ a)
    ev, vec = ev[::-1], vec[:, ::-1]
    q = min(int((ev > tol * ev[0]).sum()), cap)
    vec = vec[:, :q]
    if wide:
        root_ev = np.sqrt(ev[:q])
        m, c = vec * root_ev, (vec / root_ev).T @ a
    else:
        m, c = a @ vec, vec.T
    flip = peak_signs(m)
    return GramFactor(
        factor=m * flip,
        retained_rank=q,
        coef_map=(c * flip[:, None]) * root_w,
        locations=coords,
    )
