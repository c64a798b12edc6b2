"""Penalized least-squares covariance fit via accelerated ADMM.

The coefficient tensor B has shape (q_1, ..., q_p, q_1, ..., q_p).  The data
term is a quadratic in vec(B_sq):

    loss(B) = vec(B_sq)^T G vec(B_sq) - h^T vec(B_sq) + c0,

where G, h, c0 aggregate the per-subject factor rows L_i (Khatri-Rao
products of the gram-factor rows) against the off-diagonal cross-products.
vec is documented as column-stacking; every matrix the solver vectorizes is
symmetric, so this coincides with the row-major ravel used by the code, and
the quadratic-form consistency test pins the convention.  G is assembled by
batched products: one gemm over the stacked vec(L_i^T L_i) for the
Kronecker part, and row blocks of the pooled vec(l l^T) for the diagonal
correction.

The penalty couples the trace norm of the square unfolding (through a
positive-semidefinite indicator) with the trace norms of the one-way
unfoldings.  Each ADMM iteration solves a ridge system in B, applies one
eigenvalue and p singular-value soft-thresholds, updates scaled duals, and
extrapolates with a Nesterov momentum sequence (restarted whenever the
objective increases).

The iteration advances a stack of cells: (lambda, beta) settings that share
one loss system.  Their proximal steps run as stacked eigh/svd calls, while
momentum, restarts, eta, the stopping test and the non-finite aborts stay
per cell; a converged cell leaves the stack, so its iteration count is the
one it would have alone.  A single fit is a stack of one, and
cross-validation runs a fold's whole grid as one stack on the dense path.

Every iterate's square unfolding is kept exactly symmetric by restricting
the B-subproblem to the symmetric subspace (the ridge system maps that
subspace to itself, so this is the subproblem's exact minimizer over
symmetric B).  The solve is carried out in packed symmetric coordinates of
dimension Q(Q+1)/2, an isometric change of basis that roughly halves the
linear-algebra cost.  The dense system is never factored by Cholesky: one
eigendecomposition of the packed G per loss system makes the solve for any
eta a diagonal scaling, so per-cell and adaptive eta need no
refactorization.  Beyond ``DENSE_LIMIT`` the solve is matrix-free
conjugate gradients, and cells run one at a time.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .data import CROSS_OVERFLOW, cross_products, make_folds
from .tensor import one_way_unfold, square_fold, square_unfold

__all__ = [
    "FitConfig",
    "FitState",
    "Precompute",
    "CovarianceFit",
    "CvDiagnostics",
    "precompute",
    "objective",
    "prox_trace_mode_k",
    "prox_psd",
    "admm_fit",
    "rank_report",
    "cv_select",
    "DEFAULT_LAMBDA_GRID",
    "DEFAULT_BETA_GRID",
]

# default cross-validation grids
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-5.0, 0.0, 7))
DEFAULT_BETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# G is materialized densely while (prod q_k)^2 stays below this; beyond it
# the solver switches to matrix-free conjugate-gradient B-updates.
DENSE_LIMIT = 2500


@dataclass(frozen=True)
class FitConfig:
    """Tuning and algorithmic parameters of a single fit."""

    lam: float = 1e-3
    beta: float = 0.5
    eta: float = 1.0
    max_iters: int = 500
    tol: float = 1e-6
    rank_threshold: float = 1e-4
    adaptive_eta: bool = False

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def to_dict(self):
        return {
            "lambda": self.lam,
            "beta": self.beta,
            "eta": self.eta,
            "max_iters": self.max_iters,
            "tol": self.tol,
            "rank_threshold": self.rank_threshold,
            "adaptive_eta": self.adaptive_eta,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        return cls(**d)


class SymPacking:
    """Isometric packing of symmetric Q x Q matrices into R^{Q(Q+1)/2}.

    ``pack`` and ``unpack`` act on the last two (resp. last) axes, so a stack
    of matrices packs in one call.
    """

    def __init__(self, q):
        self.q = q
        iu = np.triu_indices(q)
        self.off = iu[0] < iu[1]
        self.col_upper = iu[0] * q + iu[1]
        self.col_lower = iu[1] * q + iu[0]
        self.dim = iu[0].size
        # sqrt(2) on off-diagonal coordinates, 1 on the diagonal
        self._scale = np.where(self.off, math.sqrt(2.0), 1.0)

    def pack(self, m):
        """S^T vec(m): symmetrizes as it packs."""
        flat = m.reshape(m.shape[:-2] + (self.q * self.q,))
        return 0.5 * (flat[..., self.col_upper] + flat[..., self.col_lower]) * self._scale

    def unpack(self, x):
        v = np.asarray(x, dtype=float) / self._scale
        m = np.empty(v.shape[:-1] + (self.q * self.q,))
        m[..., self.col_upper] = v
        m[..., self.col_lower] = v
        return m.reshape(v.shape[:-1] + (self.q, self.q))

    def pack_operator(self, g):
        """S^T G S for a dense (Q^2, Q^2) operator preserving symmetry."""
        gs = g[:, self.col_upper].copy()
        gs[:, self.off] += g[:, self.col_lower[self.off]]
        gs[:, self.off] /= math.sqrt(2.0)
        out = gs[self.col_upper, :].copy()
        out[self.off, :] += gs[self.col_lower[self.off], :]
        out[self.off, :] /= math.sqrt(2.0)
        return (out + out.T) / 2.0


@dataclass
class Precompute:
    """Per-subject factor rows and aggregated quadratic-loss pieces.

    ``G``/``h``/``c0`` describe the full-data loss.  When built with a fold
    assignment, raw per-fold sums are kept so training/validation loss
    pieces come from subtraction rather than a second pass.
    """

    grams: list
    dims: tuple
    L: list
    zt: list
    u: np.ndarray            # raw subject weights 1/(m_i (m_i - 1))
    c0_raw: np.ndarray       # per-subject sum of squared off-diagonal Z
    h_raw: list              # per-subject 2 L^T Z~ L (unweighted by u)
    dense: bool
    G: np.ndarray | None     # full-data (Q^2, Q^2), None in matrix-free mode
    h: np.ndarray            # full-data (Q^2,)
    c0: float
    pack: SymPacking
    G_sym: np.ndarray | None
    folds: object = None
    G_fold: list = field(default_factory=list)   # raw valid-fold sums of u_i G_i

    @property
    def q_total(self):
        return int(np.prod(self.dims))

    @property
    def n(self):
        return len(self.L)

    @property
    def p(self):
        return len(self.dims)

    def subset_pieces(self, subjects):
        """Normalized (h, c0) plus row data for a subject subset."""
        subjects = np.asarray(subjects)
        n_sub = subjects.size
        h = sum(self.u[i] * self.h_raw[i] for i in subjects) / n_sub
        c0 = float(self.u[subjects] @ self.c0_raw[subjects]) / n_sub
        return h, c0

    def loss_direct(self, b_sq, subjects=None):
        """Off-diagonal squared-error loss of the square unfolding ``b_sq``."""
        idx = range(self.n) if subjects is None else subjects
        idx = list(idx)
        total = 0.0
        for i in idx:
            li = self.L[i]
            resid = self.zt[i] - li @ b_sq @ li.T
            np.fill_diagonal(resid, 0.0)
            total += self.u[i] * float((resid * resid).sum())
        return total / len(idx)

    def apply_G(self, x_mat, subjects=None):
        """G vec, reshaped: sum_i w_i L_i^T offdiag(L_i X L_i^T) L_i."""
        idx = range(self.n) if subjects is None else subjects
        idx = list(idx)
        out = np.zeros_like(x_mat)
        for i in idx:
            li = self.L[i]
            y = li @ x_mat @ li.T
            np.fill_diagonal(y, 0.0)
            out += self.u[i] * (li.T @ y @ li)
        out /= len(idx)
        return out


def _subject_rows(grams, data):
    """Per-subject Khatri-Rao factor rows L_i; validates the row partition."""
    slices = data.subject_slices()
    n_pooled = int(data.counts.sum())
    for k, gf in enumerate(grams):
        if gf.factor.shape[0] != n_pooled:
            raise ValueError(
                f"gram factor {k} has {gf.factor.shape[0]} rows but the "
                f"dataset pools {n_pooled} observations"
            )
    if len(grams) != data.p:
        raise ValueError(f"need {data.p} gram factors, got {len(grams)}")
    out = []
    for sl in slices:
        li = grams[0].factor[sl]
        for gf in grams[1:]:
            block = gf.factor[sl]
            li = (li[:, :, None] * block[:, None, :]).reshape(li.shape[0], -1)
        out.append(np.ascontiguousarray(li))
    return out


def _weighted_g(ell, u, subjects, q):
    """sum_i u_i (kron(C_i, C_i) - W_i^T W_i) over ``subjects``, C_i = L_i^T L_i.

    The Kronecker sum is one gemm over the stacked vec(C_i) followed by an
    axis permutation; W_i stacks vec(l l^T) over the rows l of L_i, and the
    W part is accumulated over blocks of Q^2/4 pooled rows, so each block's
    temporaries stay a quarter of G.  Both products weight their rows by
    sqrt(u_i), which keeps them in symmetric rank-k form.
    """
    qq = q * q
    root_u = np.sqrt(u[subjects])
    c = np.stack([ell[i].T @ ell[i] for i in subjects]).reshape(-1, qq) * root_u[:, None]
    g = (c.T @ c).reshape(q, q, q, q).transpose(0, 2, 1, 3).reshape(qq, qq)
    rows = np.concatenate([ell[i] for i in subjects])
    root_w = np.repeat(root_u, [ell[i].shape[0] for i in subjects])
    step = max(qq // 4, 1)
    for start in range(0, rows.shape[0], step):
        blk = rows[start:start + step]
        w = (blk[:, :, None] * blk[:, None, :]).reshape(blk.shape[0], qq)
        w *= root_w[start:start + step, None]
        g -= w.T @ w
    return g


def precompute(data, cross, grams, folds=None, dense=None):
    """Assemble L_i, G, h, c0 (and per-fold pieces) for the quadratic loss."""
    dims = tuple(gf.retained_rank for gf in grams)
    q = int(np.prod(dims))
    ell = _subject_rows(grams, data)
    n = data.n
    counts = data.counts
    u = 1.0 / (counts * (counts - 1.0))
    zt = [cross.masked(i) for i in range(n)]
    with np.errstate(over="ignore", invalid="ignore"):
        c0_raw = np.array([(z * z).sum() for z in zt])
        h_raw = [2.0 * (li.T @ z @ li).ravel() for li, z in zip(ell, zt)]
        h = sum(ui * hi for ui, hi in zip(u, h_raw)) / n
        c0 = float(u @ c0_raw) / n
    if (not (np.isfinite(h).all() and math.isfinite(c0))
            and all(np.isfinite(z).all() for z in zt)):
        raise ValueError(CROSS_OVERFLOW)
    if dense is None:
        dense = q * q <= DENSE_LIMIT
    pk = SymPacking(q)

    g_norm = g_sym = None
    g_fold = []
    if dense:
        if folds is None:
            g_full = _weighted_g(ell, u, np.arange(n), q)
        else:
            g_fold = [_weighted_g(ell, u, folds.valid_subjects(f), q)
                      for f in range(folds.n_folds)]
            g_full = g_fold[0].copy()
            for g in g_fold[1:]:
                g_full += g
        g_norm = g_full / n
        g_sym = pk.pack_operator(g_norm)
    return Precompute(
        grams=list(grams), dims=dims, L=ell, zt=zt, u=u, c0_raw=c0_raw,
        h_raw=h_raw, dense=dense, G=g_norm, h=h, c0=c0, pack=pk,
        G_sym=g_sym, folds=folds, G_fold=g_fold,
    )


# ---------------------------------------------------------------------------
# proximal operators (stacked: leading axes index independent problems)

def _one_way_axes(order, mode):
    """Axis permutation laying out a stacked order-``order`` tensor as its
    mode-``mode`` unfolding, in ``matricize``'s column order."""
    rest = [1 + i for i in range(order) if i != mode]
    return (0, 1 + mode, *reversed(rest))


def _prox_one_way(a, mode, v):
    """Soft-threshold, for each a[c], the singular values of its mode-``mode``
    one-way unfolding by v[c]."""
    perm = _one_way_axes(a.ndim - 1, mode)
    moved = a.transpose(perm)
    m = moved.reshape(a.shape[0], a.shape[1 + mode], -1)
    u_m, s, vt = np.linalg.svd(m, full_matrices=False)
    s = np.maximum(s - v[:, None], 0.0)
    out = ((u_m * s[:, None, :]) @ vt).reshape(moved.shape)
    return out.transpose(np.argsort(perm))


def _prox_psd(m, v):
    """PSD projection with eigenvalue soft-threshold v[c] of each m[c].

    Returns the projections and their (thresholded) eigenvalues.
    """
    sym = (m + np.swapaxes(m, -1, -2)) / 2.0
    w, vec = np.linalg.eigh(sym)
    c = np.maximum(w - v[..., None], 0.0)
    live = (c > 0.0).reshape(-1, c.shape[-1]).any(axis=0)  # columns kept by any matrix
    vec_live = vec[..., live]
    out = (vec_live * c[..., None, live]) @ np.swapaxes(vec_live, -1, -2)
    return (out + np.swapaxes(out, -1, -2)) / 2.0, c


def prox_trace_mode_k(a, mode, v):
    """Soft-threshold the singular values of the mode-``mode`` unfolding."""
    a = np.asarray(a, dtype=float)
    if v < 0:
        raise ValueError("threshold must be nonnegative")
    if a.ndim % 2 != 0 or not 0 <= mode < a.ndim // 2:
        raise ValueError(f"one-way mode {mode} invalid for an order-{a.ndim} tensor")
    if v == 0.0:
        return a.copy()
    return _prox_one_way(a[None], mode, np.array([v]))[0]


def prox_psd(a, v):
    """Symmetrize the square unfolding, keep (eigenvalue - v)_+ components."""
    a = np.asarray(a, dtype=float)
    if v < 0:
        raise ValueError("threshold must be nonnegative")
    out, _ = _prox_psd(square_unfold(a), np.asarray(v, dtype=float))
    return square_fold(out, a.shape)


# ---------------------------------------------------------------------------
# objective

def _one_way_trace_norms(b_sq, dims):
    """Summed trace norms of the one-way unfoldings of each b_sq[c], via small
    Gram eigenvalues."""
    tensor = b_sq.reshape((-1,) + dims + dims)
    total = 0.0
    for k in range(len(dims)):
        m = tensor.transpose(_one_way_axes(2 * len(dims), k))
        m = m.reshape(tensor.shape[0], dims[k], -1)
        ev = np.linalg.eigvalsh(m @ np.swapaxes(m, -1, -2))
        total = total + np.sqrt(np.maximum(ev, 0.0)).sum(axis=-1)
    return total


def objective(b, pre, config):
    """Full objective: data loss plus trace-norm penalties (+inf if infeasible)."""
    b = np.asarray(b, dtype=float)
    b_sq = square_unfold(b) if b.ndim > 2 else b
    value = pre.loss_direct(b_sq)
    if config.lam == 0.0:
        return value
    if config.beta > 0.0:
        scale = np.abs(b_sq).max()
        if scale > 0 and np.abs(b_sq - b_sq.T).max() > 1e-8 * scale:
            return float("inf")
        w = np.linalg.eigvalsh((b_sq + b_sq.T) / 2.0)
        lam_max = max(w.max(), 0.0)
        if w.min() < -1e-8 * max(lam_max, 1e-300):
            return float("inf")
        value += config.lam * config.beta * float(np.abs(w).sum())
    if config.beta < 1.0:
        norms = float(_one_way_trace_norms(b_sq[None], pre.dims)[0])
        value += config.lam * (1.0 - config.beta) / pre.p * norms
    return value


# ---------------------------------------------------------------------------
# the accelerated ADMM

@dataclass
class FitState:
    """ADMM iterate bundle: initialization for ``admm_fit`` (warm starts),
    and the final state carried on a ``CovarianceFit``."""

    B: np.ndarray
    D: list
    V: list
    alpha: float = 1.0


@dataclass
class CovarianceFit:
    """Result of a fit: final PSD-projected coefficients plus diagnostics."""

    coeffs: np.ndarray           # (q_1..q_p, q_1..q_p) tensor, PSD square unfolding
    config: FitConfig
    grams: list
    converged: bool
    n_iters: int
    objective_value: float
    primal_residuals: np.ndarray
    objective_trace: np.ndarray
    eta_final: float
    stationarity: np.ndarray | None = None
    max_skew: float = 0.0
    state: FitState | None = None

    @property
    def dims(self):
        return tuple(gf.retained_rank for gf in self.grams)

    def coeff_square(self):
        return square_unfold(self.coeffs)


class _System:
    """The ridge solves (2 G + (p+1) eta_c I)^{-1} of a stack of cells, in
    packed symmetric coordinates.

    Dense: G_sym = U diag(g) U^T is decomposed once, and the solve for any
    eta is a diagonal scaling in U's basis.  Matrix-free: conjugate
    gradients on G applied subject by subject, one cell at a time.
    """

    def __init__(self, pre, subjects, g_sym=None):
        self.pre = pre
        self.subjects = subjects
        self.pack = pre.pack
        self.p = pre.p
        h, self.c0 = pre.subset_pieces(subjects) if subjects is not None else (pre.h, pre.c0)
        self.h_packed = self.pack.pack(h.reshape(pre.q_total, pre.q_total))
        self.g_sym = g_sym
        self.dense = g_sym is not None
        if self.dense:
            self.g_eig, self.g_vec = np.linalg.eigh(g_sym)

    def _apply(self, x_packed):
        """G x for each packed row x of the stack."""
        if self.dense:
            return x_packed @ self.g_sym
        pk = self.pack
        return np.stack([pk.pack(self.pre.apply_G(pk.unpack(x), self.subjects))
                         for x in x_packed])

    def quad(self, x_packed):
        """Data loss at each packed symmetric coefficient vector of the stack."""
        return (np.einsum("cp,cp->c", x_packed, self._apply(x_packed))
                - x_packed @ self.h_packed + self.c0)

    def solve(self, rhs_packed, eta, x0=None):
        shift = (self.p + 1) * eta
        if self.dense:
            y = rhs_packed @ self.g_vec
            y /= 2.0 * self.g_eig + shift[:, None]
            return y @ self.g_vec.T
        out = np.empty_like(rhs_packed)
        for c, rhs in enumerate(rhs_packed):
            def matvec(x, s=shift[c]):
                return 2.0 * self._apply(x[None])[0] + s * x

            op = LinearOperator((self.pack.dim, self.pack.dim), matvec=matvec,
                                dtype=float)
            out[c], info = cg(op, rhs, x0=None if x0 is None else x0[c],
                              rtol=1e-12, atol=0.0, maxiter=20 * self.pack.dim)
            if info != 0:
                raise RuntimeError(f"conjugate gradient failed to converge (info={info})")
        return out

    def residual(self, x_packed, rhs_packed, eta):
        """Stationarity residual of each packed ridge system."""
        ax = 2.0 * self._apply(x_packed) + ((self.p + 1) * eta)[:, None] * x_packed
        return np.linalg.norm(ax - rhs_packed, axis=-1)


def _frob(x):
    """Frobenius norms over the last two axes."""
    return np.sqrt((x * x).sum(axis=(-2, -1)))


def _iterate(system, pre, configs, initial=None, track=False):
    """Run the accelerated ADMM for a stack of cells on one loss system.

    Cell c follows ``configs[c]`` and starts from ``initial`` (a FitState,
    shared by every cell) or from zero.  Returns one result dict per cell.
    """
    p = pre.p
    q = pre.q_total
    dims2 = pre.dims + pre.dims
    pk = pre.pack
    n_cells = len(configs)
    lam = np.array([c.lam for c in configs], dtype=float)
    beta = np.array([c.beta for c in configs], dtype=float)
    eta = np.array([c.eta for c in configs], dtype=float)
    tol = np.array([c.tol for c in configs], dtype=float)
    max_iters = np.array([c.max_iters for c in configs])
    adaptive = np.array([c.adaptive_eta for c in configs])
    w_psd = lam * beta
    lam_one = lam * (1.0 - beta)
    has_one = beta < 1.0
    # Iterate arrays hold one row per active cell; ``cell`` maps rows to
    # cells, and the per-cell settings above are read through it.
    cell = np.arange(n_cells)

    if initial is None:
        d = np.zeros((n_cells, p + 1, q, q))
        v = np.zeros((n_cells, p + 1, q, q))
        alpha = np.ones(n_cells)
    else:
        b = square_unfold(np.asarray(initial.B, dtype=float))
        if np.abs(b - b.T).max() > 1e-10 * max(np.abs(b).max(), 1e-300):
            raise ValueError("initial B must have a symmetric square unfolding")
        d, v = (np.repeat(np.stack([square_unfold(np.asarray(x, dtype=float))
                                    for x in blocks])[None], n_cells, axis=0)
                for blocks in (initial.D, initial.V))
        alpha = np.full(n_cells, float(initial.alpha))
    d_hat, v_hat, d_prev, v_prev = d.copy(), v.copy(), d.copy(), v.copy()

    def d0_objective(d0, eigs):
        val = system.quad(pk.pack(d0)) + w_psd[cell] * eigs.sum(axis=-1)
        if has_one[cell].any():
            w_one = np.where(has_one[cell], lam_one[cell] / p, 0.0)
            val = val + w_one * _one_way_trace_norms(d0, pre.dims)
        return val

    if initial is None:
        obj_prev = system.quad(pk.pack(d[:, 0]))  # zero init: penalties vanish
    else:
        obj_prev = d0_objective(d[:, 0], np.abs(np.linalg.eigvalsh(
            (d[:, 0] + np.swapaxes(d[:, 0], -1, -2)) / 2.0)))
    traces = [[float(o)] for o in obj_prev]
    bad = np.flatnonzero(~np.isfinite(obj_prev))
    if bad.size:
        err = RuntimeError(
            f"non-finite objective ({obj_prev[bad[0]]}) at initialization; "
            "check the data for NaN or infinite values"
        )
        err.trace = np.asarray(traces[bad[0]])
        raise err
    stationarity = [[] for _ in range(n_cells)] if track else None
    max_skew = np.zeros(n_cells)
    results = [None] * n_cells
    b_packed = None

    for t in range(int(max_iters.max())):
        acc = d_hat[:, 0] - v_hat[:, 0]
        for k in range(1, p + 1):
            acc = acc + d_hat[:, k] - v_hat[:, k]
        rhs = system.h_packed + eta[:, None] * pk.pack(acc)
        b_packed = system.solve(rhs, eta, x0=b_packed)
        b = pk.unpack(b_packed)
        if track:
            for c, r in zip(cell, system.residual(b_packed, rhs, eta)):
                stationarity[c].append(float(r))
            max_skew = np.maximum(max_skew, np.abs(b - np.swapaxes(b, -1, -2)).max(axis=(-2, -1)))

        # each prox overwrites its block of B + V_hat; the one-way blocks of
        # beta=1 cells skip the SVD and keep it
        d_new = b[:, None] + v_hat
        d_new[:, 0], eigs = _prox_psd(d_new[:, 0], w_psd[cell] / eta)
        thr_one = lam_one[cell] / (p * eta)
        svd_rows = np.flatnonzero(thr_one != 0.0)
        if svd_rows.size:
            for k in range(1, p + 1):
                ak = d_new[svd_rows, k].reshape((-1,) + dims2)
                dk = _prox_one_way(ak, k - 1, thr_one[svd_rows])
                d_new[svd_rows, k] = dk.reshape(-1, q, q)
        d_prev, d = d, d_new
        v_prev, v = v, v_hat + b[:, None] - d_new

        obj = d0_objective(d[:, 0], eigs)
        for c, o in zip(cell, obj):
            traces[c].append(float(o))
        bad = np.flatnonzero(~np.isfinite(obj))
        if bad.size:
            err = RuntimeError(
                f"non-finite objective ({obj[bad[0]]}) at iteration {t + 1}; "
                "the iteration diverged"
            )
            err.trace = np.asarray(traces[cell[bad[0]]])
            raise err

        # momentum, dropped for this step where the objective rose (restart)
        alpha_next = (1.0 + np.sqrt(1.0 + 4.0 * alpha * alpha)) / 2.0
        restart = obj > obj_prev
        alpha_next[restart] = 1.0
        gamma = np.where(restart, 0.0, (alpha - 1.0) / alpha_next)[:, None, None, None]
        d_hat = d + gamma * (d - d_prev)
        v_hat = v + gamma * (v - v_prev)
        alpha = alpha_next

        rel = np.abs(obj - obj_prev) / np.maximum(np.abs(obj_prev), 1e-300)
        obj_prev = obj
        conv = rel < tol[cell]
        if conv.any():
            # Guard against false plateaus: from a cold start the objective
            # at D_0 can sit exactly at its initial value for several
            # iterations while D_0 is pinned at zero and the duals ramp up.
            # Require consensus between B and the D blocks (relative to the
            # iterate scale, with the first-step magnitude of B as an
            # absolute anchor) before declaring convergence.
            r_cons = _frob(b[:, None] - d).max(axis=1)
            anchor = np.maximum(np.maximum(_frob(b), _frob(d[:, 0])),
                                np.linalg.norm(system.h_packed) / ((p + 1) * eta))
            conv &= r_cons <= np.sqrt(tol[cell]) * np.maximum(anchor, 1e-300)

        if (t + 1) % 10 == 0 and adaptive[cell].any():
            r_primal = np.sqrt(((b[:, None] - d) ** 2).sum(axis=(1, 2, 3)))
            r_dual = eta * np.sqrt(((d - d_prev) ** 2).sum(axis=(1, 2, 3)))
            new_eta = np.where(r_primal > 10.0 * r_dual, eta * 2.0,
                               np.where(r_dual > 10.0 * r_primal, eta / 2.0, eta))
            moved = adaptive[cell] & ~conv & (new_eta != eta)
            if moved.any():
                scale = np.where(moved, eta / new_eta, 1.0)[:, None, None, None]
                v, v_prev = v * scale, v_prev * scale
                eta = np.where(moved, new_eta, eta)
                alpha[moved] = 1.0
                d_hat[moved] = d[moved]
                v_hat[moved] = v[moved]

        done = conv | (t + 1 >= max_iters[cell])
        if not done.any():
            continue
        for row in np.flatnonzero(done):
            c = cell[row]
            results[c] = {
                "coeffs": d[row, 0].reshape(dims2).copy(),
                "converged": bool(conv[row]),
                "n_iters": t + 1,
                "objective_value": float(obj_prev[row]),
                "primal_residuals": _frob(b[row] - d[row]),
                "objective_trace": np.asarray(traces[c]),
                "eta_final": float(eta[row]),
                "stationarity": None if not track else np.asarray(stationarity[c]),
                "max_skew": float(max_skew[row]),
                "state": FitState(
                    B=b[row].reshape(dims2).copy(),
                    D=[x.reshape(dims2).copy() for x in d[row]],
                    V=[x.reshape(dims2).copy() for x in v[row]],
                    alpha=float(alpha[row]),
                ),
            }
        keep = ~done
        if not keep.any():
            break
        cell, b_packed, b = cell[keep], b_packed[keep], b[keep]
        d, v, d_hat, v_hat = d[keep], v[keep], d_hat[keep], v_hat[keep]
        d_prev, v_prev = d_prev[keep], v_prev[keep]
        alpha, obj_prev, eta, max_skew = alpha[keep], obj_prev[keep], eta[keep], max_skew[keep]
    return results


def admm_fit(data, cross, grams, config, initial=None, pre=None, track=False):
    """Fit the coefficient tensor by the accelerated ADMM.

    Returns a CovarianceFit whose ``coeffs`` is the final PSD-projected
    iterate.  ``pre`` may carry a reusable precomputation bundle; ``track``
    additionally records per-iteration stationarity residuals and the worst
    symmetry defect of the ridge iterate.
    """
    if pre is None:
        pre = precompute(data, cross, grams)
    system = _System(pre, None, g_sym=pre.G_sym)
    (out,) = _iterate(system, pre, [config], initial=initial, track=track)
    return CovarianceFit(config=config, grams=pre.grams, **out)


def rank_report(fit, threshold=None):
    """(two-way rank, one-way ranks...) of the fitted coefficients.

    Counts eigenvalues of the square unfolding and singular values of each
    one-way unfolding above ``threshold`` times the respective maximum.
    """
    if threshold is None:
        threshold = fit.config.rank_threshold
    b_sq = fit.coeff_square()
    w = np.linalg.eigvalsh((b_sq + b_sq.T) / 2.0)
    lam_max = w.max() if w.size else 0.0
    if lam_max <= 0.0:
        two_way = 0
    else:
        two_way = int((w > threshold * lam_max).sum())
    ranks = [two_way]
    for k in range(fit.coeffs.ndim // 2):
        s = np.linalg.svd(one_way_unfold(fit.coeffs, k), compute_uv=False)
        s_max = s.max() if s.size else 0.0
        ranks.append(0 if s_max <= 0.0 else int((s > threshold * s_max).sum()))
    return tuple(ranks)


@dataclass(frozen=True)
class CvDiagnostics:
    """Convergence of each cross-validation cell, as (len(lambda_grid),
    len(beta_grid)) integer tables."""

    n_iters: np.ndarray            # ADMM iterations summed over the folds
    unconverged_folds: np.ndarray  # folds whose fit stopped at max_iters


def cv_select(data, grams, lambda_grid=DEFAULT_LAMBDA_GRID,
              beta_grid=DEFAULT_BETA_GRID, folds=None, base=None, mean=None,
              n_folds=5, fold_seed=0):
    """Grid search (lambda, beta) by k-fold held-out loss.

    For every fold, the fit uses the training subjects' loss pieces (derived
    from the shared full-data precomputation by subtraction) and is scored by
    the held-out squared-error loss on the validation subjects.  On the dense
    path a fold's whole grid runs as one stack of cells; on the matrix-free
    path the cells run one at a time, which bounds the iterate memory.  Ties
    are broken toward larger lambda, then larger beta.  Returns the winning
    FitConfig, the (len(lambda_grid), len(beta_grid)) score table and the
    cells' CvDiagnostics.
    """
    lambda_grid = list(lambda_grid)
    beta_grid = list(beta_grid)
    if not lambda_grid or not beta_grid:
        raise ValueError("empty tuning grid")
    if base is None:
        base = FitConfig()
    if folds is None:
        folds = make_folds(data, n_folds, fold_seed)
    cross = cross_products(data, mean)
    pre = precompute(data, cross, grams, folds=folds)

    cells = [(li, bj) for bj in range(len(beta_grid)) for li in range(len(lambda_grid))]
    configs = [replace(base, lam=float(lambda_grid[li]), beta=float(beta_grid[bj]))
               for li, bj in cells]
    size = len(configs) if pre.dense else 1
    scores = np.zeros((len(lambda_grid), len(beta_grid)))
    n_iters = np.zeros(scores.shape, dtype=int)
    unconverged = np.zeros(scores.shape, dtype=int)
    for f in range(folds.n_folds):
        train = folds.train_subjects(f)
        valid = folds.valid_subjects(f)
        if pre.dense:
            g_train = (pre.G * pre.n - pre.G_fold[f]) / train.size
            g_sym = pre.pack.pack_operator(g_train)
        else:
            g_sym = None
        system = _System(pre, train, g_sym=g_sym)
        for start in range(0, len(configs), size):
            outs = _iterate(system, pre, configs[start:start + size])
            for (li, bj), out in zip(cells[start:start + size], outs):
                b_sq = square_unfold(out["coeffs"])
                scores[li, bj] += pre.loss_direct(b_sq, valid)
                n_iters[li, bj] += out["n_iters"]
                unconverged[li, bj] += not out["converged"]
    scores /= folds.n_folds

    best = None
    for li, lam in enumerate(lambda_grid):
        for bj, beta in enumerate(beta_grid):
            cand = (scores[li, bj], -lam, -beta)
            if best is None or cand < best[0]:
                best = (cand, li, bj)
    li, bj = best[1], best[2]
    chosen = replace(base, lam=float(lambda_grid[li]), beta=float(beta_grid[bj]))
    return chosen, scores, CvDiagnostics(n_iters=n_iters, unconverged_folds=unconverged)
