"""Penalized least-squares covariance fit via accelerated ADMM.

The coefficient tensor B has shape (q_1, ..., q_p, q_1, ..., q_p).  The data
term is a quadratic in vec(B_sq):

    loss(B) = vec(B_sq)^T G vec(B_sq) - h^T vec(B_sq) + c0,

where G, h, c0 aggregate the per-subject factor rows L_i (Khatri-Rao
products of the gram-factor rows) against the off-diagonal cross-products.
vec is documented as column-stacking; every matrix the solver vectorizes is
symmetric, so this coincides with the row-major ravel used by the code, and
the quadratic-form consistency test pins the convention.

The data term has one layout: subjects grouped by observation count into
dense batches (``CountGroup``), so unequal counts need no padding.  The
forward map B -> offdiag(L_i B L_i^T) and its adjoint
Y -> sum_i u_i L_i^T Y_i L_i, batched over subjects and stacks of cells,
give h, the held-out loss and the matrix-free G x.  The dense path builds G
in packed symmetric coordinates only, from two Grams of packed rows, the
triu(L_i^T L_i) and the packed l l^T of each row l (``_packed_g``).

The objective, loss(B) + lambda (beta ||B_sq||_* + (1 - beta) / p sum_k
||B_(k)||_*), is minimized over PSD B_sq at every (lambda, beta); one
function (``_penalized``) evaluates it for ``objective`` and the iteration.
One ADMM step (``_admm_map``, a pure function of the extrapolated iterates)
solves a ridge system in B, applies one eigenvalue and p singular-value
soft-thresholds and updates scaled duals; the loop (``_iterate``)
extrapolates with a Nesterov momentum sequence (restarted whenever the
objective increases) and decides when to stop.

The iteration advances a stack of cells: (lambda, beta, eta) settings that
share one loss system, tolerance and iteration cap.  Their proximal steps
run as stacked eigh calls, while momentum, restarts and the stopping test
stay per cell; a converged cell leaves the stack.  Each cell steps with its
own eta (ridge shift, prox thresholds and consensus anchor): ``cv_select``
scales eta with lambda, so every cell of a grid runs at the prox thresholds
of the cell at the grid's median lambda.  Each cell's iterates are the ones
it would have alone bit for bit on the matrix-free path, and up to rounding
on the dense path, where numpy multiplies a stack of one by gemv and a
larger stack by gemm, which sum in another order
(``test_stack_matches_stacks_of_one``).  A single fit is a stack of one, and
cross-validation runs a fold's whole grid as one stack on the dense path.
A one-way unfolding M is q_k x (Q^2 / q_k), so its singular-value
soft-threshold comes from the eigendecomposition of the small Gram M M^T,
not from an SVD of M; cells with beta = 1 skip it.

Every iterate's square unfolding is kept exactly symmetric by restricting
the B-subproblem to the symmetric subspace (the ridge system maps that
subspace to itself, so this is the subproblem's exact minimizer over
symmetric B).  The dense path solves in packed symmetric coordinates
(dimension Q(Q+1)/2, an isometry that roughly halves the linear algebra),
where one eigendecomposition of the packed G per run of the iteration
(``Precompute.solver``, freed when the run returns) makes the solve for any
eta a diagonal scaling.  Beyond
``DENSE_LIMIT`` it is conjugate gradients on the Q x Q matrix of each cell
(``_conjugate_gradient``, numpy only, one system per call) with a
symmetrized right-hand side and result, warm-started from the previous
iterate, until the residual is finite and below 1e-12 relative to the
right-hand side.  Cells then run one at a time.

Before iterating, each loss system certifies the cells whose optimum is the
zero covariance; they never enter the stack.  With h the square unfolding of
the linear term, rho_0 = max(lambda_max(h), 0), rho_1 = max_k ||h_(k)||_2
(spectral norms of the one-way unfoldings, from their small Grams) and
theta = max(0, 1 - lambda (1 - beta) / rho_1) (0 when rho_1 = 0), a cell is
certified when theta rho_0 <= lambda beta.  Proof: for PSD B, <theta h, B>
<= theta rho_0 tr B <= lambda beta tr B, and <(1 - theta) h, B>
= (1/p) sum_k <(1 - theta) h_(k), B_(k)> <= lambda (1 - beta) / p
sum_k ||B_(k)||_*, so with G PSD, F(B) - F(0) = <B, G B> - <h, B> + penalty
>= 0.  At beta = 1 the test is exact: lambda >= lambda_max(h).
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import (CROSS_OVERFLOW, DEFAULT_FOLD_SEED, DEFAULT_N_FOLDS, FoldAssignment,
                   cross_products, make_folds)
from .tensor import khatri_rao, matricize_axes, one_way_unfold, square_fold, square_unfold

__all__ = [
    "FitConfig",
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

#: Default cross-validation grids.  They suit the default kernel, whose
#: K(0,0) = 1/45, on unit-scale data, and are not scale-free: coefficients
#: live at a much larger scale than for an O(1) kernel, so useful penalties
#: are correspondingly small.  Per-replication optimal lambdas of the
#: simulation land in [1e-6, 1e-4], which the lambda grid spans.  Its median,
#: 1e-5, is the default single-fit lambda; the step calibrated there is the
#: tuning protocol's (``simulate.BENCHMARK_BASE``).
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-6.0, -4.0, 5))
DEFAULT_BETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# G is materialized densely while (prod q_k)^2 stays below this; beyond it
# the solver switches to matrix-free conjugate-gradient B-updates.
DENSE_LIMIT = 2500


@dataclass(frozen=True)
class FitConfig:
    """Tuning and algorithmic parameters of a single fit."""

    lam: float = 1e-5
    beta: float = 0.5
    eta: float = 1.0
    max_iters: int = 500
    tol: float = 1e-6
    rank_threshold: float = 1e-4

    def __post_init__(self):
        # ranges, so that NaN fails every check
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if not 0.0 <= self.rank_threshold < math.inf:
            raise ValueError("rank_threshold must be finite and nonnegative, "
                             f"got {self.rank_threshold}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def _sym(x):
    """The symmetric part of each matrix of a stack."""
    return (x + np.swapaxes(x, -1, -2)) / 2.0


def _inner(a, b):
    """Frobenius inner products over the last two axes."""
    return (a * b).sum(axis=(-2, -1))


def _frob(x):
    """Frobenius norms over the last two axes."""
    return np.sqrt(_inner(x, x))


class SymPacking:
    """Isometric packing of symmetric Q x Q matrices into R^{Q(Q+1)/2}.

    ``pack`` and ``unpack`` act on the last two (resp. last) axes, so a stack
    of matrices packs in one call.
    """

    def __init__(self, q):
        self.q = q
        iu = np.triu_indices(q)
        self.col_upper = iu[0] * q + iu[1]
        self.col_lower = iu[1] * q + iu[0]
        self.dim = iu[0].size
        # sqrt(2) on off-diagonal coordinates, 1 on the diagonal
        self.scale = np.where(iu[0] < iu[1], math.sqrt(2.0), 1.0)

    def pack(self, m):
        """S^T vec(m): symmetrizes as it packs."""
        flat = m.reshape(m.shape[:-2] + (self.q * self.q,))
        return 0.5 * (flat[..., self.col_upper] + flat[..., self.col_lower]) * self.scale

    def unpack(self, x):
        v = np.asarray(x, dtype=float) / self.scale
        m = np.empty(v.shape[:-1] + (self.q * self.q,))
        m[..., self.col_upper] = v
        m[..., self.col_lower] = v
        return m.reshape(v.shape[:-1] + (self.q, self.q))


@dataclass(frozen=True)
class CountGroup:
    """The subjects sharing one observation count m, as dense batches."""

    subjects: np.ndarray    # (n_g,) subject indices, ascending
    rows: np.ndarray        # (n_g, m, Q) factor rows L_i
    z: np.ndarray           # (n_g, m, m) cross-products, diagonal zeroed
    u: float                # subject weight 1/(m (m - 1))

    def forward(self, b):
        """offdiag(L_i B L_i^T) of each subject, for each B of the stack
        ``b`` (..., Q, Q): shape (..., n_g, m, m)."""
        n_g, m, q = self.rows.shape
        t = (self.rows.reshape(-1, q) @ b).reshape(b.shape[:-2] + (n_g, m, q))
        y = t @ np.swapaxes(self.rows, -1, -2)
        y[..., np.arange(m), np.arange(m)] = 0.0
        return y

    def adjoint(self, y):
        """sum_i u L_i^T Y_i L_i over the group, for each stack entry of
        ``y`` (..., n_g, m, m): shape (..., Q, Q)."""
        n_g, m, q = self.rows.shape
        t = (y @ self.rows).reshape(y.shape[:-3] + (n_g * m, q))
        return self.u * (self.rows.reshape(-1, q).T @ t)


def _select(groups, subjects):
    """The count groups restricted to ``subjects`` (all when None)."""
    if subjects is None:
        return groups
    keep = [np.isin(g.subjects, subjects) for g in groups]
    return [CountGroup(g.subjects[k], g.rows[k], g.z[k], g.u)
            for g, k in zip(groups, keep) if k.any()]


def _size(groups):
    return sum(g.subjects.size for g in groups)


def _data_pieces(groups):
    """Normalized (h, c0) of the loss over the groups' subjects, h as Q x Q."""
    n_sub = _size(groups)
    h = 2.0 * sum(g.adjoint(g.z) for g in groups) / n_sub
    c0 = sum(g.u * float((g.z * g.z).sum()) for g in groups) / n_sub
    return h, c0


@dataclass
class Precompute:
    """The quadratic loss of one subject set, which the ADMM runs on.

    ``groups`` batches the factor rows by observation count; h, c0 and, on
    the dense path, the packed G_sym = S^T G S give the loss.  ``G_sym`` is
    None in matrix-free mode (``precompute`` decides, by ``DENSE_LIMIT``).
    ``folds`` is the fold assignment the precompute was built with, if any;
    on the dense path ``G_fold[f]`` then holds the packed raw sum of u_i G_i
    over fold f's subjects, from which ``training`` subtracts.  ``G``,
    (Q^2, Q^2), is derived on access, never stored; only quantities of h
    are cached.  The eigendecomposition of G_sym belongs to the ridge solve
    that ``solver`` returns, one per run, and is never kept here.
    """

    grams: list
    dims: tuple
    L: list                  # per-subject views of the pooled factor rows
    groups: list             # CountGroup batches covering every subject
    h: np.ndarray            # (Q^2,)
    c0: float
    pack: SymPacking
    G_sym: np.ndarray | None  # packed (D, D), None in matrix-free mode
    G_fold: list = field(default_factory=list)   # packed (D, D) raw fold sums
    folds: FoldAssignment | None = None

    @property
    def G(self):
        """S G_sym S^T, (Q^2, Q^2) and None in matrix-free mode: G on symmetric
        matrices, the only ones the loss sees, and zero on antisymmetric ones."""
        if self.G_sym is None:
            return None
        qq = self.q_total ** 2
        half = self.pack.unpack(self.G_sym).reshape(-1, qq)    # G_sym S^T
        return self.pack.unpack(half.T).reshape(qq, qq)

    @property
    def q_total(self):
        return int(np.prod(self.dims))

    @property
    def n(self):
        return len(self.L)

    @property
    def p(self):
        return len(self.dims)

    def loss_direct(self, b_sq, subjects=None):
        """Off-diagonal squared-error loss of the square unfolding ``b_sq``,
        or of each matrix of a stack (..., Q, Q), over ``subjects`` (all
        when None)."""
        groups = _select(self.groups, subjects)
        return sum(g.u * ((g.z - g.forward(b_sq)) ** 2).sum(axis=(-3, -2, -1))
                   for g in groups) / _size(groups)

    def training(self, f):
        """The loss system of fold f's training subjects, under the fold
        assignment this precompute was built with."""
        if self.folds is None:
            raise ValueError("training needs a precompute built with a fold assignment")
        train = self.folds.train_subjects(f)
        groups = _select(self.groups, train)
        h, c0 = _data_pieces(groups)
        g_sym = None if self.G_sym is None else (
            (self.G_sym * self.n - self.G_fold[f]) / train.size)
        return replace(self, L=[self.L[i] for i in train], groups=groups,
                       h=h.ravel(), c0=c0, G_sym=g_sym, G_fold=[], folds=None)

    @cached_property
    def h_sq(self):
        """The symmetric Q x Q square unfolding of h."""
        return _sym(self.h.reshape(self.q_total, self.q_total))

    @cached_property
    def h_norm(self):
        """||h||_F, the scale of the consensus guard's anchor."""
        return float(_frob(self.h_sq))

    @cached_property
    def _zero_bounds(self):
        """(rho_0, rho_1) of the linear term; see the module docstring."""
        rho0 = max(float(np.linalg.eigvalsh(self.h_sq)[-1]), 0.0)
        rho1 = max(float(s[0, -1]) for s in _one_way_singular_values(self.h_sq, self.dims))
        return rho0, rho1

    def zero_certified(self, lam, beta):
        """Whether B = 0 is optimal for each cell (lam[c], beta[c])."""
        rho0, rho1 = self._zero_bounds
        theta = (np.maximum(1.0 - lam * (1.0 - beta) / rho1, 0.0) if rho1 > 0.0
                 else np.zeros_like(lam))
        return theta * rho0 <= lam * beta

    @cached_property
    def _h_packed(self):
        return self.pack.pack(self.h_sq)

    def _apply(self, x):
        """Matrix-free G X for each matrix X of the stack."""
        return sum(g.adjoint(g.forward(x)) for g in self.groups) / self.n

    def quad(self, x):
        """Data loss at each symmetric Q x Q matrix of the stack."""
        if self.G_sym is None:
            return self.loss_direct(x)
        x = self.pack.pack(x)
        return np.einsum("cp,cp->c", x, x @ self.G_sym) - x @ self._h_packed + self.c0

    def solver(self):
        """The ridge solve ``solve(acc, eta, x0=None)``: the symmetric B of
        each cell of a stack with (2 G + (p+1) eta[c] I) B = h + eta[c]
        sym(acc[c]) (one eta may serve every cell); the matrix-free path
        warm-starts from x0[c].  On the dense path the solve holds the
        eigendecomposition of G_sym, made by this call, and nothing else
        does: it goes when the solve does."""
        if self.G_sym is not None:
            g_eig, g_vec = np.linalg.eigh(self.G_sym)

        def solve(acc, eta, x0=None):
            eta = np.broadcast_to(np.asarray(eta, dtype=float), (len(acc),))
            shift = (self.p + 1) * eta
            if self.G_sym is not None:
                y = (self._h_packed + eta[:, None] * self.pack.pack(acc)) @ g_vec
                y /= 2.0 * g_eig + shift[:, None]
                return self.pack.unpack(y @ g_vec.T)

            rhs = _sym(self.h_sq + eta[:, None, None] * acc)
            q = self.q_total   # at most 20 D steps, D = Q(Q+1)/2
            return np.stack([_sym(_conjugate_gradient(
                lambda x, c=c: 2.0 * self._apply(x) + shift[c] * x, rhs[c],
                None if x0 is None else x0[c], 10 * q * (q + 1))) for c in range(len(rhs))])
        return solve


def _layout(grams, data, cross):
    """The Khatri-Rao factor rows of every pooled observation, and the count
    groups gathered from them and the cross-products; validates the row
    partition."""
    counts = data.counts
    for k, gf in enumerate(grams):
        if gf.factor.shape[0] != counts.sum():
            raise ValueError(
                f"gram factor {k} has {gf.factor.shape[0]} rows but the "
                f"dataset pools {counts.sum()} observations"
            )
    if len(grams) != data.p:
        raise ValueError(f"need {data.p} gram factors, got {len(grams)}")
    rows = grams[0].factor
    for gf in grams[1:]:
        rows = khatri_rao(rows.T, gf.factor.T).T
    starts = np.cumsum(counts) - counts
    z_pooled = np.concatenate(cross.z, axis=None)
    z_starts = np.cumsum(counts * counts) - counts * counts
    groups = []
    for m in sorted(set(counts.tolist())):   # np.unique would load numpy.ma
        subjects = np.flatnonzero(counts == m)
        z = z_pooled[z_starts[subjects, None] + np.arange(m * m)].reshape(-1, m, m)
        z[:, np.arange(m), np.arange(m)] = 0.0
        groups.append(CountGroup(subjects=subjects,
                                 rows=rows[starts[subjects, None] + np.arange(m)],
                                 z=z, u=1.0 / (m * (m - 1.0))))
    return rows, groups


def _packed_g(groups, pk):
    """S^T (sum_i u_i (kron(C_i, C_i) - W_i^T W_i)) S over the groups' subjects
    as a packed (D, D) matrix; C_i = L_i^T L_i, W_i stacks vec(l l^T) over the
    rows l of L_i, and s is sqrt(2) off the diagonal and 1 on it.

    Both parts are Grams of rows weighted by sqrt(u_i).  With K the Gram of
    the rows triu(C_i), the Kronecker part at packed (a, b), (c, d) is
    (K[ac, bd] + K[ad, bc]) s_ab s_cd / 2.  The correction subtracts the Gram
    of the packed rows S^T vec(l l^T) = s * (l_a l_b), D rows at a time.
    """
    q, dim = pk.q, pk.dim
    a, b = np.triu_indices(q)
    tri = np.empty((q, q), dtype=np.intp)   # packed index of entry (i, j)
    tri[a, b] = tri[b, a] = np.arange(dim)
    t = np.concatenate([(np.swapaxes(g.rows, -1, -2) @ g.rows)[:, a, b] * math.sqrt(g.u)
                        for g in groups])
    k = t.T @ t
    s = pk.scale
    out = (k[tri[a[:, None], a], tri[b[:, None], b]]
           + k[tri[a[:, None], b], tri[b[:, None], a]]) * (np.outer(s, s) / 2.0)
    for g in groups:
        rows = g.rows.reshape(-1, q)
        for start in range(0, rows.shape[0], dim):
            blk = rows[start:start + dim]
            w = blk[:, a] * blk[:, b]
            w *= s * math.sqrt(g.u)
            out -= w.T @ w
    return out


def precompute(data, cross, grams, folds=None):
    """Assemble the count groups, the packed G, h, c0 (and, with ``folds``,
    the packed per-fold G pieces) for the quadratic loss."""
    if folds is not None:
        if len(folds.assignment) != data.n:
            raise ValueError(f"the fold assignment covers {len(folds.assignment)} subjects "
                             f"but the dataset has {data.n}")
        if set(np.asarray(folds.assignment).tolist()) != set(range(folds.n_folds)):
            raise ValueError(f"the fold assignment must label each subject with a fold in "
                             f"0..{folds.n_folds - 1} and leave no fold empty")
    rows, groups = _layout(grams, data, cross)
    dims = tuple(gf.retained_rank for gf in grams)
    q = int(np.prod(dims))
    with np.errstate(over="ignore", invalid="ignore"):
        h, c0 = _data_pieces(groups)
    if (not (np.isfinite(h).all() and math.isfinite(c0))
            and all(np.isfinite(g.z).all() for g in groups)):
        raise ValueError(CROSS_OVERFLOW)
    pk = SymPacking(q)

    g_sym, g_fold = None, []
    if q * q <= DENSE_LIMIT:
        if folds is None:
            g_sym = _packed_g(groups, pk) / data.n
        else:
            g_fold = [_packed_g(_select(groups, folds.valid_subjects(f)), pk)
                      for f in range(folds.n_folds)]
            g_sym = sum(g_fold) / data.n
    return Precompute(
        grams=list(grams), dims=dims, L=np.split(rows, np.cumsum(data.counts)[:-1]),
        groups=groups, h=h.ravel(), c0=c0, pack=pk,
        G_sym=g_sym, G_fold=g_fold, folds=folds,
    )


# ---------------------------------------------------------------------------
# proximal operators (stacked: leading axes index independent problems)

def _one_way_stack(a, mode):
    """The mode-``mode`` one-way unfoldings (c, q_mode, rest) of each a[c] of
    a stack of tensors, and the axis order that laid them out."""
    perm = (0, *(1 + i for i in matricize_axes(a.ndim - 1, mode)))
    return a.transpose(perm).reshape(a.shape[0], a.shape[1 + mode], -1), perm


def _prox_one_way(a, mode, v):
    """Soft-threshold, for each a[c], the singular values of its mode-``mode``
    one-way unfolding M by v[c].

    With M M^T = U diag(s^2) U^T, the prox is U diag((s - v)_+ / s) U^T M,
    computed from the small q_mode x q_mode Gram.  The shrink factor is
    exactly 0 where s <= v, so a dominating threshold gives exact zeros.
    """
    m, perm = _one_way_stack(a, mode)
    s2, u = np.linalg.eigh(m @ np.swapaxes(m, -1, -2))
    s = np.sqrt(np.maximum(s2, 0.0))
    keep = s > v[:, None]
    shrink = np.where(keep, 1.0 - v[:, None] / np.where(keep, s, 1.0), 0.0)
    w = (u * shrink[:, None, :]) @ np.swapaxes(u, -1, -2)
    out = (w @ m).reshape(tuple(a.shape[i] for i in perm))
    return out.transpose(np.argsort(perm))


def _prox_psd(m, v):
    """PSD projection with eigenvalue soft-threshold v[c] of each m[c].

    Returns the projections and their (thresholded) eigenvalues.
    """
    w, vec = np.linalg.eigh(_sym(m))
    c = np.maximum(w - v[..., None], 0.0)
    live = (c > 0.0).reshape(-1, c.shape[-1]).any(axis=0)  # columns kept by any matrix
    vec_live = vec[..., live]
    out = (vec_live * c[..., None, live]) @ np.swapaxes(vec_live, -1, -2)
    return _sym(out), c


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

def _one_way_singular_values(b_sq, dims):
    """The singular values of the one-way unfoldings of each b_sq[c]: one
    (c, q_k) array per mode k, ascending, from the small Gram eigenvalues."""
    tensor = b_sq.reshape((-1,) + dims + dims)
    out = []
    for k in range(len(dims)):
        m, _ = _one_way_stack(tensor, k)
        ev = np.linalg.eigvalsh(m @ np.swapaxes(m, -1, -2))
        out.append(np.sqrt(np.maximum(ev, 0.0)))
    return out


def _penalized(loss, b_sq, eigs, lam, beta, dims):
    """The objective loss + lam (beta ||B||_* + (1 - beta) / p sum_k
    ||B_(k)||_*) of each cell of a stack, for PSD b_sq[c] with eigenvalues
    eigs[c]; ``lam`` and ``beta`` are scalars or one value per cell."""
    value = loss + lam * beta * eigs.sum(axis=-1)
    w_one = lam * (1.0 - beta) / len(dims)
    if np.any(w_one):
        value = value + w_one * sum(s.sum(axis=-1)
                                    for s in _one_way_singular_values(b_sq, dims))
    return value


def objective(b, pre, config):
    """Full objective: data loss plus trace-norm penalties, +inf unless the
    square unfolding is symmetric positive semidefinite (at every lambda and
    beta: the fit's feasible set)."""
    b = np.asarray(b, dtype=float)
    b_sq = square_unfold(b) if b.ndim > 2 else b
    scale = np.abs(b_sq).max()
    if scale > 0 and np.abs(b_sq - b_sq.T).max() > 1e-8 * scale:
        return math.inf
    w = np.linalg.eigvalsh(_sym(b_sq))
    if w.min() < -1e-8 * max(w.max(), 1e-300):
        return math.inf
    value = _penalized(pre.loss_direct(b_sq[None]), b_sq[None], np.abs(w)[None],
                       config.lam, config.beta, pre.dims)
    return float(value[0])


# ---------------------------------------------------------------------------
# the accelerated ADMM

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

    @property
    def dims(self):
        return tuple(gf.retained_rank for gf in self.grams)

    def coeff_square(self):
        return square_unfold(self.coeffs)


def _conjugate_gradient(matvec, rhs, x0, max_iters):
    """Solve A X = rhs for one matrix by conjugate gradients (Frobenius inner
    product) from x0, zero when ``x0`` is None.

    ``matvec`` applies the symmetric positive-definite A.  The iteration
    stops once the residual is finite with ||R|| < 1e-12 ||rhs||; a zero
    right-hand side gives exactly zero.  A non-finite residual, or a residual
    still above the bound after ``max_iters`` steps, raises RuntimeError.
    """
    bound = 1e-12 * _frob(rhs)
    if bound == 0.0:
        return np.zeros_like(rhs)
    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=float)
    r = rhs.copy() if x0 is None else rhs - matvec(x)
    p = rho_prev = None
    for step in range(max_iters + 1):
        rho = _inner(r, r)
        norm = np.sqrt(rho)
        if not np.isfinite(norm):
            raise RuntimeError("conjugate gradient failed to converge "
                               f"(non-finite residual at step {step})")
        if norm < bound:
            return x
        if step == max_iters:
            break
        if p is None:
            p = r.copy()
        else:
            p *= rho / rho_prev
            p += r
        q = matvec(p)
        alpha = rho / _inner(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    raise RuntimeError("conjugate gradient failed to converge "
                       f"in {max_iters} iterations")


def _admm_map(solve, dims, b, d_hat, v_hat, lam, beta, eta):
    """One ADMM step for each cell of a stack, from the extrapolated blocks
    d_hat and v_hat, each (c, p + 1, Q, Q).

    ``solve`` is a loss system's ridge solve (``Precompute.solver``), which
    the matrix-free path warm-starts from ``b``, the previous B (None at the
    first step); cell c penalizes with (lam[c], beta[c]) and steps with
    eta[c].  Returns (B, D, V, the thresholded eigenvalues of D_0) and
    writes to none of its inputs.
    """
    p, q = len(dims), d_hat.shape[-1]
    acc = d_hat[:, 0] - v_hat[:, 0]
    for k in range(1, p + 1):
        acc = acc + d_hat[:, k] - v_hat[:, k]
    b = solve(acc, eta, x0=b)

    # each prox overwrites its block of B + V_hat; the one-way blocks of
    # beta=1 cells skip the Gram eigendecomposition and keep it
    d = b[:, None] + v_hat
    d[:, 0], eigs = _prox_psd(d[:, 0], lam * beta / eta)
    thr_one = lam * (1.0 - beta) / (p * eta)
    rows = np.flatnonzero(thr_one != 0.0)
    if rows.size:
        for k in range(1, p + 1):
            ak = d[rows, k].reshape((-1,) + dims + dims)
            d[rows, k] = _prox_one_way(ak, k - 1, thr_one[rows]).reshape(-1, q, q)
    return b, d, v_hat + b[:, None] - d, eigs


def _iterate(pre, base, lam, beta, eta):
    """Run the accelerated ADMM for a stack of cells on the loss system
    ``pre`` (a ``Precompute``): momentum, restarts and the stopping test
    around ``_admm_map``.

    Cell c penalizes with (lam[c], beta[c]), steps with eta[c] and starts
    from zero; tol and max_iters come from the FitConfig ``base``.  Returns
    one result dict per cell; a cell the zero certificate covers returns the
    zero fit at 0 iterations.
    """
    p = pre.p
    q = pre.q_total
    dims2 = pre.dims + pre.dims
    lam = np.asarray(lam, dtype=float)
    beta = np.asarray(beta, dtype=float)
    eta = np.asarray(eta, dtype=float)

    # at the zero start the loss is c0 and the penalties vanish; 0 * h is
    # NaN where h is not finite
    obj_init = pre.c0 if np.isfinite(pre.h_sq).all() else math.nan
    if not math.isfinite(obj_init):
        raise RuntimeError(
            f"non-finite objective ({obj_init}) at initialization; "
            "check the data for NaN or infinite values"
        )
    results = [None] * lam.size

    def finish(c, b, d, converged, n_iters, obj):
        results[c] = {
            "coeffs": d[0].reshape(dims2).copy(),
            "converged": bool(converged),
            "n_iters": n_iters,
            "objective_value": float(obj),
            "primal_residuals": _frob(b - d),
        }

    # certified cells return the zero fit and never enter the stack
    zero = pre.zero_certified(lam, beta)
    blocks0 = np.zeros((p + 1, q, q))
    for c in np.flatnonzero(zero):
        finish(c, blocks0[0], blocks0, True, 0, pre.c0)
    # Iterate arrays, never written in place, hold one row per active cell;
    # ``cell`` maps rows to cells and indexes the per-cell penalties above.
    cell = np.flatnonzero(~zero)
    if not cell.size:
        return results
    solve = pre.solver()
    d = v = d_hat = v_hat = np.zeros((cell.size, p + 1, q, q))
    alpha, obj_prev = np.ones(cell.size), np.full(cell.size, obj_init)
    b = None

    for t in range(base.max_iters):
        b, d_new, v_new, eigs = _admm_map(solve, pre.dims, b, d_hat, v_hat,
                                          lam[cell], beta[cell], eta[cell])
        obj = _penalized(pre.quad(d_new[:, 0]), d_new[:, 0], eigs,
                         lam[cell], beta[cell], pre.dims)
        bad = np.flatnonzero(~np.isfinite(obj))
        if bad.size:
            raise RuntimeError(
                f"non-finite objective ({obj[bad[0]]}) at iteration {t + 1}; "
                "the iteration diverged"
            )

        # momentum, dropped for this step where the objective rose (restart)
        alpha_next = (1.0 + np.sqrt(1.0 + 4.0 * alpha * alpha)) / 2.0
        restart = obj > obj_prev
        alpha_next[restart] = 1.0
        gamma = np.where(restart, 0.0, (alpha - 1.0) / alpha_next)[:, None, None, None]
        d_hat = d_new + gamma * (d_new - d)
        v_hat = v_new + gamma * (v_new - v)
        d, v, alpha = d_new, v_new, alpha_next

        rel = np.abs(obj - obj_prev) / np.maximum(np.abs(obj_prev), 1e-300)
        obj_prev = obj
        conv = rel < base.tol
        if conv.any():
            # Guard against false plateaus: from a cold start the objective
            # at D_0 can sit exactly at its initial value for several
            # iterations while D_0 is pinned at zero and the duals ramp up.
            # Require consensus between B and the D blocks (relative to the
            # iterate scale, with the first-step magnitude of B as an
            # absolute anchor) before declaring convergence.
            r_cons = _frob(b[:, None] - d).max(axis=1)
            anchor = np.maximum(np.maximum(_frob(b), _frob(d[:, 0])),
                                pre.h_norm / ((p + 1) * eta[cell]))
            conv &= r_cons <= np.sqrt(base.tol) * np.maximum(anchor, 1e-300)

        done = conv | (t + 1 >= base.max_iters)
        if not done.any():
            continue
        for row in np.flatnonzero(done):
            finish(cell[row], b[row], d[row], conv[row], t + 1, obj_prev[row])
        keep = ~done
        if not keep.any():
            break
        cell, b = cell[keep], b[keep]
        d, v, d_hat, v_hat = d[keep], v[keep], d_hat[keep], v_hat[keep]
        alpha, obj_prev = alpha[keep], obj_prev[keep]
    return results


def admm_fit(data, cross, grams, config, pre=None):
    """Fit the coefficient tensor by the accelerated ADMM, from zero.

    Returns a CovarianceFit whose ``coeffs`` is the final PSD-projected
    iterate.  ``pre`` may carry a reusable precomputation bundle.
    """
    if pre is None:
        pre = precompute(data, cross, grams)
    (out,) = _iterate(pre, config, [config.lam], [config.beta], [config.eta])
    return CovarianceFit(config=config, grams=pre.grams, **out)


def rank_report(fit, threshold=None):
    """(two-way rank, one-way ranks...) of the fitted coefficients.

    Counts eigenvalues of the square unfolding and singular values of each
    one-way unfolding above ``threshold`` times the respective maximum.
    """
    if threshold is None:
        threshold = fit.config.rank_threshold

    def rank(v):
        top = v.max() if v.size else 0.0
        return 0 if top <= 0.0 else int((v > threshold * top).sum())

    return (rank(np.linalg.eigvalsh(_sym(fit.coeff_square()))),
            *(rank(np.linalg.svd(one_way_unfold(fit.coeffs, k), compute_uv=False))
              for k in range(fit.coeffs.ndim // 2)))


@dataclass(frozen=True)
class CvDiagnostics:
    """Convergence of each cross-validation cell, as (len(lambda_grid),
    len(beta_grid)) integer tables."""

    n_iters: np.ndarray            # ADMM iterations summed over the folds,
                                   # 0 for a cell certified zero in every fold
    unconverged_folds: np.ndarray  # folds whose fit stopped at max_iters


def cv_select(data, grams, lambda_grid=DEFAULT_LAMBDA_GRID,
              beta_grid=DEFAULT_BETA_GRID, folds=None, base=None,
              n_folds=DEFAULT_N_FOLDS, fold_seed=DEFAULT_FOLD_SEED):
    """Grid search (lambda, beta) by k-fold held-out loss.

    For every fold, the fit uses the training subjects' loss pieces (derived
    from the shared full-data precomputation by subtraction) and is scored by
    the held-out squared-error loss on the validation subjects.  On the dense
    path a fold's whole grid runs as one stack of cells; on the matrix-free
    path the cells run one at a time, which bounds the iterate memory.  The
    cells of a lambda step with base.eta * lambda / lambda_ref, lambda_ref
    the median positive lambda of the grid, so every cell runs at the prox
    thresholds lambda beta / eta of a cell at lambda_ref; a lambda = 0 cell
    keeps ``base.eta``.  Ties are broken toward larger lambda, then larger
    beta.  Returns the winning FitConfig (with its cell's eta), the
    (len(lambda_grid), len(beta_grid)) score table and the cells'
    CvDiagnostics.
    """
    if base is None:
        base = FitConfig()
    # a FitConfig per grid value validates the grids
    lambda_grid = [replace(base, lam=float(x)).lam for x in lambda_grid]
    beta_grid = [replace(base, beta=float(x)).beta for x in beta_grid]
    if not lambda_grid or not beta_grid:
        raise ValueError("empty tuning grid")
    positive = sorted(lam for lam in lambda_grid if lam > 0.0)
    k = len(positive)
    # the median; np.median would add imports to every run
    ref = (positive[(k - 1) // 2] + positive[k // 2]) / 2.0 if k else None
    eta_grid = [base.eta * (lam / ref) if lam > 0.0 else base.eta for lam in lambda_grid]
    if folds is None:
        folds = make_folds(data, n_folds, fold_seed)
    cross = cross_products(data)
    pre = precompute(data, cross, grams, folds=folds)

    cells = [(li, bj) for bj in range(len(beta_grid)) for li in range(len(lambda_grid))]
    cell_lam, cell_beta, cell_eta = (np.array(x) for x in zip(
        *[(lambda_grid[li], beta_grid[bj], eta_grid[li]) for li, bj in cells]))
    size = 1 if pre.G_sym is None else len(cells)
    scores = np.zeros((len(lambda_grid), len(beta_grid)))
    n_iters = np.zeros(scores.shape, dtype=int)
    unconverged = np.zeros(scores.shape, dtype=int)
    for f in range(folds.n_folds):
        system = pre.training(f)
        for start in range(0, len(cells), size):
            stack = slice(start, start + size)
            outs = _iterate(system, base, cell_lam[stack], cell_beta[stack],
                            cell_eta[stack])
            b_sq = np.stack([square_unfold(out["coeffs"]) for out in outs])
            held_out = pre.loss_direct(b_sq, folds.valid_subjects(f))
            for (li, bj), out, score in zip(cells[stack], outs, held_out):
                scores[li, bj] += score
                n_iters[li, bj] += out["n_iters"]
                unconverged[li, bj] += not out["converged"]
    scores /= folds.n_folds

    li, bj = min(np.ndindex(scores.shape), key=lambda c: (
        scores[c], -lambda_grid[c[0]], -beta_grid[c[1]]))
    chosen = replace(base, lam=lambda_grid[li], beta=beta_grid[bj], eta=eta_grid[li])
    return chosen, scores, CvDiagnostics(n_iters=n_iters, unconverged_folds=unconverged)
