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
dense batches (``CountGroup``), so unequal counts need no padding.  A group
lists its subjects in the byte order of their data, so no sum depends on
how the subjects are numbered.  The forward map B -> offdiag(L_i B L_i^T)
and its adjoint Y -> sum_i u_i L_i^T Y_i L_i, batched over subjects and
stacks of cells, give h, the held-out loss and the matrix-free G x.  The
dense path builds G in packed symmetric coordinates only, from the
per-dimension structure of the Khatri-Rao rows (``_PackedG``): the Gram of
the subjects' pair-product sums and the Gram of the rows' per-dimension
fourth moments.

The objective, loss(B) + lambda (beta ||B_sq||_* + (1 - beta) / p sum_k
||B_(k)||_*), is minimized over PSD B_sq at every (lambda, beta); one
function (``_penalized``) evaluates it for ``objective`` and the iteration.
One ADMM step (``_admm_map``, a pure function of the extrapolated iterates)
solves a ridge system in B, applies one eigenvalue and p singular-value
soft-thresholds and updates scaled duals; the loop (``_iterate``)
extrapolates with a Nesterov momentum sequence (restarted whenever the
objective increases) and decides when to stop.

The iteration advances a stack of cells, ``FitConfig``s that share one loss
system, tolerance and iteration cap.  Their proximal steps run as stacked
eigh calls, while momentum, restarts and the stopping test stay per cell; a
converged cell leaves the stack.  Each cell steps with its own eta (ridge
shift, prox thresholds and consensus anchor): ``cv_select`` scales eta with
lambda, so every cell of a grid runs at the prox thresholds of the cell at
the grid's median lambda.  Each cell's iterates are the ones
it would have alone bit for bit on the matrix-free path, and up to rounding
on the dense path, where numpy multiplies a stack of one by gemv and a
larger stack by gemm, which sum in another order
(``test_stack_matches_stacks_of_one``).  A single fit is a stack of one, and
cross-validation runs a fold's whole grid as one stack, whichever solve the
fold's loss system holds (``precompute`` chooses it).
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
right-hand side.

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
from functools import cached_property, reduce

import numpy as np

from .data import CROSS_OVERFLOW, FoldAssignment, cross_products, make_folds
from .spectral import l2_transform
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
    "TUNING_BASE",
    "check_tuning_grids",
]

#: Default cross-validation grids.  They suit the default kernel, whose
#: K(0,0) = 1/45, on unit-scale data, and are not scale-free: coefficients
#: live at a much larger scale than for an O(1) kernel, so useful penalties
#: are correspondingly small.  Per-replication optimal lambdas of the
#: simulation land in [1e-6, 1e-4], which the lambda grid spans; its median,
#: 1e-5, is the default single-fit lambda, where ``TUNING_BASE``'s step is
#: calibrated.  The beta grid keeps the two ends and the middle: in a study
#: over settings 1-3 and m in {10, 20} (20 seeded replications each),
#: dropping beta = 0.25 and 0.75, the costliest cells (both proxes
#: threshold), changed no mean AISE by over 2 se of the paired difference.
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-6.0, -4.0, 5))
DEFAULT_BETA_GRID = (0.0, 0.5, 1.0)

# G is materialized densely while (prod q_k)^2 stays below this; beyond it
# the solver switches to matrix-free conjugate-gradient B-updates.
DENSE_LIMIT = 2500

# Rows times columns of a block of the dense G's moment Gram, which keeps a
# block's arrays within the cache (at p = 1 a block holds at least D rows).
MOMENT_BLOCK = 2 ** 15


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


#: The tuning defaults of ``cv_select``, the simulation and every CLI command:
#: ``FitConfig``'s, with eta stepped down to the loss curvature of the default
#: kernel on unit-scale data at the grid's median lambda, 1e-5 (``cv_select``
#: scales it with lambda; the optimum does not depend on eta, the path does).
#: ``FitConfig`` keeps eta = 1, the step of an O(1) loss, until the step comes
#: from the loss: at 1e-9 a fit on O(1) data stalls, at zero to the iteration
#: cap when beta > 0, and "converged" far above the optimum when beta = 0.
TUNING_BASE = FitConfig(eta=1e-9)


def check_tuning_grids(lambda_grid, beta_grid):
    """The (lambda, beta) grids as tuples of floats.  A ValueError unless
    every value is a valid ``FitConfig`` lambda or beta and neither grid is
    empty."""
    lambda_grid = tuple(FitConfig(lam=float(x)).lam for x in lambda_grid)
    beta_grid = tuple(FitConfig(beta=float(x)).beta for x in beta_grid)
    if not lambda_grid or not beta_grid:
        raise ValueError("empty tuning grid")
    return lambda_grid, beta_grid


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

    subjects: np.ndarray    # (n_g,) subject indices, in a canonical order of their data
    rows: np.ndarray        # (n_g, m, Q) factor rows L_i
    factors: tuple          # per dimension k, the (n_g, m, q_k) gram-factor rows
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
    return [CountGroup(g.subjects[k], g.rows[k], tuple(f[k] for f in g.factors), g.z[k], g.u)
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
    L: list                  # per-subject views of the groups' factor rows
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
    """The count groups of the subjects, gathered from the gram factors and
    the cross-products, with their Khatri-Rao factor rows, and each subject's
    rows L_i as a view into its group's; validates the row partition.

    A group lists its subjects in the order of their data (cross-products,
    then gram-factor rows, compared as bytes), so every sum over subjects
    runs in one order however the subjects are numbered."""
    counts = data.counts
    for k, gf in enumerate(grams):
        if gf.factor.shape[0] != counts.sum():
            raise ValueError(
                f"gram factor {k} has {gf.factor.shape[0]} rows but the "
                f"dataset pools {counts.sum()} observations"
            )
    if len(grams) != data.p:
        raise ValueError(f"need {data.p} gram factors, got {len(grams)}")
    starts = np.cumsum(counts) - counts
    groups, rows_of = [], [None] * data.n
    for m in sorted(set(counts.tolist())):   # np.unique would load numpy.ma
        subjects = np.flatnonzero(counts == m)
        z = np.stack([cross.z[i] for i in subjects])
        z[:, np.arange(m), np.arange(m)] = 0.0
        factors = [gf.factor[starts[subjects, None] + np.arange(m)] for gf in grams]
        key = np.concatenate([x.reshape(subjects.size, -1) for x in (z, *factors)], axis=1)
        order = np.argsort(key.view(np.dtype((np.void, key.itemsize * key.shape[1])))[:, 0])
        subjects, factors = subjects[order], tuple(f[order] for f in factors)
        rows = factors[0]
        for f in factors[1:]:
            rows = (rows[..., :, None] * f[..., None, :]).reshape(rows.shape[:-1] + (-1,))
        for i, r in zip(subjects.tolist(), rows):
            rows_of[i] = r
        groups.append(CountGroup(subjects=subjects, rows=rows, factors=factors,
                                 z=z[order], u=1.0 / (m * (m - 1.0))))
    return rows_of, groups


def _pairs(q):
    """The upper-triangle entries (a, b), a <= b, of a q x q matrix in packed
    order, and the (q, q) table of each entry's packed index."""
    a, b = np.triu_indices(q)
    tri = np.empty((q, q), dtype=np.int32)
    tri[a, b] = tri[b, a] = np.arange(a.size)
    return a, b, tri


def _quartics(q, a, b, tri):
    """The degree-4 monomials x_i x_j x_k x_l (i <= j <= k <= l) of q
    variables, from ``_pairs(q)``: the (D_q, D_q) table of the monomial that
    the pair products of packed pairs (a, b) and (c, d) multiply to, and for
    each monomial the packed pairs (i, j) and (k, l)."""
    quad = np.sort(np.stack(np.broadcast_arrays(a[:, None], b[:, None], a, b), axis=-1))
    code = ((quad[..., 0] * q + quad[..., 1]) * q + quad[..., 2]) * q + quad[..., 3]
    seen = np.zeros(q ** 4, dtype=bool)
    seen[code] = True
    i, j, k, l = np.unravel_index(np.flatnonzero(seen), (q,) * 4)
    return (np.cumsum(seen) - 1)[code], tri[i, j], tri[k, l]


class _PackedG:
    """The packed G_sym = S^T (sum_i u_i (kron(C_i, C_i) - W_i^T W_i)) S of a
    subject set, as a (D, D) matrix; C_i = L_i^T L_i, W_i stacks vec(l l^T)
    over the rows l of L_i, and s is sqrt(2) off the diagonal and 1 on it.
    ``precompute`` builds the gather tables once and assembles every fold
    with them.

    A row l = f_1 (x) ... (x) f_p multiplies out per dimension: a pair
    product l_a l_b is the product of the pair products f_k[a_k] f_k[b_k],
    one packed pair per dimension (a point of the pair space, of size
    prod_k D_k).  Let w_r be the pair-space row of row r, V_i the sum of w_r
    over L_i's rows (it holds C_i), K = sum_i u_i V_i V_i^T and M = sum_r u_r
    w_r w_r^T.  The entry at packed (a, b), (c, d) is (X[ac, bd] + X[ad, bc])
    s_ab s_cd / 2 with X = K - M: an entry of M is a fourth moment, symmetric
    in a, b, c, d, so the correction splits evenly between the two Kronecker
    terms.  It depends on each dimension's degree-4 monomial only, so M is
    one Gram between the monomials of dimensions 1..p-1 (their Kronecker
    product) and those of dimension p, spread over the pair space.  At p = 1
    a row has no product structure, and M is the Gram of the pair products,
    at least D rows at a time.
    """

    def __init__(self, dims, pk):
        pairs = [_pairs(q) for q in dims]
        sizes = [a.size for a, _, _ in pairs]
        space = math.prod(sizes)
        self.pairs, self.space = [(a, b) for a, b, _ in pairs], space
        # eps[x, y]: the pair-space index of flat coefficient indices (x, y);
        # the flat int32 indices into the (space, space) X below stay under
        # 2^31 for every G that fits in memory
        eps = 0
        for (_, _, tri), size, ix in zip(pairs, sizes, np.unravel_index(np.arange(pk.q), dims)):
            eps = eps * size + tri[ix[:, None], ix]
        # Packed row (a, b) gathers X at eps(a, c) space + eps(b, d) and at
        # eps(a, d) space + eps(b, c) over the packed columns (c, d); the rows
        # with a = r are starts[r]:starts[r + 1], with b = r..Q-1.
        c, d = np.divmod(pk.col_upper, pk.q)
        self.kron = ((eps * space)[:, c], eps[:, d], (eps * space)[:, d], eps[:, c])
        self.starts = np.concatenate(([0], np.cumsum(np.arange(pk.q, 0, -1))))
        self.half_scale = pk.scale / 2.0
        if len(dims) == 1:
            self.moments = (pk.dim, pk.dim)
            self.block = max(pk.dim, MOMENT_BLOCK // pk.dim)
        else:
            quartics = [_quartics(q, *pair) for q, pair in zip(dims, pairs)]
            self.monomials = [(i, j) for _, i, j in quartics]
            self.n_mono = tuple(i.size for i, _ in self.monomials)
            p = len(dims)
            self.spread = tuple(
                table.reshape([size if axis % p == k else 1 for axis in range(2 * p)])
                for k, ((table, _, _), size) in enumerate(zip(quartics, sizes)))
            self.moments = (math.prod(self.n_mono[:-1]), self.n_mono[-1])
            self.block = max(1, MOMENT_BLOCK // self.moments[0])

    def __call__(self, groups):
        p = len(self.pairs)
        v_all = np.empty((_size(groups), self.space))   # sqrt(u_i) V_i per subject
        mom, done = np.zeros(self.moments), 0
        for g in groups:
            n_g, m = g.z.shape[:2]
            step = max(1, self.block // m)
            for s in range(0, n_g, step):
                # pair products of the block's rows, one (D_k, rows) array per dimension
                prods = [f[a] * f[b] for f, (a, b) in zip(
                    (f[s:s + step].reshape(-1, f.shape[-1]).T for f in g.factors), self.pairs)]
                n_b = prods[0].shape[1] // m
                if p == 1:
                    v = prods[0].reshape(-1, n_b, m).sum(axis=2).T
                    left = right = prods[0]
                else:
                    v = (reduce(khatri_rao, prods[:-1]).reshape(-1, n_b, m)
                         .transpose(1, 0, 2) @ prods[-1].reshape(-1, n_b, m).transpose(1, 2, 0))
                    mono = [x[i] * x[j] for x, (i, j) in zip(prods, self.monomials)]
                    left, right = reduce(khatri_rao, mono[:-1]), mono[-1]
                np.multiply(v.reshape(n_b, -1), math.sqrt(g.u), out=v_all[done:done + n_b])
                done += n_b
                mom += g.u * (left @ right.T)
        k = v_all.T @ v_all
        k -= mom if p == 1 else mom.reshape(self.n_mono)[self.spread].reshape(k.shape)
        x = k.ravel()
        out = np.empty((self.half_scale.size,) * 2)
        cs, d, ds, c = self.kron
        for r, (lo, hi) in enumerate(zip(self.starts[:-1], self.starts[1:])):
            rows = out[lo:hi]
            x.take(cs[r] + d[r:], out=rows, mode="clip")   # in range; clip skips a buffer
            rows += x.take(ds[r] + c[r:])
            rows *= self.half_scale       # s_cd / 2, and s_ab = sqrt(2) off row (r, r)
            rows[1:] *= math.sqrt(2.0)
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
    rows_of, groups = _layout(grams, data, cross)
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
        packed_g = _PackedG(dims, pk)
        if folds is None:
            g_sym = packed_g(groups)
            g_sym /= data.n
        else:
            g_fold = [packed_g(_select(groups, folds.valid_subjects(f)))
                      for f in range(folds.n_folds)]
            g_sym = sum(g_fold) / data.n
    return Precompute(
        grams=list(grams), dims=dims, L=rows_of,
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
    eigs[c]; ``lam`` and ``beta`` are scalars or one value per cell.  Only
    the cells with a non-zero one-way weight compute one-way spectra."""
    value = loss + lam * beta * eigs.sum(axis=-1)
    w_one = np.broadcast_to(lam * (1.0 - beta) / len(dims), value.shape)
    rows = np.flatnonzero(w_one)
    if rows.size:
        value[rows] += w_one[rows] * sum(
            s.sum(axis=-1) for s in _one_way_singular_values(b_sq[rows], dims))
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


def _iterate(pre, configs):
    """Run the accelerated ADMM for a stack of cells on the loss system
    ``pre`` (a ``Precompute``): momentum, restarts and the stopping test
    around ``_admm_map``.

    A cell is a ``FitConfig``: it penalizes with its lam and beta, steps
    with its eta and starts from zero; the stack runs to the configs' one tol
    and max_iters (a ValueError if they differ).  Returns one
    ``CovarianceFit`` per cell, carrying its config; a cell the zero
    certificate covers gets the zero fit at 0 iterations.
    """
    if len({(c.tol, c.max_iters) for c in configs}) != 1:
        raise ValueError("the configs of a stack must share one tol and one max_iters")
    tol, max_iters = configs[0].tol, configs[0].max_iters
    p, q, dims2 = pre.p, pre.q_total, pre.dims + pre.dims
    lam, beta, eta = (np.array(x, dtype=float) for x in zip(
        *[(c.lam, c.beta, c.eta) for c in configs]))

    # at the zero start the loss is c0 and the penalties vanish; 0 * h is
    # NaN where h is not finite
    obj_init = pre.c0 if np.isfinite(pre.h_sq).all() else math.nan
    if not math.isfinite(obj_init):
        raise RuntimeError(
            f"non-finite objective ({obj_init}) at initialization; "
            "check the data for NaN or infinite values"
        )
    fits = [None] * len(configs)

    def finish(c, b, d, converged, n_iters, obj):
        fits[c] = CovarianceFit(
            coeffs=d[0].reshape(dims2).copy(), config=configs[c], grams=pre.grams,
            converged=bool(converged), n_iters=n_iters, objective_value=float(obj),
            primal_residuals=_frob(b - d))

    # certified cells return the zero fit and never enter the stack
    zero = pre.zero_certified(lam, beta)
    blocks0 = np.zeros((p + 1, q, q))
    for c in np.flatnonzero(zero):
        finish(c, blocks0[0], blocks0, True, 0, pre.c0)
    # Iterate arrays, never written in place, hold one row per active cell;
    # ``cell`` maps rows to cells and indexes the per-cell penalties above.
    cell = np.flatnonzero(~zero)
    if not cell.size:
        return fits
    solve = pre.solver()
    d = v = d_hat = v_hat = np.zeros((cell.size, p + 1, q, q))
    alpha, obj_prev = np.ones(cell.size), np.full(cell.size, obj_init)
    b = None

    for t in range(max_iters):
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
        conv = rel < tol
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
            conv &= r_cons <= np.sqrt(tol) * np.maximum(anchor, 1e-300)
            # nor at a standing start: a cell the zero certificate did not
            # cover may not stop while D_0 is still exactly zero
            conv &= _frob(d[:, 0]) > 0.0

        done = conv | (t + 1 >= max_iters)
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
    return fits


def admm_fit(data, cross, grams, config, pre=None):
    """Fit the coefficient tensor by the accelerated ADMM, from zero.

    Returns a CovarianceFit whose ``coeffs`` is the final PSD-projected
    iterate.  ``pre`` may carry a reusable precomputation bundle.
    """
    if pre is None:
        pre = precompute(data, cross, grams)
    return _iterate(pre, [config])[0]


def rank_report(fit):
    """(two-way rank, one-way ranks...) of the fitted covariance operator.

    Counts the eigenvalues of the square unfolding and the singular values of
    each one-way unfolding of the coefficients in the L2 coordinates of
    ``spectral.l2_transform`` (those of AISE and ``l2_eigensystem``) above
    the fit's ``rank_threshold`` times their maximum.  A ValueError if a gram
    factor carries no coefficient map.
    """
    b, _ = l2_transform(fit)

    def rank(v):
        top = v.max() if v.size else 0.0
        return 0 if top <= 0.0 else int((v > fit.config.rank_threshold * top).sum())

    return (rank(np.linalg.eigvalsh(_sym(square_unfold(b)))),
            *(rank(np.linalg.svd(one_way_unfold(b, k), compute_uv=False))
              for k in range(b.ndim // 2)))


@dataclass(frozen=True)
class CvDiagnostics:
    """Convergence of each cross-validation cell, as (len(lambda_grid),
    len(beta_grid)) integer tables."""

    n_iters: np.ndarray            # ADMM iterations summed over the folds,
                                   # 0 for a cell certified zero in every fold
    unconverged_folds: np.ndarray  # folds whose fit stopped at max_iters


def cv_select(data, grams, lambda_grid=DEFAULT_LAMBDA_GRID,
              beta_grid=DEFAULT_BETA_GRID, folds=None, base=TUNING_BASE, pre=None):
    """Grid search (lambda, beta) by k-fold held-out loss.

    For every fold, the fit uses the training subjects' loss pieces (derived
    from the shared full-data precomputation by subtraction) and is scored by
    the held-out squared-error loss on the validation subjects.  The folds
    are ``folds`` (a ``FoldAssignment``), else those of ``pre``, else
    ``make_folds(data)``; ``pre``, built from ``data`` and ``grams`` with
    its folds, can go on to the final ``admm_fit``.  ``check_tuning_grids``
    validates the grids.  A fold's whole grid runs as one stack of cells.
    ``base`` (by default ``TUNING_BASE``; ``FitConfig()`` for an O(1) loss)
    steps the cells of a lambda with base.eta * lambda / lambda_ref,
    lambda_ref the grid's median positive lambda, so every cell runs at the
    prox thresholds of a cell at lambda_ref (cells at lambda = 0 keep
    ``base.eta``).  Ties break toward larger lambda, then larger beta.
    Returns the winning FitConfig (with its cell's eta), the score table and
    the cells' CvDiagnostics.
    """
    lambda_grid, beta_grid = check_tuning_grids(lambda_grid, beta_grid)
    positive = sorted(lam for lam in lambda_grid if lam > 0.0)
    k = len(positive)
    # the median; np.median would add imports to every run
    ref = (positive[(k - 1) // 2] + positive[k // 2]) / 2.0 if k else None
    eta_grid = [base.eta * (lam / ref) if lam > 0.0 else base.eta for lam in lambda_grid]
    if pre is None:
        folds = make_folds(data) if folds is None else folds
        pre = precompute(data, cross_products(data), grams, folds=folds)
    elif pre.folds is None:
        raise ValueError("cv_select needs a precompute built with a fold assignment")
    elif folds is not None and folds is not pre.folds:
        raise ValueError("pass the fold assignment through the precompute or "
                         "through folds, not both")
    folds = pre.folds

    cells = [(li, bj) for bj in range(len(beta_grid)) for li in range(len(lambda_grid))]
    configs = {(li, bj): replace(base, lam=lambda_grid[li], beta=beta_grid[bj],
                                 eta=eta_grid[li]) for li, bj in cells}
    scores = np.zeros((len(lambda_grid), len(beta_grid)))
    n_iters = np.zeros(scores.shape, dtype=int)
    unconverged = np.zeros(scores.shape, dtype=int)
    for f in range(folds.n_folds):
        fits = _iterate(pre.training(f), [configs[c] for c in cells])
        held_out = pre.loss_direct(np.stack([fit.coeff_square() for fit in fits]),
                                   folds.valid_subjects(f))
        for c, fit, score in zip(cells, fits, held_out):
            scores[c] += score
            n_iters[c] += fit.n_iters
            unconverged[c] += not fit.converged
    scores /= folds.n_folds

    chosen = configs[min(np.ndindex(scores.shape), key=lambda c: (
        scores[c], -lambda_grid[c[0]], -beta_grid[c[1]]))]
    return chosen, scores, CvDiagnostics(n_iters=n_iters, unconverged_folds=unconverged)
