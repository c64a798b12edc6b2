"""Synthetic two-dimensional functional data and replication benchmarks.

Three scenarios share the cosine system e_k(t) = sqrt(2) cos(k pi t): the
population covariance is sum_k k^{-2} psi_k(s) psi_k(t) with separable
eigenfunctions psi_k(t1, t2) = e_i(t1) e_j(t2), and the settings differ
only in which (i, j) pairs are active.  A benchmark runs seeded
replications of generate -> tune -> fit -> integrated squared error and
aggregates the rows.  Each replication draws from a generator derived by a
spawn key, so rows are statistically independent, any one of them can be
reproduced in isolation, and the loop is a pure map over replication
indices (sequential by default, over a process pool on request).  The
integrated squared error is exact, with no quadrature: the truth lies in
the kernel's cosine system, where ``spectral`` writes the fit too.
"""

import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from numpy.random import SeedSequence, default_rng  # at import, not in the first draw

from .data import (DEFAULT_N_FOLDS, FunctionalDataset, check_fold_count, cross_products,
                   gram_factors, make_folds, write_csv)
from .kernel import (DEFAULT_GRAM_CAP, DEFAULT_GRAM_TOL, KernelSpec, check_gram_options,
                     check_point, check_unit_interval)
from .solver import (DEFAULT_BETA_GRID, DEFAULT_LAMBDA_GRID, TUNING_BASE, FitConfig, admm_fit,
                     check_tuning_grids, cv_select, precompute, rank_report)
from .spectral import l2_transform
from .tensor import khatri_rao, square_unfold

__all__ = [
    "COMPONENTS",
    "BENCHMARK_LAMBDA_GRID",
    "BENCHMARK_BASE",
    "SimSetting",
    "FitProtocol",
    "SimResult",
    "component_functions",
    "true_covariance",
    "true_covariance_grid",
    "generate",
    "aise",
    "run_replication",
    "run_benchmark",
    "save_table",
]

# Active (i, j) basis pairs per setting, in eigenvalue order: the k-th pair
# (eigenvalue 1/k^2) is the component e_i(t1) e_j(t2).
COMPONENTS = {
    1: ((1, 1), (1, 2), (2, 1), (3, 1), (2, 2), (3, 2)),
    2: ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (4, 4)),
    3: ((1, 2), (2, 1), (3, 3), (4, 4)),
}


@dataclass(frozen=True)
class SimSetting:
    """One simulation scenario: which components, plus data size and noise.

    ``spawn_key`` selects an independent generator stream derived from
    ``seed``; the benchmark hands replication r the key ``(..., r)``.
    """

    setting: int = 1
    n: int = 100
    m: int = 10
    sigma: float = 0.1
    seed: int = 0
    spawn_key: tuple = ()

    def __post_init__(self):
        if self.setting not in COMPONENTS:
            raise ValueError(
                f"unknown setting {self.setting}; choose from {sorted(COMPONENTS)}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 2:
            raise ValueError("m must be >= 2 (the loss needs pairs)")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "spawn_key",
                           tuple(int(k) for k in self.spawn_key))

    @property
    def components(self):
        return COMPONENTS[self.setting]

    @property
    def eigenvalues(self):
        return 1.0 / np.arange(1.0, len(self.components) + 1.0) ** 2

    @property
    def one_way_ranks(self):
        return tuple(len({pair[k] for pair in self.components})
                     for k in range(2))

    def rng(self):
        """The setting's own generator stream."""
        return default_rng(SeedSequence(self.seed, spawn_key=self.spawn_key))


def component_functions(setting, pts):
    """Component values at each point: (len(pts), R) table of psi_k.

    psi_k(t1, t2) = 2 cos(i pi t1) cos(j pi t2) for the setting's k-th
    active pair (i, j).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must lie in [0,1]^2, got shape {pts.shape}")
    check_unit_interval(pts, "points")
    cols = [2.0 * np.cos(i * np.pi * pts[:, 0]) * np.cos(j * np.pi * pts[:, 1])
            for i, j in setting.components]
    return np.column_stack(cols)


def true_covariance(setting, s, t):
    """Population covariance sum_k k^{-2} psi_k(s) psi_k(t)."""
    pts = np.stack([check_point(s, 2, "s"), check_point(t, 2, "t")])
    psi = component_functions(setting, pts)
    return float(psi[0] @ (setting.eigenvalues * psi[1]))


def true_covariance_grid(setting, axes):
    """Population covariance over a tensor grid, shape (g1, g2, g1, g2)."""
    if len(axes) != 2:
        raise ValueError(f"expected 2 axes, got {len(axes)}")
    a1, a2 = (check_unit_interval(a, "axis coordinates") for a in axes)
    i_idx = np.array([i for i, _ in setting.components], dtype=float)
    j_idx = np.array([j for _, j in setting.components], dtype=float)
    f1 = np.sqrt(2.0) * np.cos(np.pi * np.outer(a1, i_idx))
    f2 = np.sqrt(2.0) * np.cos(np.pi * np.outer(a2, j_idx))
    return np.einsum("ak,bk,ck,dk,k->abcd", f1, f2, f1, f2,
                     setting.eigenvalues, optimize=True)


def generate(setting):
    """Draw one dataset from the setting's seeded stream.

    Per subject, in order: locations uniform on [0,1]^2 of shape (m, 2),
    component scores (R,) standard normal, measurement noise (m,) standard
    normal.  Values are X_i(T_ij) + sigma * eps_ij with
    X_i = sum_k sqrt(lambda_k) zeta_ik psi_k.  The noise draw happens even
    when sigma is zero, so changing sigma alone re-scales the errors
    without disturbing the locations or the latent paths.
    """
    rng = setting.rng()
    root = np.sqrt(setting.eigenvalues)
    draws = [(rng.uniform(size=(setting.m, 2)), rng.standard_normal(root.size),
              rng.standard_normal(setting.m)) for _ in range(setting.n)]
    locations = [t for t, _, _ in draws]
    # one evaluation over every point, then one matvec per subject
    psi = component_functions(setting, np.concatenate(locations))
    psi = psi.reshape(setting.n, setting.m, root.size)
    values = [psi_i @ (root * zeta) + setting.sigma * eps
              for psi_i, (_, zeta, eps) in zip(psi, draws)]
    return FunctionalDataset(locations, values)


def aise(fit, spec, setting, grid=None):
    """Integrated squared error of a fit against the setting's covariance.

    Exact: in the L2 coordinates of ``l2_transform`` the fit is B, and true
    component r (eigenvalue lambda_r) is u_r = (x)_k A_k[:, i_rk], zero past
    the kernel's truncation, so the error is
    ||B||_F^2 - 2 sum_r lambda_r u_r'B u_r + sum_r lambda_r^2.
    ``spec`` must be the kernel the fit's gram factors were built from.
    """
    if grid is not None:  # the fourth argument perfbench passes; ROADMAP item 1
        raise ValueError(f"aise is exact and takes no quadrature grid, got {grid}")
    b, maps = l2_transform(fit)
    width = spec.truncation_order + spec.include_constant
    if any(a.shape[1] != width for a in maps):
        raise ValueError(f"the kernel has {width} basis functions per dimension but the "
                         f"fit's coefficient maps have {[a.shape[1] for a in maps]}")
    # each component's cosine columns; past the truncation, a zero column
    cols = np.minimum(np.array(setting.components) - 1 + spec.include_constant, width)
    padded = [np.hstack([a, np.zeros((a.shape[0], 1))]) for a in maps]
    u = khatri_rao(*(a[:, c] for a, c in zip(padded, cols.T, strict=True)))
    bl, lam = square_unfold(b), setting.eigenvalues
    return float(np.sum(bl * bl) - 2.0 * lam @ np.einsum("ar,ab,br->r", u, bl, u)
                 + lam @ lam)


# the solver's tuning defaults, under the name tests/test_acceptance.py imports
BENCHMARK_BASE = TUNING_BASE
# the library grid, under the name perfbench imports
BENCHMARK_LAMBDA_GRID = DEFAULT_LAMBDA_GRID


@dataclass(frozen=True)
class FitProtocol:
    """Everything a replication needs besides the data.

    Single-cell grids (one lambda and one beta) mean a fixed configuration:
    cross-validation is skipped and the values are used directly.
    ``base.eta`` is the step at the grid's median lambda (see ``cv_select``).
    Its grids pass ``check_tuning_grids``, the rule of ``cv_select``, when built.
    """

    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    beta_grid: tuple = DEFAULT_BETA_GRID
    n_folds: int = DEFAULT_N_FOLDS
    gram_cap: int = DEFAULT_GRAM_CAP
    gram_tol: float = DEFAULT_GRAM_TOL
    kernel: KernelSpec = KernelSpec()
    base: FitConfig = TUNING_BASE
    # not a field: the name perfbench passes on to aise; ROADMAP item 1
    aise_grid = None

    def __post_init__(self):
        lambda_grid, beta_grid = check_tuning_grids(self.lambda_grid, self.beta_grid)
        object.__setattr__(self, "lambda_grid", lambda_grid)
        object.__setattr__(self, "beta_grid", beta_grid)
        check_fold_count(self.n_folds)
        check_gram_options(self.gram_tol, self.gram_cap)

    @property
    def is_fixed(self):
        return len(self.lambda_grid) == 1 and len(self.beta_grid) == 1

    def to_dict(self):
        # every replication takes lambda and beta from the grids, never the base
        base = {k: v for k, v in asdict(self.base).items() if k not in ("lam", "beta")}
        return {
            "lambda_grid": list(self.lambda_grid),
            "beta_grid": list(self.beta_grid),
            "n_folds": self.n_folds,
            "gram_cap": self.gram_cap,
            "gram_tol": self.gram_tol,
            "kernel": asdict(self.kernel),
            "base": base,
        }


def run_replication(setting, protocol=None):
    """One seeded replication: generate, tune, fit, score.

    Fold assignment inside cross-validation uses a fixed seed, so the only
    randomness across replications is the data itself.  The loss system is
    built once: cross-validation and the final fit share it.  Returns a
    plain dict row; run_benchmark tags it with the replication index.
    """
    if protocol is None:
        protocol = FitProtocol()
    data = generate(setting)
    grams = gram_factors(data, protocol.kernel, tol=protocol.gram_tol,
                         cap=protocol.gram_cap)
    cross = cross_products(data)
    if protocol.is_fixed:
        pre = precompute(data, cross, grams)
        chosen = replace(protocol.base, lam=protocol.lambda_grid[0],
                         beta=protocol.beta_grid[0])
    else:
        folds = make_folds(data, protocol.n_folds)
        pre = precompute(data, cross, grams, folds=folds)
        chosen, _, _ = cv_select(data, grams, protocol.lambda_grid, protocol.beta_grid,
                                 folds=folds, base=protocol.base, pre=pre)
    fit = admm_fit(data, cross, grams, chosen, pre=pre)
    ranks = rank_report(fit)
    return {
        "aise": aise(fit, protocol.kernel, setting),
        "rank": ranks[0],
        "rank_1": ranks[1],
        "rank_2": ranks[2],
        "lambda": chosen.lam,
        "beta": chosen.beta,
        "converged": bool(fit.converged),
        "n_iters": int(fit.n_iters),
    }


@dataclass
class SimResult:
    """Benchmark output: per-replication rows plus failure records."""

    setting: SimSetting
    protocol: FitProtocol
    rows: list       # successful replications, each tagged with "rep"
    failures: list   # {"rep": index, "error": message} records

    _NUMERIC = ("aise", "rank", "rank_1", "rank_2")

    def aggregates(self):
        """Means and standard errors (sd / sqrt(reps)) over the rows.

        Standard errors need at least two rows and are None otherwise, as
        are the means of an all-failure run.
        """
        out = {"reps": len(self.rows), "failures": len(self.failures)}
        for key in self._NUMERIC:
            vals = np.array([row[key] for row in self.rows], dtype=float)
            mean = float(vals.mean()) if vals.size else None
            se = (float(vals.std(ddof=1) / np.sqrt(vals.size))
                  if vals.size > 1 else None)
            out[f"{key}_mean"] = mean
            out[f"{key}_se"] = se
        return out

    def as_dict(self):
        return {
            "setting": asdict(self.setting),
            "protocol": self.protocol.to_dict(),
            "rows": self.rows,
            "failures": self.failures,
            "aggregates": self.aggregates(),
        }


def _replicate(job):
    """One benchmark cell, exception-safe: (rep, row or None, error or None).
    A row whose AISE is not finite is a failure too."""
    rep, rep_setting, protocol = job
    try:
        row = run_replication(rep_setting, protocol)
        if not math.isfinite(row["aise"]):
            raise ValueError(f"non-finite AISE ({row['aise']})")
    except Exception as exc:
        return rep, None, f"{type(exc).__name__}: {exc}"
    return rep, row, None


def run_benchmark(setting, reps, protocol=None, workers=1):
    """Seeded replications with non-fatal failure capture.

    Replication r runs under ``setting.spawn_key + (r,)``; rerunning
    run_replication with that key reproduces its row exactly.  A failed
    replication is recorded and skipped, never fatal; a configuration no
    replication can run (more folds than subjects) raises before any
    starts.  ``workers`` > 1
    fans the replications out over a process pool; rows come back in
    replication order either way, so results do not depend on it.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if protocol is None:
        protocol = FitProtocol()
    if not protocol.is_fixed:
        check_fold_count(protocol.n_folds, setting.n)
    jobs = [(rep, replace(setting, spawn_key=setting.spawn_key + (rep,)),
             protocol) for rep in range(int(reps))]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        # the pool starts all its workers up front; more than reps would idle
        with ProcessPoolExecutor(max_workers=min(int(workers), len(jobs))) as pool:
            outcomes = list(pool.map(_replicate, jobs))
    else:
        outcomes = [_replicate(job) for job in jobs]
    rows, failures = [], []
    for rep, row, error in outcomes:
        if error is None:
            rows.append({"rep": rep, **row})
        else:
            failures.append({"rep": rep, "error": error})
    return SimResult(setting=setting, protocol=protocol, rows=rows,
                     failures=failures)


def save_table(result, path):
    """One CSV table row in the layout AISE (SE), R, r1, r2."""
    agg = result.aggregates()

    def rank_cell(key):
        return "" if agg[key] is None else f"{agg[key]:.2f}"

    if agg["aise_mean"] is None:
        aise_cell = ""
    elif agg["aise_se"] is None:
        aise_cell = f"{agg['aise_mean']:.4g}"
    else:
        aise_cell = f"{agg['aise_mean']:.4g} ({agg['aise_se']:.2e})"
    s = result.setting
    write_csv(path, ["setting", "n", "m", "sigma", "reps", "failures",
                     "AISE (SE)", "R", "r1", "r2"],
              [[s.setting, s.n, s.m, s.sigma, agg["reps"], agg["failures"], aise_cell,
                rank_cell("rank_mean"), rank_cell("rank_1_mean"), rank_cell("rank_2_mean")]])
