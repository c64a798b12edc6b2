"""Functional-data ingestion, mean handling, cross-products, and CV folds.

A dataset holds n subjects; subject i carries m_i observation locations in
[0,1]^p and scalar measurements.  The loss operates on the off-diagonal
cross-products Z_ijj' = (Y_ij - mu(T_ij)) (Y_ij' - mu(T_ij')), j != j'.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernel import factor_kernel, kernel_eval

__all__ = [
    "FunctionalDataset",
    "MeanEstimate",
    "CrossProducts",
    "FoldAssignment",
    "load_csv",
    "save_csv",
    "fit_mean",
    "cross_products",
    "make_folds",
    "gram_factors",
]


# Finite values whose products leave the float64 range make the loss
# meaningless; cross_products and the solver's precompute refuse them.
CROSS_OVERFLOW = "cross-products overflow float64; rescale the values"


@dataclass
class FunctionalDataset:
    """n subjects with per-subject locations (m_i, p) and values (m_i,)."""

    locations: list  # list of (m_i, p) float arrays, coordinates in [0, 1]
    values: list     # list of (m_i,) float arrays

    def __post_init__(self):
        if len(self.locations) != len(self.values):
            raise ValueError("locations and values disagree on subject count")
        if not self.locations:
            raise ValueError("dataset has no subjects")
        self.locations = [np.atleast_2d(np.asarray(t, dtype=float)) for t in self.locations]
        self.values = [np.atleast_1d(np.asarray(y, dtype=float)) for y in self.values]
        p = self.locations[0].shape[1]
        for i, (t, y) in enumerate(zip(self.locations, self.values)):
            if t.shape[1] != p:
                raise ValueError(f"subject {i} has dimension {t.shape[1]}, expected {p}")
            if t.shape[0] != y.shape[0]:
                raise ValueError(f"subject {i}: {t.shape[0]} locations vs {y.shape[0]} values")
            if t.shape[0] < 2:
                raise ValueError(f"subject {i} has fewer than 2 observations")
            if t.size and (t.min() < 0.0 or t.max() > 1.0):
                raise ValueError(f"subject {i} has a coordinate outside [0, 1]")

    @property
    def n(self):
        return len(self.locations)

    @property
    def p(self):
        return self.locations[0].shape[1]

    @property
    def counts(self):
        return np.array([t.shape[0] for t in self.locations])

    def pooled_locations(self):
        """All locations stacked subject-major, shape (N, p)."""
        return np.vstack(self.locations)

    def subject_slices(self):
        """Row ranges of each subject inside the pooled ordering."""
        out, start = [], 0
        for m in self.counts:
            out.append(slice(start, start + int(m)))
            start += int(m)
        return out

    def stats(self):
        counts = self.counts
        return {
            "n": int(self.n),
            "p": int(self.p),
            "m_min": int(counts.min()),
            "m_max": int(counts.max()),
            "m_mean": float(counts.mean()),
            "total_observations": int(counts.sum()),
        }


def load_csv(path):
    """Read a dataset from CSV with header ``subject,t1,...,tp,y``.

    Subjects keep their order of first appearance.  Subjects with fewer than
    two rows are dropped with a warning; malformed rows, out-of-range
    coordinates or non-finite values abort with the offending line number.
    """
    by_subject = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[0] != "subject" or header[-1] != "y":
            raise ValueError(f"{path}: expected header 'subject,t1,...,tp,y'")
        p = len(header) - 2
        if [c for c in header[1:-1]] != [f"t{k}" for k in range(1, p + 1)]:
            raise ValueError(f"{path}: expected header 'subject,t1,...,tp,y'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != p + 2:
                raise ValueError(f"{path}:{lineno}: expected {p + 2} fields, got {len(row)}")
            try:
                coords = [float(c) for c in row[1:-1]]
                y = float(row[-1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from None
            if any(not 0.0 <= c <= 1.0 for c in coords):
                raise ValueError(f"{path}:{lineno}: coordinate outside [0, 1]")
            if not math.isfinite(y):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            by_subject.setdefault(row[0], []).append((coords, y))
    dropped = [sid for sid, rows in by_subject.items() if len(rows) < 2]
    if dropped:
        warnings.warn(f"dropped subjects with fewer than 2 observations: {dropped}")
    kept = {sid: rows for sid, rows in by_subject.items() if len(rows) >= 2}
    if not kept:
        raise ValueError(f"{path}: no subject has at least 2 observations")
    locations = [np.array([r[0] for r in rows]) for rows in kept.values()]
    values = [np.array([r[1] for r in rows]) for rows in kept.values()]
    return FunctionalDataset(locations, values)


def save_csv(data, path):
    """Write a dataset in the ``load_csv`` format (full float precision)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject"] + [f"t{k}" for k in range(1, data.p + 1)] + ["y"])
        for i, (locs, vals) in enumerate(zip(data.locations, data.values)):
            for t, y in zip(locs, vals):
                writer.writerow([i] + [repr(float(c)) for c in t] + [repr(float(y))])


@dataclass
class MeanEstimate:
    """Mean function: identically zero, or kernel ridge over pooled locations."""

    mode: str = "zero"
    spec: object = None           # KernelSpec for the kernel-ridge mode
    anchors: np.ndarray = None    # (N, p) pooled locations
    coef: np.ndarray = None       # (N,) ridge coefficients
    ridge: float = 0.0

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.mode == "zero":
            return np.zeros(pts.shape[0])
        k = _tensor_product_kernel(self.spec, pts, self.anchors)
        return k @ self.coef


def _tensor_product_kernel(spec, a, b):
    """Product over dimensions of the univariate kernel, (len(a), len(b))."""
    out = np.ones((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        out *= kernel_eval(spec, a[:, k, None], b[None, :, k])
    return out


def fit_mean(data, spec=None, ridge=0.0, mode="zero"):
    """Fit the mean function.

    mode="zero" returns the zero function (the default convention).
    mode="kernel-ridge" solves (K + ridge I) c = y over the pooled
    tensor-product kernel; ridge must be positive when locations repeat.
    """
    if mode == "zero":
        return MeanEstimate(mode="zero")
    if mode != "kernel-ridge":
        raise ValueError(f"unknown mean mode {mode!r}")
    if spec is None:
        raise ValueError("kernel-ridge mean needs a kernel spec")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    anchors = data.pooled_locations()
    y = np.concatenate(data.values)
    k = _tensor_product_kernel(spec, anchors, anchors)
    k = (k + k.T) / 2.0
    try:
        coef = np.linalg.solve(k + ridge * np.eye(len(y)), y)
    except np.linalg.LinAlgError:
        raise ValueError(
            "singular kernel system (duplicated locations?); set ridge > 0"
        ) from None
    return MeanEstimate(mode="kernel-ridge", spec=spec, anchors=anchors, coef=coef, ridge=ridge)


@dataclass
class CrossProducts:
    """Per-subject cross-product matrices Z_i = r_i r_i^T (residual outer products).

    The diagonal never enters the loss; consumers mask it with the indicator
    of j != j'.
    """

    z: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    def masked(self, i):
        """Z_i with the diagonal zeroed."""
        zi = self.z[i].copy()
        np.fill_diagonal(zi, 0.0)
        return zi


def cross_products(data, mean=None):
    """Residual outer products Z_ijj' = (Y_ij - mu(T_ij)) (Y_ij' - mu(T_ij'))."""
    if mean is None:
        mean = MeanEstimate(mode="zero")
    zs, res = [], []
    for locs, vals in zip(data.locations, data.values):
        r = vals - mean(locs)
        with np.errstate(over="ignore"):
            z = np.outer(r, r)
        if np.isfinite(r).all() and not np.isfinite(z).all():
            raise ValueError(CROSS_OVERFLOW)
        zs.append(z)
        res.append(r)
    return CrossProducts(z=zs, residuals=res)


@dataclass
class FoldAssignment:
    """Balanced seeded partition of subjects into folds."""

    n_folds: int
    seed: int
    assignment: np.ndarray  # (n,) fold index per subject

    def train_subjects(self, fold):
        return np.flatnonzero(self.assignment != fold)

    def valid_subjects(self, fold):
        return np.flatnonzero(self.assignment == fold)


def gram_factors(data, spec, tol=1e-10, cap=12):
    """Per-dimension gram factors over the pooled observed coordinates.

    Row order follows the pooled (subject, observation) enumeration, so the
    factor rows partition by ``data.subject_slices()``.
    """
    pooled = data.pooled_locations()
    return [factor_kernel(spec, pooled[:, k], tol=tol, cap=cap)
            for k in range(data.p)]


def make_folds(data, n_folds=5, seed=0):
    """Random balanced fold assignment; sizes differ by at most one."""
    n = data.n
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n_folds > n:
        raise ValueError(f"cannot split {n} subjects into {n_folds} folds")
    perm = np.random.default_rng(seed).permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % n_folds
    return FoldAssignment(n_folds=n_folds, seed=seed, assignment=assignment)
