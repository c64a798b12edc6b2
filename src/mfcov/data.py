"""Functional-data ingestion, cross-products, and CV folds.

A dataset holds n subjects; subject i carries m_i observation locations in
[0,1]^p and scalar measurements.  The loss operates on the off-diagonal
cross-products Z_ijj' = Y_ij Y_ij', j != j', so the values must be centered
(zero-mean) before fitting.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng  # at import, not in the first fold split

from .kernel import DEFAULT_GRAM_CAP, DEFAULT_GRAM_TOL, check_unit_interval, factor_kernel

__all__ = [
    "FunctionalDataset",
    "CrossProducts",
    "FoldAssignment",
    "load_csv",
    "write_csv",
    "save_csv",
    "cross_products",
    "check_fold_count",
    "make_folds",
    "gram_factors",
    "DEFAULT_N_FOLDS", "DEFAULT_FOLD_SEED",
]

# cross-validation defaults: the fold count and the seed of the fold split
DEFAULT_N_FOLDS, DEFAULT_FOLD_SEED = 5, 0


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
        locations = [np.asarray(t, dtype=float) for t in self.locations]
        # a 1-D array holds a subject's m locations in one dimension
        self.locations = [t[:, None] if t.ndim == 1 else np.atleast_2d(t) for t in locations]
        self.values = [np.atleast_1d(np.asarray(y, dtype=float)) for y in self.values]
        p = self.locations[0].shape[1]
        for i, (t, y) in enumerate(zip(self.locations, self.values)):
            if t.shape[1] != p:
                raise ValueError(f"subject {i} has dimension {t.shape[1]}, expected {p}")
            if t.shape[0] != y.shape[0]:
                raise ValueError(f"subject {i}: {t.shape[0]} locations vs {y.shape[0]} values")
            if t.shape[0] < 2:
                raise ValueError(f"subject {i} has fewer than 2 observations")
            check_unit_interval(t, f"subject {i}'s coordinates")

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
        ends = np.cumsum(self.counts).tolist()
        return [slice(end - int(m), end) for end, m in zip(ends, self.counts)]

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
    Every defect of the file's content raises ValueError.
    """
    by_subject = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None) or []
            p = len(header) - 2
            if p < 1 or header != ["subject", *(f"t{k}" for k in range(1, p + 1)), "y"]:
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
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not {exc.encoding} text") from None
    kept = {sid: rows for sid, rows in by_subject.items() if len(rows) >= 2}
    if not kept:
        raise ValueError(f"{path}: no subject has at least 2 observations")
    dropped = [sid for sid, rows in by_subject.items() if len(rows) < 2]
    if dropped:
        warnings.warn(f"dropped subjects with fewer than 2 observations: {dropped}")
    locations = [np.array([r[0] for r in rows]) for rows in kept.values()]
    values = [np.array([r[1] for r in rows]) for rows in kept.values()]
    return FunctionalDataset(locations, values)


def write_csv(path, header, rows):
    """One CSV file: the header row, then ``rows`` (any iterable of rows)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(data, path):
    """Write a dataset in the ``load_csv`` format (full float precision)."""
    write_csv(path, ["subject"] + [f"t{k}" for k in range(1, data.p + 1)] + ["y"],
              ([i] + [repr(float(c)) for c in t] + [repr(float(y))]
               for i, (locs, vals) in enumerate(zip(data.locations, data.values))
               for t, y in zip(locs, vals)))


@dataclass
class CrossProducts:
    """Per-subject cross-product matrices Z_i = y_i y_i^T of the values.

    The diagonal never enters the loss; consumers mask it with the indicator
    of j != j'.
    """

    z: list = field(default_factory=list)


def cross_products(data):
    """Outer products Z_ijj' = Y_ij Y_ij' of each subject's (centered) values,
    one broadcast product per observation count; each ``z[i]`` is a view."""
    counts = data.counts
    zs = [None] * data.n
    for m in sorted(set(counts.tolist())):
        subjects = np.flatnonzero(counts == m)
        vals = np.stack([data.values[i] for i in subjects])
        with np.errstate(over="ignore"):
            z = vals[:, :, None] * vals[:, None, :]
        if (np.isfinite(vals).all(axis=1) & ~np.isfinite(z).all(axis=(1, 2))).any():
            raise ValueError(CROSS_OVERFLOW)
        for i, zi in zip(subjects.tolist(), z):
            zs[i] = zi
    return CrossProducts(z=zs)


@dataclass
class FoldAssignment:
    """Balanced seeded partition of subjects into folds."""

    n_folds: int
    assignment: np.ndarray  # (n,) fold index per subject

    def train_subjects(self, fold):
        return np.flatnonzero(self.assignment != fold)

    def valid_subjects(self, fold):
        return np.flatnonzero(self.assignment == fold)


def gram_factors(data, spec, tol=DEFAULT_GRAM_TOL, cap=DEFAULT_GRAM_CAP):
    """Per-dimension gram factors over the pooled observed coordinates.

    Row order follows the pooled (subject, observation) enumeration, so the
    factor rows partition by ``data.subject_slices()``.
    """
    pooled = data.pooled_locations()
    return [factor_kernel(spec, pooled[:, k], tol=tol, cap=cap)
            for k in range(data.p)]


def check_fold_count(n_folds, n=None):
    """A ValueError unless there are at least 2 folds and, when ``n`` is
    given, ``n`` subjects split into ``n_folds`` folds."""
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n is not None and n_folds > n:
        raise ValueError(f"cannot split {n} subjects into {n_folds} folds")


def make_folds(data, n_folds=DEFAULT_N_FOLDS, seed=DEFAULT_FOLD_SEED):
    """Random balanced fold assignment; sizes differ by at most one."""
    n = data.n
    check_fold_count(n_folds, n)
    if seed < 0:
        raise ValueError(f"fold_seed must be >= 0, got {seed}")
    perm = default_rng(seed).permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % n_folds
    return FoldAssignment(n_folds=n_folds, assignment=assignment)
