"""Dense multiway-array algebra.

Tensors are plain numpy arrays stored in the default C-order layout (last
index fastest).  Two distinct matrix rearrangements coexist on purpose and
are never mixed:

* ``matricize`` / ``fold_matricized`` -- mode-n matricization where the
  remaining modes are enumerated with the *earlier* modes varying fastest
  (column index ``j = 1 + sum_{i!=n} (l_i-1) * prod_{m<i, m!=n} q_m`` in
  1-based terms).  This is the ordering under which the Tucker identity
  ``matricize(A, n) = U_n @ matricize(G, n) @ kron(U_d, ..., U_{n+1},
  U_{n-1}, ..., U_1).T`` holds.

* ``square_unfold`` / ``square_fold`` -- pairs the first half of the modes
  against the second half, with the *earlier* modes of each half taking the
  larger stride (``j_1 = 1 + sum_{i<=d/2} (k_i-1) * prod_{m=i+1}^{d/2} q_m``).
  For a C-order array this coincides with a plain reshape, but it is defined
  by the index map, not by the storage layout.

Both rearrangements have exact inverses and are round-trip tested.
"""

import math

import numpy as np

__all__ = [
    "n_mode_product",
    "matricize",
    "fold_matricized",
    "square_unfold",
    "square_fold",
    "one_way_unfold",
    "one_way_fold",
    "khatri_rao",
    "tucker_compose",
    "PairGrouping",
    "round_robin_grouping",
]


def n_mode_product(a, p_mat, mode):
    """Contract mode ``mode`` of tensor ``a`` with the columns of ``p_mat``.

    Parameters
    ----------
    a : ndarray
        Input tensor of order d.
    p_mat : ndarray, shape (p_n, q_n)
        Matrix whose column count matches ``a.shape[mode]``.
    mode : int
        Zero-based mode index, ``0 <= mode < a.ndim``.

    Returns
    -------
    ndarray with ``a.shape[mode]`` replaced by ``p_mat.shape[0]``.
    """
    a = np.asarray(a)
    p_mat = np.asarray(p_mat)
    if not 0 <= mode < a.ndim:
        raise ValueError(f"mode {mode} out of range for order-{a.ndim} tensor")
    if p_mat.ndim != 2:
        raise ValueError("p_mat must be a matrix")
    if p_mat.shape[1] != a.shape[mode]:
        raise ValueError(
            f"cannot contract mode {mode} of extent {a.shape[mode]} "
            f"with matrix of shape {p_mat.shape}"
        )
    out = np.tensordot(p_mat, a, axes=(1, mode))
    return np.moveaxis(out, 0, mode)


def matricize_axes(order, mode):
    """Axis order laying an order-``order`` tensor out as its mode-``mode``
    matricization: mode ``mode`` first, then the other modes, latest first,
    so that a C-order reshape lets the earlier ones vary fastest."""
    return (mode, *reversed([i for i in range(order) if i != mode]))


def matricize(a, mode):
    """Mode-n matricization with earlier non-n modes varying fastest.

    Returns the ``q_mode x prod(other extents)`` matrix whose (l_n, j) entry
    follows the index formula in the module docstring.
    """
    a = np.asarray(a)
    if not 0 <= mode < a.ndim:
        raise ValueError(f"mode {mode} out of range for order-{a.ndim} tensor")
    return a.transpose(matricize_axes(a.ndim, mode)).reshape(a.shape[mode], -1)


def fold_matricized(mat, mode, shape):
    """Exact inverse of ``matricize(a, mode)`` for a tensor of ``shape``."""
    shape = tuple(shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    rest = tuple(s for i, s in enumerate(shape) if i != mode)
    full = np.reshape(np.asarray(mat), (shape[mode],) + rest, order="F")
    return np.moveaxis(full, 0, mode)


def square_unfold(a):
    """Pair the first d/2 modes against the last d/2 as a matrix.

    Earlier modes of each half take the larger stride; see the module
    docstring for the exact index map.
    """
    a = np.asarray(a)
    if a.ndim % 2 != 0:
        raise ValueError(f"square unfolding needs an even order, got {a.ndim}")
    half = a.ndim // 2
    rows = math.prod(a.shape[:half])
    return np.ascontiguousarray(a).reshape(rows, -1)


def square_fold(mat, shape):
    """Exact inverse of ``square_unfold`` for a tensor of ``shape``."""
    shape = tuple(shape)
    if len(shape) % 2 != 0:
        raise ValueError(f"square folding needs an even order, got {len(shape)}")
    return np.asarray(mat).reshape(shape)


def one_way_unfold(a, mode):
    """Mode-``mode`` unfolding of an order-2p tensor, mode in the first half.

    Identical to ``matricize``; exposed separately because the one-way trace
    penalties are stated in terms of this operator.
    """
    a = np.asarray(a)
    if a.ndim % 2 != 0:
        raise ValueError(f"one-way unfolding needs an even order, got {a.ndim}")
    if not 0 <= mode < a.ndim // 2:
        raise ValueError(f"one-way mode {mode} must lie in the first {a.ndim // 2} modes")
    return matricize(a, mode)


def one_way_fold(mat, mode, shape):
    """Inverse of ``one_way_unfold``."""
    shape = tuple(shape)
    if len(shape) % 2 != 0:
        raise ValueError(f"one-way folding needs an even order, got {len(shape)}")
    if not 0 <= mode < len(shape) // 2:
        raise ValueError(f"one-way mode {mode} must lie in the first {len(shape) // 2} modes")
    return fold_matricized(mat, mode, shape)


def khatri_rao(a, b):
    """Columnwise Kronecker product of two matrices with equal column counts."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts differ: {a.shape[1]} vs {b.shape[1]}"
        )
    out = a[:, None, :] * b[None, :, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1])


def tucker_compose(g, factors):
    """Multiply core ``g`` by ``factors[k]`` along mode k for every k."""
    g = np.asarray(g)
    if len(factors) != g.ndim:
        raise ValueError(f"need {g.ndim} factors, got {len(factors)}")
    out = g
    for k, u in enumerate(factors):
        out = n_mode_product(out, u, k)
    return out


class PairGrouping:
    """A partition of all unordered pairs (j, j'), 1 <= j < j' <= m.

    ``groups`` holds m-1 lists of m/2 pairs each; within a group no
    individual index repeats.  Indices are 1-based, matching the usual
    statement of the round-robin construction.
    """

    def __init__(self, m, groups):
        self.m = m
        self.groups = groups


def round_robin_grouping(m):
    """Partition all pairs over m individuals (m even) into m-1 groups.

    Cyclic construction: the (m-1) x (m-1) block has row i equal to the
    cycle (1, ..., m-1) started at i; entry (i, m) inherits the diagonal
    entry (i, i), which is then zeroed.  The group of pair (j, j') is the
    (j, j') entry of the resulting symmetric matrix.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"m must be a positive even integer, got {m}")
    g = np.zeros((m + 1, m + 1), dtype=int)  # 1-based indexing, row/col 0 unused
    for i in range(1, m):
        for j in range(1, m):
            g[i, j] = (i + j - 2) % (m - 1) + 1
    for i in range(1, m):
        g[i, m] = g[m, i] = g[i, i]
        g[i, i] = 0
    groups = [[] for _ in range(m - 1)]
    for j in range(1, m + 1):
        for jp in range(j + 1, m + 1):
            groups[g[j, jp] - 1].append((j, jp))
    return PairGrouping(m, groups)
