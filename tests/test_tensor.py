import itertools

import numpy as np
import pytest

from mfcov.tensor import (
    fold_matricized,
    khatri_rao,
    matricize,
    n_mode_product,
    one_way_fold,
    one_way_unfold,
    round_robin_grouping,
    square_fold,
    square_unfold,
    tucker_compose,
)


def n_mode_product_loops(a, p_mat, mode):
    """Triple-loop oracle, entry formula of the mode product definition."""
    shape = list(a.shape)
    shape[mode] = p_mat.shape[0]
    out = np.zeros(shape)
    for idx in itertools.product(*[range(s) for s in shape]):
        src = list(idx)
        acc = 0.0
        for r in range(a.shape[mode]):
            src[mode] = r
            acc += a[tuple(src)] * p_mat[idx[mode], r]
        out[idx] = acc
    return out


class TestNModeProduct:
    def test_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(n_mode_product(a, np.eye(2), 0), a)

    def test_diagonal_scaling(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = n_mode_product(a, np.diag([2.0, 3.0]), 0)
        assert np.array_equal(out, [[2.0, 4.0], [9.0, 12.0]])

    def test_zero_matrix_annihilates(self):
        a = np.arange(24.0).reshape(2, 3, 4)
        out = n_mode_product(a, np.zeros((5, 3)), 1)
        assert out.shape == (2, 5, 4)
        assert np.all(out == 0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            shape = tuple(rng.integers(2, 4, size=rng.integers(2, 5)))
            mode = int(rng.integers(0, len(shape)))
            a = rng.standard_normal(shape)
            p = rng.standard_normal((int(rng.integers(1, 4)), shape[mode]))
            assert np.allclose(
                n_mode_product(a, p, mode), n_mode_product_loops(a, p, mode),
                atol=1e-13,
            )

    def test_commutes_across_distinct_modes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((3, 2, 4))
            u = rng.standard_normal((5, 3))
            v = rng.standard_normal((2, 4))
            left = n_mode_product(n_mode_product(a, u, 0), v, 2)
            right = n_mode_product(n_mode_product(a, v, 2), u, 0)
            assert np.allclose(left, right, atol=1e-12)

    def test_dimension_mismatch(self):
        a = np.zeros((2, 3))
        with pytest.raises(ValueError):
            n_mode_product(a, np.eye(4), 1)
        with pytest.raises(ValueError):
            n_mode_product(a, np.eye(2), 2)


class TestMatricize:
    def test_order2_is_identity_and_transpose(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(matricize(a, 0), a)
        assert np.array_equal(matricize(a, 1), a.T)

    def test_index_formula(self):
        # matricize column index (1-based): j = 1 + sum (l_i - 1) * prod of
        # earlier non-n extents.  Checked exhaustively on a (2, 3, 4) tensor.
        shape = (2, 3, 4)
        a = np.arange(np.prod(shape), dtype=float).reshape(shape)
        for n in range(3):
            m = matricize(a, n)
            other = [i for i in range(3) if i != n]
            for idx in itertools.product(*[range(s) for s in shape]):
                j = 0
                stride = 1
                for i in other:
                    j += idx[i] * stride
                    stride *= shape[i]
                assert m[idx[n], j] == a[idx]

    def test_element_2_3_4_lands_at_row2_col12(self):
        # 1-based: element (2,3,4) of a (2,3,4) tensor sits at row 2,
        # column 1 + (3-1)*1 + (4-1)*3 = 12 of the mode-1 matricization.
        shape = (2, 3, 4)
        a = np.zeros(shape)
        a[1, 2, 3] = 5.0
        assert matricize(a, 0)[1, 11] == 5.0

    def test_fold_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            shape = tuple(rng.integers(1, 5, size=rng.integers(1, 5)))
            a = rng.standard_normal(shape)
            for n in range(len(shape)):
                assert np.array_equal(fold_matricized(matricize(a, n), n, shape), a)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            matricize(np.zeros((2, 2)), 2)


class TestSquareUnfold:
    def test_order2_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(square_unfold(a), a)

    def test_index_formula_2222(self):
        # 1-based: (k1..k4) = (2,1,1,2) maps to (j1, j2) = (3, 2).
        a = np.zeros((2, 2, 2, 2))
        a[1, 0, 0, 1] = 1.0
        s = square_unfold(a)
        assert s[2, 1] == 1.0
        # full enumeration of the stride rule: earlier modes larger stride
        shape = (2, 3, 2, 3)
        b = np.arange(np.prod(shape), dtype=float).reshape(shape)
        sb = square_unfold(b)
        for k in itertools.product(*[range(s) for s in shape]):
            j1 = k[0] * shape[1] + k[1]
            j2 = k[2] * shape[3] + k[3]
            assert sb[j1, j2] == b[k]

    def test_elementary_tensor(self):
        # outer product f1 x f2 x f3 x f4 unfolds to vec(f1 x f2) vec(f3 x f4)^T
        rng = np.random.default_rng(5)
        f = [rng.standard_normal(s) for s in (2, 3, 4, 2)]
        a = np.einsum("i,j,k,l->ijkl", *f)
        left = np.kron(f[0], f[1])
        right = np.kron(f[2], f[3])
        assert np.allclose(square_unfold(a), np.outer(left, right), atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            half = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
            other = tuple(rng.integers(1, 4, size=len(half)))
            shape = half + other
            a = rng.standard_normal(shape)
            assert np.array_equal(square_fold(square_unfold(a), shape), a)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            square_unfold(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            square_fold(np.zeros(8), (2, 2, 2))


class TestOneWayUnfold:
    def test_p1_delegates(self):
        a = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(one_way_unfold(a, 0), matricize(a, 0))

    def test_matches_matricize(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, 3, 2, 3))
        assert np.array_equal(one_way_unfold(a, 1), matricize(a, 1))
        assert np.array_equal(
            one_way_fold(one_way_unfold(a, 1), 1, a.shape), a
        )

    def test_zero_tensor(self):
        assert np.all(one_way_unfold(np.zeros((2, 2, 2, 2)), 0) == 0)

    def test_mode_restricted_to_first_half(self):
        with pytest.raises(ValueError):
            one_way_unfold(np.zeros((2, 2, 2, 2)), 2)


class TestKroneckerKhatriRao:
    def test_khatri_rao_identity_columns(self):
        out = khatri_rao(np.eye(2), np.eye(2))
        expect = np.zeros((4, 2))
        expect[0, 0] = 1.0
        expect[3, 1] = 1.0
        assert np.array_equal(out, expect)

    def test_khatri_rao_single_column_is_kron(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 1))
        b = rng.standard_normal((4, 1))
        assert np.allclose(khatri_rao(a, b)[:, 0], np.kron(a[:, 0], b[:, 0]))

    def test_khatri_rao_columnwise(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((2, 5))
        out = khatri_rao(a, b)
        for i in range(5):
            assert np.allclose(out[:, i], np.kron(a[:, i], b[:, i]))
        assert np.all(khatri_rao(a, np.zeros((2, 5))) == 0)

    def test_khatri_rao_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.zeros((2, 3)), np.zeros((2, 4)))


class TestTuckerCompose:
    def test_identity_factors(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((2, 3, 2))
        out = tucker_compose(g, [np.eye(2), np.eye(3), np.eye(2)])
        assert np.allclose(out, g, atol=1e-14)

    def test_zero_core(self):
        out = tucker_compose(np.zeros((2, 2)), [np.ones((3, 2)), np.ones((4, 2))])
        assert out.shape == (3, 4)
        assert np.all(out == 0)

    def test_matricized_identity(self):
        # matricize(G x1 U1 ... xd Ud, n) == U_n @ matricize(G, n)
        #   @ kron(U_d, ..., U_{n+1}, U_{n-1}, ..., U_1).T
        rng = np.random.default_rng(19)
        for _ in range(200):
            order = int(rng.integers(2, 5))
            core_shape = tuple(int(x) for x in rng.integers(1, 5, size=order))
            out_shape = tuple(int(x) for x in rng.integers(1, 5, size=order))
            g = rng.standard_normal(core_shape)
            factors = [
                rng.standard_normal((out_shape[k], core_shape[k]))
                for k in range(order)
            ]
            a = tucker_compose(g, factors)
            for n in range(order):
                chain = None
                for k in reversed([i for i in range(order) if i != n]):
                    chain = factors[k] if chain is None else np.kron(chain, factors[k])
                expect = factors[n] @ matricize(g, n) @ chain.T
                assert np.allclose(matricize(a, n), expect, atol=1e-12)


def is_one_factorization(g):
    """m-1 groups of m/2 disjoint pairs that together cover every pair once."""
    m = g.m
    pairs = [pair for grp in g.groups for pair in grp]
    return (len(g.groups) == m - 1
            and all(len({j for pair in grp for j in pair}) == m for grp in g.groups)
            and sorted(pairs) == list(itertools.combinations(range(1, m + 1), 2)))


class TestRoundRobinGrouping:
    def test_m4_matches_known_construction(self):
        g = round_robin_grouping(4)
        assert [set(grp) for grp in g.groups] == [
            {(1, 4), (2, 3)},
            {(1, 2), (3, 4)},
            {(1, 3), (2, 4)},
        ]

    def test_m2_single_group(self):
        g = round_robin_grouping(2)
        assert g.groups == [[(1, 2)]]

    def test_m10_valid(self):
        g = round_robin_grouping(10)
        assert len(g.groups) == 9
        assert all(len(grp) == 5 for grp in g.groups)
        assert is_one_factorization(g)

    def test_all_even_m_up_to_20(self):
        for m in range(2, 21, 2):
            assert is_one_factorization(round_robin_grouping(m))

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            round_robin_grouping(5)
        with pytest.raises(ValueError):
            round_robin_grouping(0)
