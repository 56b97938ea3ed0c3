import random
from fractions import Fraction
from math import gcd

import pytest

from orbitadm import linalg

from conftest import random_invertible, random_vector
from test_sparse_elimination import dense_rref


def F(x):
    return Fraction(x)


class TestRankExact:
    def test_single_pivot(self):
        assert linalg.rank_exact([[0, 0, -1], [0, 0, 0]]) == 1

    def test_zero_matrix(self):
        assert linalg.rank_exact([[0, 0], [0, 0]]) == 0

    def test_identity(self):
        eye = [[int(i == j) for j in range(3)] for i in range(3)]
        assert linalg.rank_exact(eye) == 3

    def test_empty(self):
        assert linalg.rank_exact([]) == 0

    def test_fractions_cleared(self):
        mat = [[F("1/2"), F("1/3")], [F("1/4"), F("1/6")]]
        # second row is half the first: rank 1
        assert linalg.rank_exact(mat) == 1

    def test_agrees_with_rref_pivot_count(self):
        rng = random.Random(20240811)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            mat = [random_vector(rng, cols) for _ in range(rows)]
            _, pivots = linalg.rref(mat)
            assert linalg.rank_exact(mat) == len(pivots)


class TestRref:
    def test_canonical_form(self):
        rows, pivots = linalg.rref([[2, 4], [1, 2]])
        assert pivots == [0]
        assert rows == [[F(1), F(2)]]

    def test_row_space_membership(self):
        basis = [[1, 0, 2, 0], [0, 1, 3, 0]]
        rows, pivots = linalg.rref(basis)
        rows = linalg.sparse_rows(rows)

        def reduced(vec):
            w = linalg.sparse_rows([vec])[0]
            return linalg.reduce_in_place(w, rows, pivots), w

        assert reduced([2, 3, 13, 0]) == ([2, 3], {})
        assert reduced([0, 0, 0, 1]) == ([0, 0], {3: 1})
        assert reduced([2, 3, 12, 0]) == ([2, 3], {2: -1})


class TestEchelon:
    def test_int_rows_stay_exact(self):
        # int and Fraction vectors alike give primitive integer rows, each a
        # positive multiple of the rref row at its pivot of the span of the
        # vectors read so far
        rows, pivots = linalg.echelon([{0: 2, 1: 3}, {0: 4, 2: 1},
                                       {1: -3, 2: 5}])
        assert (rows, pivots) == ([{0: 2, 1: 3}, {1: 6, 2: -1}, {2: 1}],
                                  [0, 1, 2])
        rng = random.Random(20261019)
        for den in (1, 3):  # int vectors, then Fraction vectors
            for _ in range(40):
                n = rng.randint(1, 5)
                mat = [[rng.choice((0, rng.randint(-4, 4))) if den == 1 else
                        Fraction(rng.randint(-4, 4), rng.randint(1, den))
                        for _ in range(n)] for _ in range(rng.randint(1, 5))]
                rows, pivots = linalg.echelon(dict(enumerate(row))
                                              for row in mat)
                assert sorted(pivots) == dense_rref(mat)[1]
                for i, (row, p) in enumerate(zip(rows, pivots)):
                    assert all(type(x) is int for x in row.values())
                    assert gcd(*row.values()) == 1
                    assert p == min(row) and row[p] > 0
                    read = next(k for k in range(1, len(mat) + 1)
                                if len(dense_rref(mat[:k])[1]) == i + 1)
                    ref, ref_pivots = dense_rref(mat[:read])
                    assert [row.get(k, 0) for k in range(n)] == [
                        row[p] * x for x in ref[ref_pivots.index(p)]]


class TestNullspace:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(99)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            mat = [random_vector(rng, cols) for _ in range(rows)]
            null = linalg.nullspace(mat, cols)
            for v in null:
                assert all(x == 0 for x in linalg.mat_vec(mat, v))
            assert len(null) == cols - linalg.rank_exact(mat)


class TestInvertSolve:
    def test_invert_round_trip(self):
        rng = random.Random(4242)
        for _ in range(25):
            n = rng.randint(1, 5)
            mat = random_invertible(rng, n)
            inv = linalg.invert(mat)
            prod = linalg.matmul(mat, inv)
            eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
            assert prod == eye

    def test_invert_singular_raises(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.invert([[1, 2], [2, 4]])
