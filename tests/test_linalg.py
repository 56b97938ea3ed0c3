import random
from fractions import Fraction
from math import gcd

from orbitadm import linalg, univariate

from conftest import random_invertible, random_vector
from exact import mat_vec, matmul, nullspace, rank, rref


def F(x):
    return Fraction(x)


def echelon_rank(mat) -> int:
    return len(linalg.echelon(dict(enumerate(row)) for row in mat)[0])


class TestRank:
    def test_single_pivot(self):
        assert echelon_rank([[0, 0, -1], [0, 0, 0]]) == 1

    def test_zero_matrix(self):
        assert echelon_rank([[0, 0], [0, 0]]) == 0

    def test_identity(self):
        eye = [[int(i == j) for j in range(3)] for i in range(3)]
        assert echelon_rank(eye) == 3

    def test_empty(self):
        assert echelon_rank([]) == 0

    def test_fractions_cleared(self):
        mat = [[F("1/2"), F("1/3")], [F("1/4"), F("1/6")]]
        # second row is half the first: rank 1
        assert echelon_rank(mat) == 1

    def test_agrees_with_rref_pivot_count(self):
        rng = random.Random(20240811)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            mat = [random_vector(rng, cols) for _ in range(rows)]
            assert echelon_rank(mat) == rank(mat)


class TestRref:
    def test_canonical_form(self):
        rows, pivots = linalg.integer_rref([{0: 2, 1: 4}, {0: 1, 1: 2}])
        assert (rows, pivots) == ([{0: 1, 1: 2}], [0])
        rows, pivots = linalg.integer_rref([{0: 2, 1: 1}, {0: 2, 1: 3}])
        assert (rows, pivots) == ([{0: 1}, {1: 1}], [0, 1])

    def test_row_space_membership(self):
        # residues modulo [1, 0, 2, 0], [0, 1, 3, 0]: 0 in the span,
        # otherwise the part outside it
        rows, pivots = linalg.integer_rref([{0: 1, 2: 2}, {1: 1, 2: 3}])

        vectors = [[2, 3, 13, 0], [0, 0, 0, 1], [2, 3, 12, 0]]
        assert list(linalg.residue(
            ({k: x for k, x in enumerate(vec) if x} for vec in vectors),
            rows, pivots)) == [{}, {3: 1}, {2: -1}]
        # pivot entries 2 and 3 scale every residue by their lcm, 6
        rows, pivots = linalg.integer_rref([{0: 2, 2: 1}, {1: 3, 2: 1}])
        assert (rows, pivots) == ([{0: 2, 2: 1}, {1: 3, 2: 1}], [0, 1])
        assert list(linalg.residue([{0: 2, 1: 3, 2: 2}, {2: 1}], rows,
                                   pivots)) == [{}, {2: 6}]
        assert list(linalg.residue([], rows, pivots)) == []


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
                assert sorted(pivots) == rref(mat)[1]
                for i, (row, p) in enumerate(zip(rows, pivots)):
                    assert all(type(x) is int for x in row.values())
                    assert gcd(*row.values()) == 1
                    assert p == min(row) and row[p] > 0
                    read = next(k for k in range(1, len(mat) + 1)
                                if len(rref(mat[:k])[1]) == i + 1)
                    ref, ref_pivots = rref(mat[:read])
                    assert [row.get(k, 0) for k in range(n)] == [
                        row[p] * x for x in ref[ref_pivots.index(p)]]


class TestNullspace:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(99)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            mat = [random_vector(rng, cols) for _ in range(rows)]
            kernel = linalg.integer_kernel(
                [dict(enumerate(row)) for row in mat], cols)
            dense = [[v.get(k, 0) for k in range(cols)] for v in kernel]
            for v in dense:
                assert all(x == 0 for x in mat_vec(mat, v))
            assert len(kernel) == cols - rank(mat)
            # each is a positive multiple of a canonical kernel vector
            assert [[F(x) / v[next(iter(kernel[i]))] for x in v]
                    for i, v in enumerate(dense)] == nullspace(mat, cols)


class TestInvertSolve:
    def test_invert_round_trip(self):
        rng = random.Random(4242)
        for _ in range(25):
            n = rng.randint(1, 5)
            mat = random_invertible(rng, n)
            inv = univariate._scaled_inverse(mat)
            prod = matmul(mat, inv)
            e = prod[0][0]
            eye = [[e * int(i == j) for j in range(n)] for i in range(n)]
            assert e > 0 and prod == eye

    def test_singular_has_no_inverse(self):
        assert univariate._scaled_inverse([[1, 2], [2, 4]]) is None
