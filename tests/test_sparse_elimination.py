"""The sparse elimination kernel against the dense routines it replaced.

``dense_rref``, ``dense_reduce_against``, ``dense_nullspace`` and
``dense_invert`` are the Gauss-Jordan loops over full rows of ``Fraction``
that ``linalg`` used before its readers were built on ``linalg.echelon``; ``dense_matmul``, ``dense_mat_vec`` and
``dense_dot`` wrapped every entry in ``Fraction`` and multiplied zeros
too.  On random rational matrices, with zero rows and columns, repeated
and rescaled rows, negative and non-unit pivots, and empty and 1 x 1
shapes, the linalg functions must return exactly what the references
return, entries of type ``Fraction`` included, and raise
SingularMatrixError in the same cases.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitadm import linalg
from orbitadm.linalg import SingularMatrixError


def as_fraction_rows(mat):
    return [[x if type(x) is Fraction else Fraction(x) for x in row]
            for row in mat]


def dense_rref(mat):
    a = as_fraction_rows(mat)
    if not a:
        return [], []
    n_rows, n_cols = len(a), len(a[0])
    pivots = []
    row = 0
    for col in range(n_cols):
        piv = None
        for r in range(row, n_rows):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
        inv = a[row][col]
        a[row] = [x / inv for x in a[row]]
        for r in range(n_rows):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return a[: len(pivots)], pivots


def dense_reduce_against(vec, rref_rows, pivots):
    v = [Fraction(x) for x in vec]
    for row, col in zip(rref_rows, pivots):
        if v[col] != 0:
            factor = v[col]
            v = [x - factor * y for x, y in zip(v, row)]
    return v


def dense_nullspace(mat, n_cols=None):
    rows = as_fraction_rows(mat)
    if n_cols is None:
        if not rows:
            raise ValueError("n_cols required for an empty matrix")
        n_cols = len(rows[0])
    r, pivots = dense_rref(rows) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for row, col in zip(r, pivots):
            v[col] = -row[free]
        basis.append(v)
    return basis


def dense_invert(mat):
    a = as_fraction_rows(mat)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inversion requires a square matrix")
    aug = [row + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(a)]
    r, pivots = dense_rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in r]


def dense_matmul(a, b):
    a = as_fraction_rows(a)
    b = as_fraction_rows(b)
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def dense_dot(u, v):
    return sum((Fraction(x) * Fraction(y) for x, y in zip(u, v) if x and y),
               Fraction(0))


def dense_mat_vec(a, v):
    return [sum((x * Fraction(y) for x, y in zip(row, v)), Fraction(0))
            for row in a]


def outcome(fn, *args):
    """fn's result, or the type of the error it raised."""
    try:
        return fn(*args)
    except (SingularMatrixError, ValueError) as exc:
        return type(exc)


def all_fractions(result) -> bool:
    if isinstance(result, type):
        return True
    rows = result if result and isinstance(result[0], list) else [result]
    return all(type(x) is Fraction for row in rows for x in row)


# zero weighted up; plain ints beside Fractions, which the readers coerce
entries = st.one_of(
    st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def matrices(draw, n_rows=None, n_cols=None):
    """A rational matrix, with some rows and columns zeroed and some rows
    repeated or rescaled, so that pivots are missing, negative or not 1."""
    n_rows = draw(st.integers(0, 6)) if n_rows is None else n_rows
    n_cols = draw(st.integers(0, 6)) if n_cols is None else n_cols
    mat = [[draw(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows and n_cols:
        for c in draw(st.lists(st.integers(0, n_cols - 1), max_size=2)):
            for row in mat:
                row[c] = 0
        for r in draw(st.lists(st.integers(0, n_rows - 1), max_size=2)):
            mat[r] = [0] * n_cols
        for dst, src, q in draw(st.lists(st.tuples(
                st.integers(0, n_rows - 1), st.integers(0, n_rows - 1),
                st.sampled_from([1, -1, 2, Fraction(-3, 2)])), max_size=3)):
            mat[dst] = [q * x for x in mat[src]]
    return mat


def vectors(n: int):
    return st.lists(entries, min_size=n, max_size=n)


@settings(max_examples=300, deadline=None, database=None)
@given(mat=matrices())
def test_rref_nullspace(mat):
    got = linalg.rref(mat)
    assert got == dense_rref(mat)
    assert all_fractions(got[0])
    n_cols = len(mat[0]) if mat else 3
    for args in ((mat, n_cols), (mat,)):
        got = outcome(linalg.nullspace, *args)
        assert got == outcome(dense_nullspace, *args)
        assert all_fractions(got)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_reduce_against_an_rref_basis(data):
    # reduce_in_place by rref rows, and by those rows scaled by nonzero
    # integers, leaves the residual dense_reduce_against gives, and its
    # factors are the coordinates of what it took away in the rows as given
    n = data.draw(st.integers(1, 6))
    mat = data.draw(matrices(n_cols=n))
    rref_rows, pivots = dense_rref(mat)
    scales = data.draw(st.lists(st.integers(-5, 5).filter(bool),
                                min_size=len(pivots), max_size=len(pivots)))
    scaled = [[q * x for x in row] for q, row in zip(scales, rref_rows)]
    free = data.draw(vectors(n))
    coeffs = data.draw(vectors(len(mat)))
    inside = [sum((c * row[k] for c, row in zip(coeffs, mat)), Fraction(0))
              for k in range(n)]
    for rows in (rref_rows, scaled):
        for vec in (free, inside):
            w = linalg.sparse_rows([vec])[0]
            factors = linalg.reduce_in_place(w, linalg.sparse_rows(rows),
                                             pivots)
            got = linalg.dense_rows([w], n)[0]
            assert got == dense_reduce_against(vec, rref_rows, pivots)
            assert all(w.values())
            taken = [sum((f * row[k] for f, row in zip(factors, rows)),
                         Fraction(0)) for k in range(n)]
            assert [a - b for a, b in zip(vec, taken)] == got
        w = linalg.sparse_rows([inside])[0]
        linalg.reduce_in_place(w, linalg.sparse_rows(rows), pivots)
        assert not w


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_invert(data):
    n = data.draw(st.integers(0, 5))
    mat = data.draw(matrices(n_rows=n, n_cols=n))
    got = outcome(linalg.invert, mat)
    assert got == outcome(dense_invert, mat)
    assert all_fractions(got)
    if n:
        assert outcome(linalg.invert, [row[1:] for row in mat]) is ValueError


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_products(data):
    inner = data.draw(st.integers(0, 5))
    a = data.draw(matrices(n_cols=inner))
    b = data.draw(matrices(n_rows=inner))
    got = outcome(linalg.matmul, a, b)
    assert got == outcome(dense_matmul, a, b)
    assert all_fractions(got)
    v = data.draw(vectors(inner))
    assert linalg.mat_vec(a, v) == dense_mat_vec(a, v)
    assert all_fractions(linalg.mat_vec(a, v))
    for row in a:
        got = linalg.dot(row, v)
        assert got == dense_dot(row, v) and type(got) is Fraction


@pytest.mark.parametrize("mat, pivots", [
    ([], []), ([[]], []), ([[0]], []), ([[-3]], [0]),
    ([[Fraction(2, 3)]], [0]), ([[0, 0], [0, 0]], []),
    ([[0, -2], [0, 4]], [1]),
])
def test_small_shapes(mat, pivots):
    assert linalg.rref(mat) == dense_rref(mat)
    assert linalg.rref(mat)[1] == pivots
