"""The integer kernels of ``linalg`` against textbook dense elimination.

``exact`` holds Gauss-Jordan loops over full rows of ``Fraction``, written
without ``linalg``.  On random rational matrices, with zero rows and
columns, repeated and rescaled rows, negative and non-unit pivots, and
empty and 1 x 1 shapes, ``integer_rref``'s rows over their pivot entries
must be the rref rows, ``integer_kernel``'s vectors over their free
entries the canonical kernel, ``residue`` a positive multiple of the
reduction by the rref rows, ``univariate._scaled_inverse`` a positive
multiple of the inverse (None exactly when the matrix is singular), and
``matmul`` the product.  ``echelon`` must give the rows and pivots of
``exact.echelon`` on vectors that meet its one-entry rows: one-term
vectors with coefficients other than +-1, repeated, and one-term vectors
at the pivot of a row with several entries, which lie outside the span.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitadm import linalg, univariate

import exact
from exact import (SingularMatrixError, cleared, invert, matmul, nullspace,
                   reduce_against, rref, sparse_rows)


def integer_rref(mat):
    return linalg.integer_rref(dict(enumerate(row)) for row in mat)


def over_pivots(rows, pivots, n_cols):
    """Integer rref rows divided by their pivot entries, dense."""
    return [[Fraction(row.get(k, 0), row[p]) for k in range(n_cols)]
            for row, p in zip(rows, pivots)], pivots


def canonical(kernel, n_cols):
    """Integer kernel vectors divided by their entries at their free
    columns, dense."""
    return [[Fraction(v.get(k, 0), next(iter(v.values())))
             for k in range(n_cols)] for v in kernel]


def outcome(fn, *args):
    """fn's result, or the type of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


# zero weighted up; plain ints beside Fractions, which echelon clears
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
    n_cols = len(mat[0]) if mat else 3
    assert over_pivots(*integer_rref(mat), n_cols) == rref(mat)
    kernel = linalg.integer_kernel(sparse_rows(mat), n_cols)
    assert all(type(x) is int for v in kernel for x in v.values())
    assert canonical(kernel, n_cols) == nullspace(mat, n_cols)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_reduce_against_an_rref_basis(data):
    # residue by integer rref rows is d times the reduction by the rref
    # rows, d the lcm of their pivot entries, and 0 exactly in their span
    n = data.draw(st.integers(1, 6))
    mat = data.draw(matrices(n_cols=n))
    rows, pivots = integer_rref(mat)
    rref_rows, _ = rref(mat)
    d = lcm(*(row[p] for row, p in zip(rows, pivots)))
    free = data.draw(vectors(n))
    coeffs = data.draw(vectors(len(mat)))
    inside = [sum((c * row[k] for c, row in zip(coeffs, mat)), Fraction(0))
              for k in range(n)]
    vecs = (free, inside)
    scaled = [cleared(sparse_rows([vec])[0]) for vec in vecs]
    residues = list(linalg.residue((w for w, _ in scaled), rows, pivots))
    for vec, (_, q), got in zip(vecs, scaled, residues):
        assert all(type(x) is int and x for x in got.values())
        assert [got.get(k, 0) for k in range(n)] == [
            d * q * x for x in reduce_against(vec, rref_rows, pivots)]
    assert not residues[1]


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_invert(data):
    n = data.draw(st.integers(1, 5))
    mat = data.draw(matrices(n_rows=n, n_cols=n))
    got = univariate._scaled_inverse(mat)
    try:
        expected = invert(mat)
    except SingularMatrixError:
        assert got is None
        return
    e = next(x / y for gr, er in zip(got, expected)
             for x, y in zip(gr, er) if y)
    assert e > 0 and e.denominator == 1
    assert got == [[e * y for y in row] for row in expected]


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_products(data):
    inner = data.draw(st.integers(0, 5))
    a = data.draw(matrices(n_cols=inner))
    b = data.draw(matrices(n_rows=inner))
    got = outcome(linalg.matmul, a, b)
    assert got == outcome(matmul, a, b)
    if isinstance(got, type):
        return
    # integer matrices multiply in ints
    d = lcm(*(Fraction(x).denominator for m in (a, b) for row in m
              for x in row))
    ia, ib = ([[int(x * d) for x in row] for row in m] for m in (a, b))
    product = linalg.matmul(ia, ib)
    assert all(type(x) is int for row in product for x in row)
    assert product == [[d * d * x for x in row] for row in got]


@st.composite
def unit_heavy_vectors(draw):
    """(vectors, n_cols): one-term vectors with coefficients other than
    +-1, some repeated or rescaled, among vectors with several entries,
    some followed by one-term vectors at their first column."""
    n = draw(st.integers(2, 6))
    column = st.integers(0, n - 1)
    coefficient = st.one_of(
        st.integers(-6, 6).filter(lambda q: q not in (-1, 0, 1)),
        st.builds(Fraction, st.integers(-6, 6).filter(bool),
                  st.integers(2, 4)))
    vectors = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 3))
        if kind == 0 or not vectors:  # a one-term vector
            vectors.append({draw(column): draw(coefficient)})
        elif kind == 1:  # a repeat, as it was or rescaled
            v = draw(st.sampled_from(vectors))
            q = draw(st.sampled_from([1, -1, 3, Fraction(-2, 5)]))
            vectors.append({k: q * x for k, x in v.items()})
        else:  # several entries, then perhaps a one-term vector at the first
            keys = sorted(draw(st.sets(column, min_size=2, max_size=4)))
            vectors.append({k: draw(coefficient) for k in keys})
            if kind == 3:
                vectors.append({keys[0]: draw(coefficient)})
    return vectors, n


@settings(max_examples=400, deadline=None, database=None)
@given(drawn=unit_heavy_vectors(),
       limit=st.one_of(st.none(), st.integers(1, 4)))
# {0: 5} meets the row {0: 2, 1: 3} at its pivot and adds the row {1: 1}
@example(drawn=([{0: 2, 1: 3}, {0: 5}, {1: -4}, {0: 7}], 2), limit=None)
# repeats of a one-term vector, and a vector on two unit rows
@example(drawn=([{2: -3}, {2: Fraction(1, 2)}, {0: 4}, {2: 6, 0: -8}], 3),
         limit=None)
def test_echelon_on_one_term_vectors(drawn, limit):
    vectors, n = drawn
    assert linalg.echelon(vectors, limit) == exact.echelon(vectors, n, limit)


@pytest.mark.parametrize("mat, pivots", [
    ([], []), ([[]], []), ([[0]], []), ([[-3]], [0]),
    ([[Fraction(2, 3)]], [0]), ([[0, 0], [0, 0]], []),
    ([[0, -2], [0, 4]], [1]),
])
def test_small_shapes(mat, pivots):
    n_cols = len(mat[0]) if mat else 0
    assert over_pivots(*integer_rref(mat), n_cols) == rref(mat)
    assert integer_rref(mat)[1] == pivots
