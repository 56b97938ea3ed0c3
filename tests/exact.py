"""Textbook exact linear algebra over the rationals, the tests' reference.

Dense Gauss-Jordan elimination over full rows of ``Fraction``: the
reduced row echelon form, rank, nullspace, inverse and products.  It is
written without ``orbitadm.linalg``, so the program's integer kernels
(``echelon``, ``integer_rref``, ``integer_kernel``, ``residue``) are
checked against an independent computation, not against themselves.
Matrices are sequences of rows of ints or ``Fraction``s; every result
entry is a ``Fraction``.

The sparse helpers at the end (rows as {column: nonzero entry}) serve the
references of ``test_fraction_free.py``, which are kept as the program
had them before its elimination became fraction-free.

One reference is not exact: ``expm``, the numpy matrix exponential that
``orbitadm.geometry`` used before its kernels became plain Python, against
which they are now checked.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np


class SingularMatrixError(ValueError):
    pass


def as_fraction_rows(mat) -> list[list[Fraction]]:
    return [[x if type(x) is Fraction else Fraction(x) for x in row]
            for row in mat]


def rref(mat) -> tuple[list[list[Fraction]], list[int]]:
    """(rows, pivots): the reduced row echelon form, zero rows dropped."""
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


def rank(mat) -> int:
    return len(rref(mat)[1])


def reduce_against(vec, rref_rows, pivots) -> list[Fraction]:
    """vec minus its part in the span of rref rows: 0 at every pivot."""
    v = [Fraction(x) for x in vec]
    for row, col in zip(rref_rows, pivots):
        if v[col] != 0:
            factor = v[col]
            v = [x - factor * y for x, y in zip(v, row)]
    return v


def nullspace(mat, n_cols=None) -> list[list[Fraction]]:
    """The canonical basis of {v : mat v = 0}: for each free column c, the
    vector with 1 at c and 0 at the other free columns."""
    rows = as_fraction_rows(mat)
    if n_cols is None:
        if not rows:
            raise ValueError("n_cols required for an empty matrix")
        n_cols = len(rows[0])
    r, pivots = rref(rows)
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


def invert(mat) -> list[list[Fraction]]:
    a = as_fraction_rows(mat)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inversion requires a square matrix")
    aug = [row + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(a)]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in r]


def dot(u, v) -> Fraction:
    return sum((x * y for x, y in zip(u, v) if x and y), Fraction(0))


def mat_vec(a, v) -> list[Fraction]:
    return [dot(row, v) for row in a]


def matmul(a, b) -> list[list[Fraction]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    columns = list(zip(*b))
    return [[dot(row, col) for col in columns] for row in a]


# --- sparse rows ------------------------------------------------------------


def sparse_rows(mat) -> list[dict]:
    """The nonzero entries of each row, as {column: Fraction}; a row may
    already be sparse, a dict {column: value}."""
    return [{k: x if type(x) is Fraction else Fraction(x)
             for k, x in (row.items() if isinstance(row, dict)
                          else enumerate(row)) if x} for row in mat]


def dense_rows(rows, n_cols: int) -> list[list[Fraction]]:
    """Sparse rows as length-n_cols lists of Fractions."""
    out = []
    for row in rows:
        v = [Fraction(0)] * n_cols
        for k, x in row.items():
            v[k] = x
        out.append(v)
    return out


def cleared(row: dict) -> tuple[dict[int, int], int]:
    """A sparse rational row as (integer row, d), d the lcm of its
    denominators: the row is the integer row divided by d."""
    d = lcm(*(x.denominator for x in row.values()))
    return {k: x.numerator * (d // x.denominator) for k, x in row.items()}, d


def cleared_int_rows(mat) -> list[list[int]]:
    """Each dense row scaled by the lcm of its denominators."""
    out = []
    for row in as_fraction_rows(mat):
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def reduce_in_place(w: dict, rows, pivots) -> list:
    """Reduce the sparse w in place by echelon rows, in order: at each pivot
    the factor w[col] / row[col] takes the row away, so w ends 0 at every
    pivot, and the factors are its coordinates in the rows as stored when
    it lies in their span."""
    factors = []
    for row, col in zip(rows, pivots):
        f = w.get(col, 0)
        if f:
            p = row[col]
            if p != 1:
                f = Fraction(f, p)
            for k, y in row.items():
                x = w.get(k, 0) - f * y
                if x:
                    w[k] = x
                else:
                    del w[k]
        factors.append(f)
    return factors


def expm(A) -> np.ndarray:
    """Matrix exponential in numpy: scaling and squaring around a Taylor
    core, whose terms are added until they fall below 1e-18."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    norm = np.linalg.norm(A, 1)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        A = A / (2.0 ** squarings)
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 40):
        term = term @ A / k
        result = result + term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(squarings):
        result = result @ result
    return result
