"""Exact linear algebra over the rationals.

Matrices are sequences of row sequences of ``fractions.Fraction`` (plain
ints are accepted and coerced).  Everything here is exact: ranks come from
fraction-free (Bareiss) elimination on denominator-cleared integer rows,
subspaces are canonicalized by reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]


class SingularMatrixError(ValueError):
    pass


class InconsistentSystemError(ValueError):
    pass


class WorkLimitError(ArithmeticError):
    """An elimination stopped before a step that would pass its work limit."""


def as_fraction_rows(mat) -> list[list[Fraction]]:
    return [[x if type(x) is Fraction else Fraction(x) for x in row]
            for row in mat]


def cleared_int_rows(mat) -> list[list[int]]:
    # scale each row by the lcm of its denominators; rank is unaffected
    out = []
    for row in mat:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        fr = [Fraction(x) for x in row]
        scale = 1
        for x in fr:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        out.append([int(x * scale) for x in fr])
    return out


def bareiss(a: list[list], size=None, limit: int | None = None):
    """Fraction-free (Bareiss) elimination in place over an integral domain.

    Entries are ints or ``Poly``s: anything with ``*``, ``-``, truth and an
    exact ``//``; Sylvester's identity makes each division by the previous
    pivot exact.  Returns (rank, last pivot), that pivot being up to sign
    the minor on the pivot rows and columns (None at rank 0).  The pivot is
    the first nonzero entry of the next column, or with ``size`` (a Poly's
    term count) the smallest nonzero entry left.  ``limit`` caps the sum of
    size(x) * size(y) over the products formed: a step that would pass it
    raises WorkLimitError instead.
    """
    n_rows = len(a)
    cols = list(range(len(a[0]) if a else 0))
    prev = None
    row = spent = 0
    while row < n_rows and cols:
        if size is None:
            col = cols.pop(0)
            piv = next((r for r in range(row, n_rows) if a[r][col]), None)
            if piv is None:
                continue
        else:
            nonzero = [(size(a[r][c]), r, c) for r in range(row, n_rows)
                       for c in cols if a[r][c]]
            if not nonzero:
                break
            _, piv, col = min(nonzero)
            cols.remove(col)
        a[row], a[piv] = a[piv], a[row]
        p = a[row][col]
        rows = range(row + 1, n_rows)
        if limit is not None:
            spent += (size(p) * sum(size(a[r][c]) for r in rows for c in cols)
                      + sum(size(a[r][col]) for r in rows)
                      * sum(size(a[row][c]) for c in cols))
            if spent > limit:
                raise WorkLimitError(f"elimination would form more than "
                                     f"{limit} term products")
        for r in rows:
            lead = a[r][col]
            for c in cols:
                v = a[r][c] * p - lead * a[row][c]
                a[r][c] = v if prev is None else v // prev
        prev = p
        row += 1
    return row, prev


def rank_exact(mat) -> int:
    """Exact rank: Bareiss elimination on rows cleared to integers."""
    return bareiss(cleared_int_rows(mat))[0]


def rref(mat) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot_columns).

    Zero rows are dropped, so the rows are a canonical basis of the row
    space.
    """
    a = as_fraction_rows(mat)
    if not a:
        return [], []
    n_rows, n_cols = len(a), len(a[0])
    pivots: list[int] = []
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


def reduce_against(vec, rref_rows, pivots) -> list[Fraction]:
    """Residual of vec after elimination by an rref basis (0 iff in row space)."""
    v = [Fraction(x) for x in vec]
    for row, col in zip(rref_rows, pivots):
        if v[col] != 0:
            factor = v[col]
            v = [x - factor * y for x, y in zip(v, row)]
    return v


def in_row_space(vec, rref_rows, pivots) -> bool:
    return all(x == 0 for x in reduce_against(vec, rref_rows, pivots))


def nullspace(mat, n_cols: int | None = None) -> list[list[Fraction]]:
    """Canonical basis of the right kernel {v : mat @ v = 0}."""
    rows = as_fraction_rows(mat)
    if n_cols is None:
        if not rows:
            raise ValueError("n_cols required for an empty matrix")
        n_cols = len(rows[0])
    r, pivots = rref(rows) if rows else ([], [])
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


def left_nullspace(mat, n_rows: int | None = None) -> list[list[Fraction]]:
    """Canonical basis of {a : a @ mat = 0}."""
    rows = as_fraction_rows(mat)
    if n_rows is None:
        n_rows = len(rows)
    if n_rows == 0:
        return []
    if not rows or not rows[0]:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(n_rows)]
                for i in range(n_rows)]
    transposed = [list(col) for col in zip(*rows)]
    return nullspace(transposed, n_cols=n_rows)


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


def solve_exact(mat, rhs) -> list[Fraction]:
    """One exact solution of mat @ x = rhs (free variables set to 0)."""
    a = as_fraction_rows(mat)
    b = [Fraction(x) for x in rhs]
    if len(a) != len(b):
        raise ValueError("rhs length mismatch")
    if not a:
        return []
    n_cols = len(a[0])
    aug = [row + [bv] for row, bv in zip(a, b)]
    r, pivots = rref(aug)
    if n_cols in pivots:
        raise InconsistentSystemError("system has no solution")
    x = [Fraction(0)] * n_cols
    for row, col in zip(r, pivots):
        x[col] = row[-1]
    return x


def matmul(a, b) -> list[list[Fraction]]:
    a = as_fraction_rows(a)
    b = as_fraction_rows(b)
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def mat_vec(a, v) -> list[Fraction]:
    return [sum((x * Fraction(y) for x, y in zip(row, v)), Fraction(0)) for row in a]


def dot(u, v) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(u, v) if x and y),
               Fraction(0))
