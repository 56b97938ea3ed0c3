"""Exact linear algebra over the rationals.

Dense matrices are sequences of rows of ``fractions.Fraction`` or ``int``;
sparse rows are dicts {column: nonzero entry}.  Everything here is exact.
``rank_exact`` is fraction-free (Bareiss) elimination on
denominator-cleared integer rows.  Every span, rank and coordinate of
sparse rows comes from one fraction-free sparse reduction, ``echelon``,
which returns an echelon basis in primitive integer rows: it never visits a
zero entry, drops a zero vector before it meets any row, and clears a
rational vector to integers on entry; the brackets of the integer table
and the columns of the integer moment pencil arrive as integers.  Rref,
kernels and inverses scale its rows to pivot 1 once and back-substitute.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]
Sparse = dict[int, Fraction]  # a row's nonzero entries by column


class SingularMatrixError(ValueError):
    pass


class WorkLimitError(ArithmeticError):
    """An elimination stopped before a step that would pass its work limit."""


def cleared_int_rows(mat) -> list[list[int]]:
    # scale each row by the lcm of its denominators; rank is unaffected
    out = []
    for row in mat:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
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


def sparse_rows(mat) -> list[Sparse]:
    """The nonzero entries of each row, as {column: Fraction}; a row may
    already be sparse, a dict {column: value}."""
    return [{k: x if type(x) is Fraction else Fraction(x)
             for k, x in (row.items() if isinstance(row, dict)
                          else enumerate(row)) if x} for row in mat]


def cleared(row: Sparse) -> tuple[dict[int, int], int]:
    """A sparse rational row as (integer row, d), d the lcm of its
    denominators: the row is the integer row divided by d."""
    d = lcm(*(x.denominator for x in row.values()))
    return {k: x.numerator * (d // x.denominator) for k, x in row.items()}, d


def dense_rows(rows, n_cols: int) -> list[list[Fraction]]:
    """Sparse rows as length-n_cols lists of Fractions."""
    out = []
    for row in rows:
        v = [Fraction(0)] * n_cols
        for k, x in row.items():
            v[k] = x
        out.append(v)
    return out


def reduce_in_place(w: Sparse, rows, pivots) -> list:
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


def echelon(vectors,
            limit: int | None = None) -> tuple[list[Sparse], list[int]]:
    """Echelon basis (rows, pivots) of the span of sparse rational vectors,
    in primitive integer rows, fraction-free (Bareiss 1968).

    A zero vector is skipped before it meets any row, and a vector with a
    ``Fraction`` entry is cleared to integers first.  Each
    vector w is then reduced by the rows so far: at the pivot column of a
    row with entry p there, w <- p w - w_p row, both factors divided by
    gcd(p, w_p) first.  A nonzero residue becomes a row with its first
    nonzero column as pivot, divided by the gcd of its entries and signed
    to a positive pivot entry.  So each row is 0 at the pivots of the rows
    before it, and is a positive multiple of the rref row at its pivot of
    the span of the vectors read so far.  With ``limit``, stops once it has
    that many rows.
    """
    rows: list[Sparse] = []
    pivots: list[int] = []
    for v in vectors:
        w = {k: x for k, x in v.items() if x}
        if not w:
            continue
        if Fraction in map(type, w.values()):
            w = cleared(w)[0]
        for row, col in zip(rows, pivots):
            f = w.get(col)
            if not f:
                continue
            p = row[col]
            g = gcd(p, f)
            if g != 1:
                p, f = p // g, f // g
            if p != 1:
                w = {k: p * x for k, x in w.items()}
            for k, y in row.items():
                x = w.get(k, 0) - f * y
                if x:
                    w[k] = x
                else:
                    del w[k]
        if not w:
            continue
        col = min(w)
        content = gcd(*w.values()) if w[col] > 0 else -gcd(*w.values())
        if content != 1:
            w = {k: x // content for k, x in w.items()}
        rows.append(w)
        pivots.append(col)
        if len(rows) == limit:
            break
    return rows, pivots


def rref_sparse(rows) -> tuple[list[Sparse], list[int]]:
    """Reduced row echelon form of sparse rows, ordered by pivot, in
    ``Fraction`` entries.

    ``echelon``'s rows are scaled to 1 at their pivots once.  A row can
    then be nonzero only at the pivots of later rows, so clearing each
    pivot from the rows before it, last row first, leaves every row 0 at
    every other pivot.
    """
    rows, pivots = echelon(rows)
    rows = [{k: Fraction(x, row[col]) for k, x in row.items()}
            for row, col in zip(rows, pivots)]
    for s in range(len(rows) - 1, 0, -1):
        for row in rows[:s]:
            if pivots[s] in row:
                reduce_in_place(row, rows[s:s + 1], pivots[s:s + 1])
    order = sorted(range(len(rows)), key=pivots.__getitem__)
    return [rows[i] for i in order], [pivots[i] for i in order]


def rref(mat) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot_columns).

    Zero rows are dropped, so the rows are a canonical basis of the row
    space.
    """
    rows, pivots = rref_sparse(sparse_rows(mat))
    return dense_rows(rows, len(mat[0]) if mat else 0), pivots


def nullspace(mat, n_cols: int | None = None) -> list[list[Fraction]]:
    """Canonical basis of the right kernel {v : mat @ v = 0}; rows may be
    sparse, given n_cols."""
    if n_cols is None:
        if not mat:
            raise ValueError("n_cols required for an empty matrix")
        n_cols = len(mat[0])
    rows, pivots = rref_sparse(sparse_rows(mat))
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            if free in row:
                v[col] = -row[free]
        basis.append(v)
    return basis


def invert(mat) -> list[list[Fraction]]:
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("inversion requires a square matrix")
    aug = sparse_rows(mat)
    for i, row in enumerate(aug):
        row[n + i] = Fraction(1)
    rows, pivots = rref_sparse(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return dense_rows(({k - n: x for k, x in row.items() if k >= n}
                       for row in rows), n)


def matmul(a, b) -> list[list[Fraction]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    columns = list(zip(*b))
    return [[dot(row, col) for col in columns] for row in a]


def mat_vec(a, v) -> list[Fraction]:
    return [dot(row, v) for row in a]


def dot(u, v) -> Fraction:
    return sum((x * y for x, y in zip(u, v) if x and y), Fraction(0))
