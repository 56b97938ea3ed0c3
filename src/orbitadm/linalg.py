"""Exact linear algebra over the rationals, in integers.

Sparse rows are dicts {column: nonzero entry}.  Every span, rank,
coordinate and kernel comes from one fraction-free sparse reduction,
``echelon``, which returns an echelon basis in primitive integer rows,
clearing a rational vector to integers on entry.  One back-substitution
over its rows, ``integer_rref``, gives the reduced echelon form in
primitive integer rows, ``integer_kernel`` a kernel basis in integer
vectors, ``residue`` vectors modulo their span, times one integer, and
``coordinates`` vectors of their span on them, times one integer.
``matmul`` multiplies dense matrices.  Nothing here forms a
``Fraction``.  ``WorkLimitError`` is the error of ``poly.bareiss``, kept
here so that a caller can catch it without loading the polynomials.
"""

from __future__ import annotations

from math import gcd, lcm


class WorkLimitError(ArithmeticError):
    """An elimination stopped before a step that would pass its work limit."""


def echelon(vectors,
            limit: int | None = None) -> tuple[list[dict], list[int]]:
    """Echelon basis (rows, pivots) of the span of sparse rational vectors,
    in primitive integer rows, fraction-free (Bareiss 1968).

    A zero vector is skipped before it meets any row, and a vector with an
    entry other than an int (a ``Fraction``) is cleared to integers first,
    by the lcm of the denominators.  A vector that is 0 at
    every pivot so far (a set of them is kept) becomes a row at once, as
    the walk below would leave it unchanged.  Any other
    vector w is reduced by the rows so far: at the pivot column of a
    row with entry p there, w <- p w - w_p row, both factors divided by
    gcd(p, w_p) first.  A nonzero residue becomes a row with its first
    nonzero column as pivot, divided by the gcd of its entries and signed
    to a positive pivot entry.  So each row is 0 at the pivots of the rows
    before it, and is a positive multiple of the rref row at its pivot of
    the span of the vectors read so far.  With ``limit``, stops once it has
    that many rows.
    """
    rows: list[dict] = []
    pivots: list[int] = []
    taken: set[int] = set()
    for v in vectors:
        w = {k: x for k, x in v.items() if x}
        if not w:
            continue
        if not all(type(x) is int for x in w.values()):
            d = lcm(*(x.denominator for x in w.values()))
            w = {k: x.numerator * (d // x.denominator) for k, x in w.items()}
        if not taken.isdisjoint(w):
            for row, col in zip(rows, pivots):
                f = w.get(col)
                if f:
                    w = _take_away(w, row, col, f)
            if not w:
                continue
        col = min(w)
        rows.append(_primitive(w, col))
        pivots.append(col)
        taken.add(col)
        if len(rows) == limit:
            break
    return rows, pivots


def _take_away(w: dict, row: dict, col: int, f: int) -> dict:
    """p w - f row, with p = row[col] > 0 and f = w[col] != 0 both divided
    by their gcd first: a positive multiple of w, 0 at col."""
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
    return w


def _primitive(w: dict, col: int) -> dict:
    """w divided by the gcd of its entries, signed to a positive entry at
    col."""
    content = gcd(*w.values()) if w[col] > 0 else -gcd(*w.values())
    return w if content == 1 else {k: x // content for k, x in w.items()}


def integer_rref(vectors) -> tuple[list[dict[int, int]], list[int]]:
    """The reduced row echelon form of the span of sparse rational vectors,
    fraction-free: (rows, pivots), ordered by pivot, in primitive integer
    rows, each signed to a positive pivot entry.

    ``echelon``'s rows are each 0 at the pivots of the rows before them.
    Back-substitution runs last row first, so the rows after a row are
    reduced when it comes: it takes each of them away at its pivot once,
    as row <- p row - w_p that row (both factors divided by their gcd,
    p > 0), which brings in no entry at another pivot, and is then divided
    by its content.  Every row ends 0 at every other pivot, a positive
    multiple of the rref row: row / p is the rref row, and since that has a
    1 at its pivot, the row is the rref row cleared to integers.
    """
    rows, pivots = echelon(vectors)
    position = {col: t for t, col in enumerate(pivots)}
    for r in range(len(rows) - 2, -1, -1):
        w = rows[r]
        later = [position[k] for k in w if k in position and k != pivots[r]]
        for t in later:
            w = _take_away(w, rows[t], pivots[t], w[pivots[t]])
        if later:
            rows[r] = _primitive(w, pivots[r])
    order = sorted(range(len(rows)), key=pivots.__getitem__)
    return [rows[i] for i in order], [pivots[i] for i in order]


def integer_kernel(rows, n_cols: int) -> list[dict[int, int]]:
    """A basis of the right kernel of sparse rows with n_cols columns, in
    sparse integer vectors: for each free column c (not a pivot of
    ``integer_rref``), the vector with c-th entry d, the lcm of the pivot
    entries of the rows that hold c, and -row[c] d / row[pivot] at each
    such row's pivot, c its first key.  It is a positive multiple of the
    canonical kernel vector, whose c-th entry is 1."""
    rows, pivots = integer_rref(rows)
    pivot_set = set(pivots)
    hits: dict[int, list] = {}
    for row, col in zip(rows, pivots):
        for k, x in row.items():
            if k != col:
                hits.setdefault(k, []).append((col, x, row[col]))
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        found = hits.get(free, ())
        d = lcm(*(p for _, _, p in found))
        v = {free: d}
        for col, x, p in found:
            v[col] = -x * (d // p)
        basis.append(v)
    return basis


def residue(vectors, rows, pivots):
    """Yield, for each sparse vector a, d a minus its part in the span of
    ``integer_rref`` rows, d the lcm of their pivot entries, formed once:
    0 at every pivot, and 0 exactly when a lies in the span.  One d for
    every a, so a linear relation among residues is one among the a modulo
    the span."""
    d = lcm(*(row[col] for row, col in zip(rows, pivots)))
    for a in vectors:
        out = {i: d * c for i, c in a.items() if c}
        for row, col in zip(rows, pivots):
            f = a.get(col)
            if f:
                f *= d // row[col]
                for i, c in row.items():
                    v = out.get(i, 0) - f * c
                    if v:
                        out[i] = v
                    else:
                        del out[i]
        yield out


def coordinates(vectors, rows, pivots) -> list[list[int]]:
    """The integer matrix whose column t holds the coordinates of
    vectors[t], which lies in the span of the ``integer_rref`` rows, on
    those rows, times e, the lcm of their pivot entries: w[pivot] / p on
    the row with pivot entry p.  In the basis of the rows scaled to pivot
    entry 1 the matrix is e times its rational one and conjugate to it by
    a positive diagonal matrix, which keeps triangularity and every
    eigenvalue's place on or off the real and imaginary axes."""
    e = lcm(*(row[p] for row, p in zip(rows, pivots)))
    return [[w.get(p, 0) * (e // row[p]) for w in vectors]
            for row, p in zip(rows, pivots)]


def matmul(a, b) -> list[list]:
    """The product of dense matrices, in the entries' own arithmetic."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns]
            for row in a]
