"""The induction datum (h, f): subalgebra, unitary character, adapted basis.

The representation under study is induced from the character
chi(exp Y) = e^{i f(Y)} of the subgroup H = exp(h).  ``build_datum``, the
one constructor of a ``MonomialDatum``, checks the two standing hypotheses
(h is a subalgebra, f kills [h, h]), completes the generators Y_1..Y_m to
an adapted basis Y_1..Y_m, X_1..X_{n-m} of g, and builds the affine chart
x -> l for the spectral variety

    A_tau = { l in g* : l(Y) = f(Y) on h }  =  f + h^perp

and the moment pencil over it, stored sparse in integers.  The chart is
read off the graph of f, the rref of the rows (Y_i | f(Y_i)), with no
inverse of the adapted basis.  The datum keeps the adapted basis, f_vals,
the chart and the pencil; the generators are the first m adapted rows.
The generators are cleared to one common denominator once, and every
bracket of two generators, or of a generator and a completing vector, is
formed in the integer table; a pair of generators whose product is
exactly 0 is not formed (``algebra._products``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .algebra import DimensionMismatchError, LieAlgebra, _products
from .linalg import (dense_rows, dot, echelon, reduce_in_place, rref_sparse,
                     sparse_rows)

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
# chart[t]: the nonzero (v, a) pairs, v rising, of coordinate t of the
# chart point l_x, which is sum over v of a x_v, x_0 = 1
Chart = tuple[tuple[tuple[int, Fraction], ...], ...]
# pencil[v][r]: the nonzero (i, c) pairs of column r of M_v, i rising, c an
# int, over the m x (n - m) block; entry (i, r) of M(x) is the sum over v of
# c x_v, x_0 = 1, divided by the datum's denominator
Pencil = tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


class RankDeficientError(ValueError):
    """Candidate generators are linearly dependent."""


class NotClosedError(ValueError):
    """[Y_i, Y_j] escapes the candidate span."""

    def __init__(self, i: int, j: int, residual: Vector):
        self.i, self.j, self.residual = i, j, residual
        super().__init__(
            f"bracket of generators {i} and {j} leaves the span; "
            f"residual {tuple(str(x) for x in residual)}")


class NotACharacterError(ValueError):
    """f does not vanish on [h, h]."""

    def __init__(self, i: int, j: int, value: Fraction):
        self.i, self.j, self.value = i, j, value
        super().__init__(
            f"f([Y_{i}, Y_{j}]) = {value} != 0, so f is not a character "
            f"functional on the subalgebra")


@dataclass(frozen=True)
class MonomialDatum:
    """Everything downstream analysis needs, precomputed exactly.

    adapted_rows: n x n invertible matrix; rows 0..m-1 are the generators
    Y_i, rows m..n-1 the greedy standard-vector completion X_r.
    f_vals[j] = f(Y_j).  chart is the affine chart x -> l_x of A_tau, with
    l_x(Y_j) = f_j and l_x(X_r) = x_r, sparse (see ``Chart``).  pencil is
    the moment matrix M(l_x)[i][j] = l_x([Y_i, B_j]) over the chart, B_j
    running over the adapted basis, as M(x) = M_0 + sum x_r M_r, in
    integers: the pencil stores denominator * M_v, with denominator a
    positive int sharing no factor with all of the entries.  The first m
    columns of M are 0, since f kills [h, h], so it holds only the block
    j >= m, column by column and sparse (see ``Pencil``).
    """

    algebra: LieAlgebra
    f_vals: Vector
    adapted_rows: Matrix
    chart: Chart
    pencil: Pencil = field(repr=False)
    denominator: int

    @property
    def n(self) -> int:
        return self.algebra.dim

    @property
    def m(self) -> int:
        return len(self.f_vals)

    @property
    def generators(self) -> Matrix:
        return self.adapted_rows[:self.m]


def build_datum(L: LieAlgebra, candidate_rows, f_vals) -> MonomialDatum:
    """Check (h, f) and complete the generators to an adapted basis of g.

    One echelon of the generators gives the rank and, pair by pair, the
    residual of [Y_i, Y_j] outside their span; m = 0 is the trivial
    subalgebra.  The chart comes from the rref of the rows (Y_i | f(Y_i)),
    the coordinates taken last to first and f in a final column.  Its
    pivots are the last nonzero coordinates of elements of h, and the
    completion keeps the other standard vectors e_k, k rising: each e_k
    independent of what came before.  On a kept k the chart is
    l_k = x_k; the row at pivot p reads l_p = f-part - sum over kept k of
    its entry at k times x_k.  The chart at x = 0 restricts to f on h, so
    it checks that f kills each bracket already formed.
    """
    rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                 for row in candidate_rows)
    n, m = L.dim, len(rows)
    for row in rows:
        if len(row) != n:
            raise DimensionMismatchError(
                f"generator length {len(row)} != algebra dimension {n}")
    coords = sparse_rows(rows)
    d_y = lcm(*(x.denominator for y in coords for x in y.values()))
    ints = [{k: x.numerator * (d_y // x.denominator) for k, x in y.items()}
            for y in coords]
    basis, pivots = echelon(ints)
    if len(pivots) != m:
        raise RankDeficientError(
            f"{m} generators span only a {len(pivots)}-dimensional subspace")
    # each w is [y_i, y_j] in the integer table: d [Y_i, Y_j]
    d = L.scale * d_y * d_y
    brackets = []
    for i, j, w in _products(L, ints):
        w = {k: x for k, x in w.items() if x}
        if not w:
            continue  # a zero bracket lies in the span and f kills it
        residual = dict(w)
        reduce_in_place(residual, basis, pivots)
        if residual:
            raise NotClosedError(i, j, tuple(
                Fraction(x, d) for x in dense_rows([residual], n)[0]))
        brackets.append((i, j, w))
    vals = tuple(Fraction(x) for x in f_vals)
    if len(vals) != m:
        raise DimensionMismatchError(
            f"functional has {len(vals)} values for {m} generators")
    # column c of the graph is coordinate n - 1 - c; f, in column n, lands
    # at coordinate -1
    graph, last = rref_sparse({n - 1 - k: x for k, x in c.items()} | {n: v}
                              for c, v in zip(coords, vals))
    solved = {n - 1 - c: {n - 1 - j: x for j, x in row.items()}
              for c, row in zip(last, graph)}
    kept = [k for k in range(n) if k not in solved]
    var = {k: r + 1 for r, k in enumerate(kept)}
    chart = tuple(((var[k], Fraction(1)),) if k in var else
                  tuple(sorted((0, x) if j < 0 else (var[j], -x)
                               for j, x in solved[k].items() if j != k))
                  for k in range(n))
    for i, j, w in brackets:
        value = sum((solved[k].get(-1, 0) * c for k, c in w.items()
                     if k in solved), Fraction(0)) / d
        if value != 0:
            raise NotACharacterError(i, j, value)
    adapted = rows + tuple(L.basis_vector(k) for k in kept)
    pencil, denominator = _moment_pencil(L, ints, L.scale * d_y, kept, chart)
    return MonomialDatum(algebra=L, f_vals=vals, adapted_rows=adapted,
                         chart=chart, pencil=pencil, denominator=denominator)


def _moment_pencil(L, ints, scale, kept, chart) -> tuple[Pencil, int]:
    """The pencil and its denominator.  Entry (i, r) is l_x([Y_i, X_r]):
    the bracket's coordinates paired with chart[t], the constant and x_v
    coefficients of l_x at t, cleared to one denominator d; each
    coefficient goes to column r of its M_v.  ints holds the generators
    as integer rows, and a bracket formed from them in the integer table
    is ``scale`` times the bracket, so the entries are scale * d times
    those of M; that factor and the entries are then divided by their gcd.
    A pair whose bracket is exactly 0 adds nothing and is not formed.
    """
    d = lcm(*(a.denominator for pairs in chart for _, a in pairs))
    chart = [[(v, a.numerator * (d // a.denominator)) for v, a in pairs]
             for pairs in chart]
    pencil = [[{} for _ in kept] for _ in range(len(kept) + 1)]
    for i, r, w in _products(L, ints, [{k: 1} for k in kept]):
        for t, c in w.items():
            for v, a in chart[t]:
                column = pencil[v][r]
                column[i] = column.get(i, 0) + c * a
    scale *= d
    g = scale if scale == 1 else gcd(scale, *(c for columns in pencil
                                              for column in columns
                                              for c in column.values()))
    return tuple(tuple(tuple((i, c // g) for i, c in column.items() if c)
                       for column in columns)
                 for columns in pencil), scale // g


def point_on_variety(D: MonomialDatum, x) -> Vector:
    """The chart of A_tau: x -> l with l(Y_j) = f_j and l(X_r) = x_r.

    Returned as a length-n row of values on the ORIGINAL basis, each
    coordinate read off the datum's sparse chart.
    """
    n, m = D.n, D.m
    if len(x) != n - m:
        raise DimensionMismatchError(
            f"chart point needs {n - m} coordinates, got {len(x)}")
    xs = (1, *map(Fraction, x))
    return tuple(sum((a * xs[v] for v, a in pairs), Fraction(0))
                 for pairs in D.chart)


def adapted_dual_coords(D: MonomialDatum, l) -> Vector:
    """Values of l on the adapted basis: (l(Y_1)..l(Y_m), l(X_1)..l(X_{n-m}))."""
    if len(l) != D.n:
        raise DimensionMismatchError(
            f"functional needs {D.n} coordinates, got {len(l)}")
    return tuple(dot(row, l) for row in D.adapted_rows)
