"""The induction datum (h, f): subalgebra, unitary character, adapted basis.

The representation under study is induced from the character
chi(exp Y) = e^{i f(Y)} of the subgroup H = exp(h).  ``build_datum``, the
one constructor of a ``MonomialDatum``, checks the two standing hypotheses
(h is a subalgebra, f kills [h, h]), completes the generators Y_1..Y_m to
an adapted basis Y_1..Y_m, X_1..X_{n-m} of g, and builds the affine chart
x -> l for the spectral variety

    A_tau = { l in g* : l(Y) = f(Y) on h }  =  f + h^perp

and the moment pencil over it, stored sparse and exact.  The datum keeps
the adapted basis, its inverse, f_vals and the pencil; the generators are
the first m adapted rows.  Brackets run over the generators' nonzero
coordinates, cleared to integers once, through the sparse table, and each
pair of generators is bracketed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .algebra import DimensionMismatchError, LieAlgebra, _sparse_bracket
from .linalg import (as_fraction_rows, cleared, dense_rows, dot, echelon,
                     invert, reduce_in_place, sparse_rows)

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
# pencil[v][r]: the nonzero (i, c) pairs of column r of M_v, i rising, over
# the m x (n - m) block; entry (i, r) of M(x) is sum over v of c x_v, x_0 = 1
Pencil = tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]


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
    adapted_inv is its exact inverse and f_vals[j] = f(Y_j).  pencil is the
    moment matrix M(l_x)[i][j] = l_x([Y_i, B_j]) over the chart, B_j running
    over the adapted basis, as M(x) = M_0 + sum x_r M_r.  Its first m
    columns are 0, since f kills [h, h], so it holds only the block
    j >= m, column by column and sparse (see ``Pencil``).
    """

    algebra: LieAlgebra
    f_vals: Vector
    adapted_rows: Matrix
    adapted_inv: Matrix
    pencil: Pencil = field(repr=False)

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
    subalgebra.  The completion takes the standard vectors e_k in index
    order, each kept iff it is independent of what came before: iff no
    element of h has its last nonzero coordinate at k, which a second
    echelon, over the columns in reverse, reads off as its pivots.  The
    chart at x = 0 restricts to f on h, so it checks that f kills each
    bracket already formed.
    """
    rows = tuple(map(tuple, as_fraction_rows(candidate_rows)))
    n, m = L.dim, len(rows)
    for row in rows:
        if len(row) != n:
            raise DimensionMismatchError(
                f"generator length {len(row)} != algebra dimension {n}")
    coords = sparse_rows(rows)
    ints = [cleared(y) for y in coords]
    basis, pivots = echelon(coords)
    if len(pivots) != m:
        raise RankDeficientError(
            f"{m} generators span only a {len(pivots)}-dimensional subspace")
    brackets = []
    for i, j in combinations(range(m), 2):
        w = _sparse_bracket(L, ints[i], ints[j])
        if not any(w.values()):
            continue  # a zero bracket lies in the span and f kills it
        residual = dict(w)
        reduce_in_place(residual, basis, pivots)
        if any(residual.values()):
            raise NotClosedError(i, j, tuple(dense_rows([residual], n)[0]))
        brackets.append((i, j, w))
    vals = tuple(Fraction(x) for x in f_vals)
    if len(vals) != m:
        raise DimensionMismatchError(
            f"functional has {len(vals)} values for {m} generators")
    last = echelon([{n - 1 - k: x for k, x in c.items()} for c in coords])[1]
    kept = sorted(set(range(n)).difference(n - 1 - k for k in last))
    adapted = rows + tuple(L.basis_vector(k) for k in kept)
    inv = tuple(map(tuple, invert(adapted)))
    # the chart l_x = l_0 + sum x_r X_r^*, as n - m + 1 forms per coordinate
    forms = [(dot(row[:m], vals), *row[m:]) for row in inv]
    for i, j, w in brackets:
        value = sum((forms[k][0] * c for k, c in w.items() if c), Fraction(0))
        if value != 0:
            raise NotACharacterError(i, j, value)
    return MonomialDatum(algebra=L, f_vals=vals, adapted_rows=adapted,
                         adapted_inv=inv,
                         pencil=_moment_pencil(L, ints, kept, forms))


def _moment_pencil(L, ints, kept, forms) -> Pencil:
    """Entry (i, r) is l_x([Y_i, X_r]), paired with forms[t], the constant
    and x_v coefficients of l_x at t, over the bracket's nonzero
    coordinates; each coefficient goes to column r of its M_v.  ints holds
    the generators as ``linalg.cleared`` pairs."""
    chart = [[(v, a) for v, a in enumerate(values) if a] for values in forms]
    pencil = [[{} for _ in kept] for _ in range(len(kept) + 1)]
    for i, y in enumerate(ints):
        for r, k in enumerate(kept):
            for t, c in _sparse_bracket(L, y, ({k: 1}, 1)).items():
                for v, a in chart[t]:
                    column = pencil[v][r]
                    column[i] = column.get(i, 0) + c * a
    return tuple(tuple(tuple((i, c) for i, c in column.items() if c)
                       for column in columns) for columns in pencil)


def point_on_variety(D: MonomialDatum, x) -> Vector:
    """The chart of A_tau: x -> l with l(Y_j) = f_j and l(X_r) = x_r.

    Returned as a length-n row of values on the ORIGINAL basis.  Writing P
    for the adapted-rows matrix, the wanted l solves P l^T = (f, x), i.e.
    l = (f, x) applied through the inverse-transpose of P.
    """
    n, m = D.n, D.m
    if len(x) != n - m:
        raise DimensionMismatchError(
            f"chart point needs {n - m} coordinates, got {len(x)}")
    target = list(D.f_vals) + [Fraction(v) for v in x]
    return tuple(dot(row, target) for row in D.adapted_inv)


def adapted_dual_coords(D: MonomialDatum, l) -> Vector:
    """Values of l on the adapted basis: (l(Y_1)..l(Y_m), l(X_1)..l(X_{n-m}))."""
    if len(l) != D.n:
        raise DimensionMismatchError(
            f"functional needs {D.n} coordinates, got {len(l)}")
    return tuple(dot(row, l) for row in D.adapted_rows)
