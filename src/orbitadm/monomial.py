"""The induction datum (h, f): subalgebra, unitary character, adapted basis.

The representation under study is induced from the character
chi(exp Y) = e^{i f(Y)} of the subgroup H = exp(h).  ``build_datum``, the
one constructor of a ``MonomialDatum``, checks the two standing hypotheses
(h is a subalgebra, f kills [h, h]), completes the generators Y_1..Y_m to
an adapted basis Y_1..Y_m, X_1..X_{n-m} of g, and builds the affine chart
x -> l for the spectral variety

    A_tau = { l in g* : l(Y) = f(Y) on h }  =  f + h^perp

and the moment pencil over it, stored sparse in integers.  One
elimination serves the checks and the chart: the graph of f, the
fraction-free rref of the rows (Y_i | f(Y_i)) (``linalg.integer_rref``),
gives the rank of the generators, tells whether each bracket lies in h
and what f takes on it, and is read as the chart, with no inverse of the
adapted basis; its integer rows over one denominator feed the pencil.
The pencil is accumulated in its nonzero cells (v, r) alone, and the
completing rows e_k are written directly.  The datum keeps f_vals, the
chart's integer rows, the pencil, the nonzero entries of the generators
and the completing k; the chart in ``Fraction``s, which only the readers
of one point use, and the dense adapted basis, which only ``jacobian``
reads, are built from them on first read.
``pointwise.point_on_variety`` reads the chart at a point.  A generator is
given as its {k: coefficient} terms, as ``problemfile.parse`` keeps it, or
as a dense row, and both go through one normalisation to their nonzero
terms.  Integer generators stay ints, and a value of f with denominator 1
enters the graph of f as an int, so on an integer problem no ``Fraction``
reaches an elimination; rational generators are cleared to one common
denominator once.  Every bracket of two generators, or of a generator and a
completing vector, is formed in the integer table; a pair of generators
whose product is exactly 0 is not formed (``algebra._products``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import (DimensionMismatchError, LieAlgebra, Record, _products,
                      dense_vector)
from .linalg import integer_rref, residue

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


class MonomialDatum(Record):
    """Everything downstream analysis needs, precomputed exactly.

    adapted_rows: n x n invertible matrix; rows 0..m-1 are the generators
    Y_i, rows m..n-1 the greedy standard-vector completion X_r = e_k for k
    in ``kept``, built on first read.
    f_vals[j] = f(Y_j).  chart is the affine chart x -> l_x of A_tau, with
    l_x(Y_j) = f_j and l_x(X_r) = x_r, sparse (see ``Chart``), built on
    first read from its integer pairs over one positive scale.  pencil is
    the moment matrix M(l_x)[i][j] = l_x([Y_i, B_j]) over the chart, B_j
    running over the adapted basis, as M(x) = M_0 + sum x_r M_r, in
    integers: the pencil stores denominator * M_v, with denominator a
    positive int sharing no factor with all of the entries.  The first m
    columns of M are 0, since f kills [h, h], so it holds only the block
    j >= m, column by column and sparse (see ``Pencil``).
    generator_terms holds the nonzero (k, Y_i[k]) pairs of each generator,
    k rising.  Equality reads the adapted rows, not the terms.
    """

    __slots__ = ("algebra", "f_vals", "pencil", "denominator",
                 "generator_terms", "kept", "_chart_pairs", "_chart_scale",
                 "_chart", "_adapted")
    _compared = ("algebra", "f_vals", "adapted_rows", "chart", "pencil",
                 "denominator")

    def __init__(self, algebra: LieAlgebra, f_vals: Vector,
                 chart_pairs: tuple[tuple[tuple[int, int], ...], ...],
                 chart_scale: int, pencil: Pencil, denominator: int,
                 generator_terms: tuple[tuple[tuple[int, int | Fraction],
                                              ...], ...],
                 kept: tuple[int, ...]):
        self.algebra = algebra
        self.f_vals = f_vals
        self.pencil = pencil
        self.denominator = denominator
        self.generator_terms = generator_terms
        self.kept = kept
        self._chart_pairs = chart_pairs
        self._chart_scale = chart_scale
        self._chart = None
        self._adapted = None

    @property
    def n(self) -> int:
        return self.algebra.dim

    @property
    def m(self) -> int:
        return len(self.f_vals)

    @property
    def chart(self) -> Chart:
        if self._chart is None:
            e = self._chart_scale
            self._chart = tuple(tuple((v, Fraction(a, e)) for v, a in pairs)
                                for pairs in self._chart_pairs)
        return self._chart

    @property
    def generators(self) -> Matrix:
        """The generators as dense rows: the first m adapted rows."""
        return tuple(dense_vector(terms, self.n)
                     for terms in self.generator_terms)

    @property
    def adapted_rows(self) -> Matrix:
        if self._adapted is None:
            n, zero, one = self.n, Fraction(0), Fraction(1)
            self._adapted = self.generators + tuple(
                (zero,) * k + (one,) + (zero,) * (n - 1 - k)
                for k in self.kept)
        return self._adapted


def build_datum(L: LieAlgebra, candidate_rows, f_vals) -> MonomialDatum:
    """Check (h, f) and complete the generators to an adapted basis of g.

    candidate_rows holds the generators, each a dict {k: coefficient}
    (read as it is) or a dense row of length n; f_vals their values under
    f.  One elimination decides the checks and gives the chart: the
    ``integer_rref`` of the graph rows (Y_i | f(Y_i)), the coordinates
    taken last to first and f in a final column n (left out when f_vals
    does not hold m values, which is refused after the closure check).
    The generators have rank m exactly when m graph pivots lie below
    column n; m = 0 is the trivial subalgebra.  Each bracket [Y_i, Y_j],
    formed in the integer table, is taken modulo the graph rows
    (``residue``, with 0 in column n): it lies in h exactly when its
    residue is 0 below column n, and then that residue's entry at column n
    is -e times f of it, e the lcm of the graph's pivot entries.  Only
    when a bracket leaves h are the generators eliminated alone, for the
    residual of [Y_i, Y_j] outside their span.  The graph's rows are the
    chart, integer rows over e.  Its pivots are the last nonzero
    coordinates of elements of h, and the completion keeps the other
    standard vectors e_k, k rising: each e_k independent of what came
    before.  On a kept k the chart is l_k = x_k; the row at pivot p reads
    l_p = f-part - sum over kept k of its entry at k times x_k.
    """
    n = L.dim
    coords = [_terms(row, n) for row in candidate_rows]
    m = len(coords)
    if all(type(x) is int for y in coords for x in y.values()):
        d_y, ints = 1, coords
    else:
        d_y = lcm(*(x.denominator for y in coords for x in y.values()))
        ints = [{k: x.numerator * (d_y // x.denominator)
                 for k, x in y.items()} for y in coords]
    vals = tuple(x if type(x) is Fraction else Fraction(x) for x in f_vals)
    # column c of the graph is coordinate n - 1 - c, and f is column n, an
    # int where it is integral; its integer rows over e, the lcm of their
    # pivot entries, are the rref rows
    f_column = ([{n: v.numerator if v.denominator == 1 else v}
                 for v in vals] if len(vals) == m else [{}] * m)
    graph, last = integer_rref({n - 1 - k: x for k, x in c.items()} | f
                               for c, f in zip(coords, f_column))
    rank = sum(c < n for c in last)
    if rank != m:
        raise RankDeficientError(
            f"{m} generators span only a {rank}-dimensional subspace")
    # each w is [y_i, y_j] in the integer table: d [Y_i, Y_j]; its residue
    # modulo the graph is 0 below column n exactly when it lies in h, and
    # then holds -e f(w) at column n
    d = L.scale * d_y * d_y
    brackets = list(_products(L, ints))
    character = None
    for (i, j, w), r in zip(brackets, residue(
            ({n - 1 - k: x for k, x in w.items()} for _, _, w in brackets),
            graph, last)):
        value = r.pop(n, 0)
        if r:
            basis, pivots = integer_rref(ints)
            [residual] = residue([w], basis, pivots)
            d *= lcm(*(row[c] for row, c in zip(basis, pivots)))
            raise NotClosedError(i, j, tuple(
                Fraction(residual.get(k, 0), d) for k in range(n)))
        if value and character is None:
            character = i, j, value
    if len(vals) != m:
        raise DimensionMismatchError(
            f"functional has {len(vals)} values for {m} generators")
    e = lcm(*(row[c] for c, row in zip(last, graph)))
    if character is not None:
        i, j, value = character
        raise NotACharacterError(i, j, Fraction(-value, e * d))
    solved = {n - 1 - c: (e // row[c], row) for c, row in zip(last, graph)}
    kept = [k for k in range(n) if k not in solved]
    var = {k: r + 1 for r, k in enumerate(kept)}
    # coordinate k of l_x is the sum of a x_v over the pairs (v, a) of
    # scaled[k], x_0 = 1, divided by e
    scaled = []
    for k in range(n):
        if k in var:
            scaled.append(((var[k], e),))
            continue
        q, row = solved[k]
        scaled.append(tuple(sorted(
            (0, q * x) if j == n else (var[n - 1 - j], -q * x)
            for j, x in row.items() if j != n - 1 - k)))
    pencil, denominator = _moment_pencil(L, ints, L.scale * d_y * e, kept,
                                         scaled)
    return MonomialDatum(algebra=L, f_vals=vals, chart_pairs=tuple(scaled),
                         chart_scale=e, pencil=pencil,
                         denominator=denominator,
                         generator_terms=tuple(tuple(sorted(y.items()))
                                               for y in coords),
                         kept=tuple(kept))


def _terms(row, n: int) -> dict:
    """The nonzero {k: coefficient} terms of a generator given as a dict
    {k: coefficient} or as a dense row of length n, each coefficient an
    int or a Fraction (anything else is read by ``Fraction``)."""
    if isinstance(row, dict):
        items = row.items()
        if row and not 0 <= min(row) <= max(row) < n:
            raise DimensionMismatchError(
                f"generator coordinate outside algebra dimension {n}")
    else:
        items = enumerate(row)
        if len(row) != n:
            raise DimensionMismatchError(
                f"generator length {len(row)} != algebra dimension {n}")
    terms = {}
    for k, x in items:
        if type(x) is not int and type(x) is not Fraction:
            x = Fraction(x)
        if x:
            terms[k] = x
    return terms


def _moment_pencil(L, ints, scale, kept, scaled) -> tuple[Pencil, int]:
    """The pencil and its denominator.  Entry (i, r) is l_x([Y_i, X_r]):
    the bracket's coordinates paired with scaled[t], the constant and x_v
    coefficients of l_x at t over a common denominator; each coefficient
    goes to column r of its M_v, in the nonzero cells (v, r) only.  ints
    holds the generators as integer rows, and with the brackets formed
    from them in the integer table the entries are ``scale`` times those
    of M; that factor and the entries are then divided by their gcd.  A
    pair whose bracket is exactly 0 adds nothing and is not formed.
    """
    cells: dict[tuple[int, int], dict[int, int]] = {}  # (v, r): column
    for i, r, w in _products(L, ints, [{k: 1} for k in kept]):
        for t, c in w.items():
            for v, a in scaled[t]:
                column = cells.setdefault((v, r), {})
                column[i] = column.get(i, 0) + c * a
    g = scale if scale == 1 else gcd(scale, *(c for column in cells.values()
                                              for c in column.values()))
    pencil = [[()] * len(kept) for _ in range(len(kept) + 1)]
    for (v, r), column in cells.items():
        pencil[v][r] = tuple((i, c // g) for i, c in column.items() if c)
    return tuple(map(tuple, pencil)), scale // g
