"""The induction datum (h, f): subalgebra, unitary character, adapted basis.

The representation under study is induced from the character
chi(exp Y) = e^{i f(Y)} of the subgroup H = exp(h).  This module validates
the two standing hypotheses (h is a subalgebra, f kills [h, h]), completes
the generators Y_1..Y_m to an adapted basis Y_1..Y_m, X_1..X_{n-m} of g,
and provides the affine chart x -> l for the spectral variety

    A_tau = { l in g* : l(Y) = f(Y) on h }  =  f + h^perp.

The checks and the moment pencil bracket the nonzero coordinates of the
generators and adapted rows through the sparse table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .algebra import DimensionMismatchError, LieAlgebra, _sparse_bracket
from .linalg import (as_fraction_rows, dense_rows, dot, in_row_space, invert,
                     nullspace, reduce_in_place, rref, rref_sparse,
                     solve_exact, sparse_rows)

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
# pencil[i][j] = (c_0, c_1, ..., c_{n-m}): entry (i, j) is c_0 + sum c_r x_r
Pencil = tuple[tuple[tuple[int, ...], ...], ...]


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
class Subalgebra:
    algebra: LieAlgebra
    rows: Matrix  # m x n generator coordinates, original basis
    rref_rows: tuple[tuple[Fraction, ...], ...] = field(repr=False)
    pivots: tuple[int, ...] = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return in_row_space(v, self.rref_rows, self.pivots)


def check_subalgebra(L: LieAlgebra, candidate_rows) -> Subalgebra:
    """Validate generators: exact rank m and exact bracket closure.

    m = 0 (no generators) is the trivial subalgebra and always valid.
    """
    rows = tuple(map(tuple, as_fraction_rows(candidate_rows)))
    for row in rows:
        if len(row) != L.dim:
            raise DimensionMismatchError(
                f"generator length {len(row)} != algebra dimension {L.dim}")
    coords = sparse_rows(rows)
    r, piv = rref_sparse(coords)
    if len(piv) != len(rows):
        raise RankDeficientError(
            f"{len(rows)} generators span only a "
            f"{len(piv)}-dimensional subspace")
    sub = Subalgebra(algebra=L, rows=rows,
                     rref_rows=tuple(map(tuple, dense_rows(r, L.dim))),
                     pivots=tuple(piv))
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            w = _sparse_bracket(L, coords[i].items(), coords[j].items())
            reduce_in_place(w, r, piv)
            if any(w.values()):
                raise NotClosedError(i, j, tuple(dense_rows([w], L.dim)[0]))
    return sub


@dataclass(frozen=True)
class CharacterFunctional:
    f_vals: Vector  # f_vals[j] = f(Y_j)

    @property
    def m(self) -> int:
        return len(self.f_vals)


def check_character(Hsub: Subalgebra, f_vals) -> CharacterFunctional:
    """f, given by its values on the generators, must kill [h, h].

    One solve extends f to phi on g (phi . Y_i = f_i); brackets of
    generators lie in h, where f(w) = phi . w.
    """
    vals = tuple(Fraction(x) for x in f_vals)
    if len(vals) != Hsub.m:
        raise DimensionMismatchError(
            f"functional has {len(vals)} values for {Hsub.m} generators")
    L = Hsub.algebra
    phi = solve_exact(Hsub.rows, vals)
    coords = sparse_rows(Hsub.rows)
    for i in range(Hsub.m):
        for j in range(i + 1, Hsub.m):
            w = _sparse_bracket(L, coords[i].items(), coords[j].items())
            value = sum((phi[k] * c for k, c in w.items() if c),
                        Fraction(0))
            if value != 0:
                raise NotACharacterError(i, j, value)
    return CharacterFunctional(f_vals=vals)


@dataclass(frozen=True)
class MonomialDatum:
    """Everything downstream analysis needs, precomputed exactly.

    adapted_rows: n x n invertible matrix; rows 0..m-1 are the generators
    Y_i, rows m..n-1 the greedy standard-vector completion X_r.
    adapted_inv is its exact inverse.  pencil is the moment matrix
    M(l_x)[i][j] = l_x([Y_i, B_j]) over the chart, B_j running over the
    adapted basis, as M(x) = M_0 + sum x_r M_r with row i multiplied by
    row_scales[i] to make it integral (which keeps its rank at every x).
    """

    algebra: LieAlgebra
    subalgebra: Subalgebra
    functional: CharacterFunctional
    adapted_rows: Matrix
    adapted_inv: Matrix
    pencil: Pencil = field(repr=False)
    row_scales: tuple[int, ...] = field(repr=False)

    @property
    def n(self) -> int:
        return self.algebra.dim

    @property
    def m(self) -> int:
        return self.subalgebra.m


def adapt_basis(L: LieAlgebra, Hsub: Subalgebra,
                f: CharacterFunctional) -> MonomialDatum:
    """Complete the generators to a basis of g, greedily and deterministically.

    Completion vectors are standard basis vectors e_k, taken in index order,
    each kept iff it is independent of what came before.  That holds iff
    column k of a matrix with kernel h (the rows of a basis of h^perp) is
    independent of the columns before it: one rref, whose pivot columns
    are the kept k.
    """
    if Hsub.algebra is not L:
        raise ValueError("subalgebra was built over a different algebra")
    if f.m != Hsub.m:
        raise DimensionMismatchError("functional does not match subalgebra")
    n = L.dim
    _, kept = rref(nullspace(Hsub.rref_rows, n_cols=n))
    adapted = Hsub.rows + tuple(L.basis_vector(k) for k in kept)
    inv = tuple(tuple(row) for row in invert(adapted))
    pencil, scales = _moment_pencil(L, adapted, inv, f.f_vals)
    return MonomialDatum(algebra=L, subalgebra=Hsub, functional=f,
                         adapted_rows=adapted, adapted_inv=inv,
                         pencil=pencil, row_scales=scales)


def _moment_pencil(L, adapted, inv,
                   f_vals) -> tuple[Pencil, tuple[int, ...]]:
    """Entry (i, j) is l_x([Y_i, B_j]) with l_x = inv (f, x), affine in x.

    Its constant part pairs the bracket with l_0 (the chart at x = 0) and
    its x_r coefficient with column m + r of inv; chart[k] holds the
    nonzero values of these n - m + 1 forms at coordinate k.  Brackets are
    sparse, so each pairing runs over nonzero coordinates only.  Returns
    the integer pencil and the row scales that made it integral.
    """
    n, m = len(inv), len(f_vals)
    chart = [[(r, v) for r, v in enumerate((dot(row[:m], f_vals), *row[m:]))
              if v] for row in inv]
    coords = [row.items() for row in sparse_rows(adapted)]
    pencil, scales = [], []
    for y in coords[:m]:
        row = []
        for b in coords:
            entry: dict[int, Fraction] = {}
            for k, c in _sparse_bracket(L, y, b).items():
                if c:
                    for r, v in chart[k]:
                        entry[r] = entry.get(r, 0) + c * v
            row.append(entry)
        scale = lcm(*(c.denominator for entry in row for c in entry.values()))
        pencil.append(tuple(tuple(int(entry.get(r, 0) * scale)
                                  for r in range(n - m + 1)) for entry in row))
        scales.append(scale)
    return tuple(pencil), tuple(scales)


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
    target = list(D.functional.f_vals) + [Fraction(v) for v in x]
    return tuple(dot(row, target) for row in D.adapted_inv)


def adapted_dual_coords(D: MonomialDatum, l) -> Vector:
    """Values of l on the adapted basis: (l(Y_1)..l(Y_m), l(X_1)..l(X_{n-m}))."""
    if len(l) != D.n:
        raise DimensionMismatchError(
            f"functional needs {D.n} coordinates, got {len(l)}")
    return tuple(dot(row, l) for row in D.adapted_rows)


def build_datum(L: LieAlgebra, candidate_rows, f_vals) -> MonomialDatum:
    """check_subalgebra + check_character + adapt_basis in one call."""
    sub = check_subalgebra(L, candidate_rows)
    f = check_character(sub, f_vals)
    return adapt_basis(L, sub, f)
