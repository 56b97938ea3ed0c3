"""Multivariate polynomials with exact coefficients, and Bareiss
elimination over them.

Terms are (exponent tuple, coefficient) pairs sorted by exponent, so the
last one leads in lex order.  Integer inputs keep integer coefficients:
every entry ``bareiss`` forms from an integer pencil is an integer minor.
``symbolic_moment_entries`` writes the moment pencil of a datum in them,
and ``moment.symbolic_generic_rank`` ranks it by ``bareiss``: it imports
this module only when it runs, when no certificate proves the generic
rank.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg, sub

from .linalg import WorkLimitError, integer_rref

# typing.TYPE_CHECKING, read by type checkers; typing is not imported
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .monomial import MonomialDatum


class Poly:
    """nvars variables; terms, the (exponent tuple, coefficient) pairs."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int,
                 terms: tuple[tuple[tuple[int, ...], int | Fraction], ...]):
        self.nvars = nvars
        self.terms = terms

    def __eq__(self, other):
        if other.__class__ is not Poly:
            return NotImplemented
        return (self.nvars, self.terms) == (other.nvars, other.terms)

    @staticmethod
    def _build(nvars: int, mapping: dict) -> "Poly":
        return Poly(nvars, tuple(sorted((e, c) for e, c in mapping.items()
                                        if c)))

    @staticmethod
    def affine(constant, linear) -> "Poly":
        """constant + sum linear[i] * x_i."""
        nvars = len(linear)
        mapping = {(0,) * nvars: constant}
        for i, coeff in enumerate(linear):
            mapping[tuple(int(k == i) for k in range(nvars))] = coeff
        return Poly._build(nvars, mapping)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "Poly", sign: int = 1) -> "Poly":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + sign * c
        return Poly._build(self.nvars, acc)

    def __sub__(self, other: "Poly") -> "Poly":
        return self.__add__(other, -1)

    def __mul__(self, other: "Poly") -> "Poly":
        acc: dict = {}
        get = acc.get
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
        return Poly._build(self.nvars, acc)

    def __floordiv__(self, other: "Poly") -> "Poly":
        """Exact quotient; raises ValueError when other does not divide self.

        Long division by other's leading term: each step cancels the
        remainder's leading term and adds only smaller ones, so a heap
        yields them in turn.  The remainder is unique, so the division is
        exact iff each leading term met is divisible by other's.
        """
        if not other.terms:
            raise ZeroDivisionError("polynomial division by zero")
        lead_e, lead_c = other.terms[-1]
        rest = other.terms[:-1]
        rem = dict(self.terms)
        heap = [tuple(map(neg, e)) for e in rem]
        heapify(heap)
        quot = {}
        while heap:
            e = tuple(map(neg, heappop(heap)))
            c = rem.pop(e)
            if not c:
                continue
            qe = tuple(map(sub, e, lead_e))
            if any(a < 0 for a in qe):
                raise ValueError("polynomial division is not exact")
            qc = Fraction(c, lead_c)
            if qc.denominator == 1:
                qc = qc.numerator
            quot[qe] = qc
            for oe, oc in rest:
                te = tuple(map(add, qe, oe))
                if te not in rem:
                    heappush(heap, tuple(map(neg, te)))
                rem[te] = rem.get(te, 0) - qc * oc
        return Poly._build(self.nvars, quot)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = [str(c)]
            for i, power in enumerate(e):
                if power == 1:
                    factors.append(f"x{i + 1}")
                elif power > 1:
                    factors.append(f"x{i + 1}^{power}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def bareiss(a: list[list], limit: int | None = None):
    """Fraction-free (Bareiss) elimination in place over a polynomial ring.

    Entries are ``Poly``s, or anything with ``len`` (its term count),
    ``*``, ``-``, truth and an exact ``//``; Sylvester's identity makes each
    division by the previous pivot exact.  Returns (rank, last pivot), that
    pivot being up to sign the minor on the pivot rows and columns (None at
    rank 0).  The pivot is the nonzero entry left with the fewest terms.
    ``limit`` caps the sum of len(x) * len(y) over the products formed: a
    step that would pass it raises WorkLimitError instead.
    """
    n_rows = len(a)
    cols = list(range(len(a[0]) if a else 0))
    prev = None
    row = spent = 0
    while row < n_rows and cols:
        nonzero = [(len(a[r][c]), r, c) for r in range(row, n_rows)
                   for c in cols if a[r][c]]
        if not nonzero:
            break
        _, piv, col = min(nonzero)
        cols.remove(col)
        a[row], a[piv] = a[piv], a[row]
        p = a[row][col]
        rows = range(row + 1, n_rows)
        if limit is not None:
            spent += (len(p) * sum(len(a[r][c]) for r in rows for c in cols)
                      + sum(len(a[r][col]) for r in rows)
                      * sum(len(a[row][c]) for c in cols))
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


def symbolic_moment_entries(D: MonomialDatum) -> list[list]:
    """The pencil over a basis of its span, as linear forms in y_1..y_s.

    M(x) lies in V = span{M_0, ..., M_{n-m}}, and its generic rank is that
    of y_1 N_1 + ... + y_s N_s for any basis N of V (giving M_0 a variable
    and changing parameters linearly keep the generic rank).  N is the rref
    basis of the M_v, each flattened sparse over the m x (n - m) block where
    the pencil lives, cleared to integers: the primitive rows of
    ``linalg.integer_rref``, read as they are; the entries returned are
    that block's.  s can be far below n - m + 1: for h_{2k+1} with a Lagrangian
    h, in any basis of g, the pencil is one matrix times a linear form, so
    s = 1.  The entries are ``Poly``s.
    """
    m, k = D.m, D.n - D.m
    flat = [{i * k + r: c for r, pairs in enumerate(coefficient)
             for i, c in pairs} for coefficient in D.pencil]
    basis = integer_rref(flat)[0]
    return [[Poly.affine(0, [b.get(i * k + r, 0) for b in basis])
             for r in range(k)] for i in range(m)]
