"""Multivariate polynomials with exact coefficients, just enough for Bareiss.

Terms are (exponent tuple, coefficient) pairs sorted by exponent, so the
last one leads in lex order.  Integer inputs keep integer coefficients:
every entry Bareiss forms from an integer pencil is an integer minor.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg, sub


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
