"""Finite-dimensional real Lie algebras with exact rational structure constants.

A ``LieAlgebra`` stores the dense table c[i][j][k] meaning
[Z_i, Z_j] = sum_k c[i][j][k] Z_k with all coefficients ``Fraction``.
Brackets, adjoint matrices, and the structural classification (solvable,
nilpotent, unimodular, exponential-by-sampling) are computed from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import mat_vec, rank_exact, rref

Vector = tuple[Fraction, ...]


class DimensionMismatchError(ValueError):
    """A vector or point has the wrong length for the ambient algebra."""


@dataclass(frozen=True)
class Violation:
    """One exact failure of the structure-constant axioms.

    kind is "antisymmetry" (residual = c[i][j][k] + c[j][i][k] at the stored
    component indices) or "jacobi" (residual = the full cyclic-sum vector at
    basis triple (i, j, k)).
    """

    kind: str
    indices: tuple[int, ...]
    residual: object

    def describe(self, names: tuple[str, ...]) -> str:
        if self.kind == "antisymmetry":
            i, j, k = self.indices
            return (f"antisymmetry fails at ({names[i]},{names[j]}) "
                    f"component {names[k]}: residual {self.residual}")
        i, j, k = self.indices
        res = ", ".join(str(x) for x in self.residual)
        return (f"Jacobi identity fails at ({names[i]},{names[j]},{names[k]}): "
                f"residual ({res})")


@dataclass(frozen=True)
class LieAlgebra:
    name: str
    basis_names: tuple[str, ...]
    c: tuple[tuple[Vector, ...], ...]  # c[i][j][k]

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    def index_of(self, name: str) -> int:
        return self.basis_names.index(name)

    def basis_vector(self, i: int) -> Vector:
        n = self.dim
        return tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))

    def vector(self, **coeffs) -> Vector:
        """Build a vector from named coefficients, e.g. L.vector(X=1, Y=-2)."""
        v = [Fraction(0)] * self.dim
        for name, value in coeffs.items():
            v[self.index_of(name)] = Fraction(value)
        return tuple(v)


def from_brackets(name: str, basis_names, brackets) -> LieAlgebra:
    """Construct an algebra from the nonzero brackets of basis pairs.

    ``brackets`` maps a pair of basis names (i, j) to {name: coefficient}
    giving [Z_i, Z_j]; the (j, i) entry is filled by antisymmetry.  Pairs
    not mentioned bracket to zero.
    """
    names = tuple(basis_names)
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("basis names must be distinct")
    idx = {nm: i for i, nm in enumerate(names)}
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (a, b), combo in brackets.items():
        i, j = idx[a], idx[b]
        if i == j:
            raise ValueError(f"bracket of {a} with itself must be omitted")
        for target, coeff in combo.items():
            k = idx[target]
            q = Fraction(coeff)
            table[i][j][k] = q
            table[j][i][k] = -q
    c = tuple(tuple(tuple(row) for row in plane) for plane in table)
    return LieAlgebra(name=name, basis_names=names, c=c)


def validate(L: LieAlgebra) -> list[Violation]:
    """Exact check of antisymmetry and the Jacobi identity.

    Violations are returned as data; an empty list certifies the table.
    """
    n = L.dim
    out: list[Violation] = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                s = L.c[i][j][k] + L.c[j][i][k]
                if s != 0:
                    out.append(Violation("antisymmetry", (i, j, k), s))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res = [Fraction(0)] * n
                for (a, b, cc) in ((i, j, k), (j, k, i), (k, i, j)):
                    # [[Z_a, Z_b], Z_c] expanded through the table
                    for p in range(n):
                        coeff = L.c[a][b][p]
                        if coeff == 0:
                            continue
                        for q in range(n):
                            res[q] += coeff * L.c[p][cc][q]
                if any(x != 0 for x in res):
                    out.append(Violation("jacobi", (i, j, k), tuple(res)))
    return out


def bracket(L: LieAlgebra, u, v) -> Vector:
    """[u, v] by bilinear expansion of the structure constants."""
    n = L.dim
    if len(u) != n or len(v) != n:
        raise DimensionMismatchError(
            f"bracket arguments must have length {n}, got {len(u)} and {len(v)}")
    out = [Fraction(0)] * n
    for i in range(n):
        ui = Fraction(u[i])
        if ui == 0:
            continue
        for j in range(n):
            vj = Fraction(v[j])
            if vj == 0:
                continue
            piece = L.c[i][j]
            for k in range(n):
                if piece[k] != 0:
                    out[k] += ui * vj * piece[k]
    return tuple(out)


def ad_matrix(L: LieAlgebra, u) -> list[list[Fraction]]:
    """Matrix of ad(u) = [u, .]; column j holds the coordinates of [u, Z_j]."""
    n = L.dim
    if len(u) != n:
        raise DimensionMismatchError(f"expected length {n}, got {len(u)}")
    cols = [bracket(L, u, L.basis_vector(j)) for j in range(n)]
    return [[cols[j][k] for j in range(n)] for k in range(n)]


def ad_trace(L: LieAlgebra, u) -> Fraction:
    mat = ad_matrix(L, u)
    return sum((mat[k][k] for k in range(L.dim)), Fraction(0))


@dataclass(frozen=True)
class StructureReport:
    violations: tuple[Violation, ...]
    is_solvable: bool
    derived_series_dims: tuple[int, ...]
    lower_central_dims: tuple[int, ...]
    is_nilpotent: bool
    is_unimodular: bool
    exponentiality: str  # "PassedSampling" | "FailedWithWitness" | "Skipped"
    exponentiality_witness: Vector | None = None


def _bracket_span(L: LieAlgebra, rows_a, rows_b):
    """rref basis of span{[a, b] : a in rows_a, b in rows_b}."""
    prods = [bracket(L, a, b) for a in rows_a for b in rows_b]
    prods = [p for p in prods if any(x != 0 for x in p)]
    if not prods:
        return []
    basis, _ = rref(prods)
    return basis


def derived_series_dims(L: LieAlgebra) -> tuple[int, ...]:
    """Dimensions n = dim g^(0) > dim g^(1) > ... until the series stabilizes.

    Strictly decreasing by construction; ends in 0 exactly when L is solvable.
    """
    current = [list(L.basis_vector(i)) for i in range(L.dim)]
    dims = [L.dim]
    while dims[-1] > 0:
        nxt = _bracket_span(L, current, current)
        if len(nxt) == dims[-1]:
            break  # stabilized above zero: not solvable
        dims.append(len(nxt))
        current = nxt
    return tuple(dims)


def lower_central_dims(L: LieAlgebra) -> tuple[int, ...]:
    full = [list(L.basis_vector(i)) for i in range(L.dim)]
    current = full
    dims = [L.dim]
    while dims[-1] > 0:
        nxt = _bracket_span(L, full, current)
        if len(nxt) == dims[-1]:
            break
        dims.append(len(nxt))
        current = nxt
    return tuple(dims)


def _random_rational_vector(rng: random.Random, n: int) -> Vector:
    return tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                 for _ in range(n))


def exponentiality_screen(L: LieAlgebra, samples: int, seed: int,
                          tol_im: float = 1e-9):
    """Sample-based screen for the exponential property.

    For each basis vector and ``samples`` random rational u, the eigenvalues
    of ad(u) must contain no nonzero purely imaginary value: whenever
    |Re lam| <= tol_im we require |lam| <= tol_im.  Floating point only — a
    screen, not a certificate.  Returns (status, witness_or_None).
    """
    candidates = [L.basis_vector(i) for i in range(L.dim)]
    rng = random.Random(seed)
    for _ in range(samples):
        candidates.append(_random_rational_vector(rng, L.dim))
    for u in candidates:
        mat = np.array([[float(x) for x in row] for row in ad_matrix(L, u)],
                       dtype=float)
        for lam in np.linalg.eigvals(mat):
            if abs(lam.real) <= tol_im and abs(lam) > tol_im:
                return "FailedWithWitness", u
    return "PassedSampling", None


def structure_report(L: LieAlgebra, exp_samples: int = 20,
                     seed: int = 0) -> StructureReport:
    """Validate and classify: solvable / nilpotent / unimodular / exponential.

    The report carries validate's violations, so none need a second pass.
    Series dimensions come from exact ranks of row-reduced spanning sets;
    unimodularity is trace(ad Z_i) = 0 on every basis element (trace is
    linear in u, so the basis check decides it).  Exponentiality is
    screened by sampling; pass exp_samples=0 to record it as Skipped.
    """
    violations = tuple(validate(L))
    der = derived_series_dims(L)
    low = lower_central_dims(L)
    unimod = all(ad_trace(L, L.basis_vector(i)) == 0 for i in range(L.dim))
    if exp_samples <= 0:
        status, witness = "Skipped", None
    else:
        status, witness = exponentiality_screen(L, exp_samples, seed)
    return StructureReport(
        violations=violations,
        is_solvable=der[-1] == 0,
        derived_series_dims=der,
        lower_central_dims=low,
        is_nilpotent=low[-1] == 0,
        is_unimodular=unimod,
        exponentiality=status,
        exponentiality_witness=witness,
    )
