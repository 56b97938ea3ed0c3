"""Finite-dimensional real Lie algebras with exact rational structure constants.

A ``LieAlgebra`` stores only its sparse bracket table: ``nonzero[i][j]`` is
the tuple of (k, q) pairs with [Z_i, Z_j] = sum q Z_k, q a nonzero
``Fraction`` and k rising.  ``from_brackets`` builds it from a list of
brackets, and brackets, adjoint matrices, validation and the structural
classification (solvable, nilpotent, unimodular, exponential-by-sampling)
all read it, so their cost follows the nonzero constants, not n^3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import rref

Vector = tuple[Fraction, ...]

# random directions the exponentiality screen samples beyond the basis
EXP_SCREEN_SAMPLES = 20


class DimensionMismatchError(ValueError):
    """A vector or point has the wrong length for the ambient algebra."""


@dataclass(frozen=True)
class Violation:
    """One exact failure of the structure-constant axioms.

    kind is "antisymmetry" (residual = the Z_k coefficient of
    [Z_i, Z_j] + [Z_j, Z_i] as stored) or "jacobi" (residual = the full
    cyclic-sum vector at basis triple (i, j, k)).
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
    # nonzero[i][j]: the (k, q) pairs of [Z_i, Z_j] with q != 0, k rising;
    # canonical, so equality and hashing follow the structure constants
    nonzero: tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    def index_of(self, name: str) -> int:
        return self.basis_names.index(name)

    def basis_vector(self, i: int) -> Vector:
        return dense_vector([(i, Fraction(1))], self.dim)

    def vector(self, **coeffs) -> Vector:
        """Build a vector from named coefficients, e.g. L.vector(X=1, Y=-2)."""
        return dense_vector([(self.index_of(name), Fraction(value))
                             for name, value in coeffs.items()], self.dim)


def from_brackets(name: str, basis_names, brackets) -> LieAlgebra:
    """Construct an algebra from the nonzero brackets of basis pairs.

    ``brackets`` maps a pair of basis names (i, j) to {name: coefficient}
    giving [Z_i, Z_j]; the (j, i) entry is filled by antisymmetry.  Pairs
    not mentioned bracket to zero; zero coefficients are dropped.
    """
    names = tuple(basis_names)
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("basis names must be distinct")
    idx = {nm: i for i, nm in enumerate(names)}
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (a, b), combo in brackets.items():
        i, j = idx[a], idx[b]
        if i == j:
            raise ValueError(f"bracket of {a} with itself must be omitted")
        for target, coeff in combo.items():
            q = Fraction(coeff)
            table.setdefault((i, j), {})[idx[target]] = q
            table.setdefault((j, i), {})[idx[target]] = -q
    return LieAlgebra(name, names, tuple(tuple(
        tuple(sorted((k, q) for k, q in table.get((i, j), {}).items() if q))
        for j in range(n)) for i in range(n)))


def dense_vector(pairs, n: int) -> Vector:
    """The length-n coordinate vector of sparse (k, q) pairs."""
    vec = [Fraction(0)] * n
    for k, q in pairs:
        vec[k] += q
    return tuple(vec)


def validate(L: LieAlgebra) -> list[Violation]:
    """Exact check of antisymmetry and the Jacobi identity.

    Violations are returned as data; an empty list certifies the table.
    Both checks run over the nonzero constants only: antisymmetry on the
    pairs (i <= j) with a nonzero entry either way, Jacobi by expanding the
    cyclic sum through nonzero entries.
    """
    n = L.dim
    nz = L.nonzero
    out: list[Violation] = []
    for i in range(n):
        for j in range(i, n):
            if not (nz[i][j] or nz[j][i]):
                continue
            sums: dict[int, Fraction] = {}
            for k, q in nz[i][j] + nz[j][i]:
                sums[k] = sums.get(k, 0) + q
            out.extend(Violation("antisymmetry", (i, j, k), sums[k])
                       for k in sorted(sums) if sums[k] != 0)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res: dict[int, Fraction] = {}
                for (a, b, cc) in ((i, j, k), (j, k, i), (k, i, j)):
                    # [[Z_a, Z_b], Z_c] expanded through the table
                    for p, coeff in nz[a][b]:
                        for q, r in nz[p][cc]:
                            res[q] = res.get(q, 0) + coeff * r
                if any(res.values()):
                    out.append(Violation("jacobi", (i, j, k), tuple(
                        Fraction(res.get(q, 0)) for q in range(n))))
    return out


def _nonzero_coords(u) -> list[tuple[int, Fraction]]:
    return [(i, x if type(x) is Fraction else Fraction(x))
            for i, x in enumerate(u) if x]


def bracket(L: LieAlgebra, u, v) -> Vector:
    """[u, v] by bilinear expansion over the nonzero structure constants."""
    n = L.dim
    if len(u) != n or len(v) != n:
        raise DimensionMismatchError(
            f"bracket arguments must have length {n}, got {len(u)} and {len(v)}")
    out = [Fraction(0)] * n
    vs = _nonzero_coords(v)
    for i, ui in _nonzero_coords(u):
        plane = L.nonzero[i]
        for j, vj in vs:
            for k, q in plane[j]:
                out[k] += ui * vj * q
    return tuple(out)


def ad_matrix(L: LieAlgebra, u) -> list[list[Fraction]]:
    """Matrix of ad(u) = [u, .]; column j holds the coordinates of [u, Z_j]."""
    n = L.dim
    if len(u) != n:
        raise DimensionMismatchError(f"expected length {n}, got {len(u)}")
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i, ui in _nonzero_coords(u):
        for j, pairs in enumerate(L.nonzero[i]):
            for k, q in pairs:
                mat[k][j] += ui * q
    return mat


def ad_float(L: LieAlgebra, u) -> np.ndarray:
    """ad(u) as a floating n x n matrix."""
    return np.array(ad_matrix(L, u), dtype=float)


def _ad_traces(L: LieAlgebra) -> list[Fraction]:
    """tr ad Z_i: the sum of the Z_j coefficients of [Z_i, Z_j] over j."""
    return [sum((q for j, pairs in enumerate(plane) for k, q in pairs
                 if k == j), Fraction(0)) for plane in L.nonzero]


def ad_trace(L: LieAlgebra, u) -> Fraction:
    """tr ad(u) = sum_i u_i tr ad Z_i, read from the table."""
    if len(u) != L.dim:
        raise DimensionMismatchError(f"expected length {L.dim}, got {len(u)}")
    return sum((x * t for x, t in zip(u, _ad_traces(L)) if x), Fraction(0))


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


def _span(vectors) -> list[list[Fraction]]:
    """rref basis of the span of vectors."""
    vectors = [v for v in vectors if any(x != 0 for x in v)]
    return rref(vectors)[0] if vectors else []


def _commutator(L: LieAlgebra) -> list[list[Fraction]]:
    """rref basis of [g, g]: the span of the planes marked nonzero."""
    return _span(dense_vector(pairs, L.dim) for plane in L.nonzero
                 for pairs in plane if pairs)


def _derived_step(L: LieAlgebra, rows) -> list[list[Fraction]]:
    # [b, a] = -[a, b], so only the pairs a before b are bracketed
    return _span(bracket(L, a, b) for s, a in enumerate(rows)
                 for b in rows[s + 1:])


def _lower_central_step(L: LieAlgebra, rows) -> list[list[Fraction]]:
    return _span(bracket(L, z, b) for z in map(L.basis_vector, range(L.dim))
                 for b in rows)


def _series(L: LieAlgebra, current, step) -> tuple[int, ...]:
    """Dimensions of g, current, step(current), ... while they decrease."""
    dims = [L.dim]
    while len(current) < dims[-1]:
        dims.append(len(current))
        current = step(L, current)
    return tuple(dims)


def derived_series_dims(L: LieAlgebra) -> tuple[int, ...]:
    """Dimensions n = dim g^(0) > dim g^(1) > ... until the series stabilizes.

    Strictly decreasing by construction; ends in 0 exactly when L is solvable.
    """
    return _series(L, _commutator(L), _derived_step)


def lower_central_dims(L: LieAlgebra) -> tuple[int, ...]:
    return _series(L, _commutator(L), _lower_central_step)


def exponentiality_screen(L: LieAlgebra, samples: int, seed: int,
                          tol_im: float = 1e-9):
    """Sample-based screen for the exponential property.

    For each basis vector and ``samples`` random rational u, the eigenvalues
    of ad(u) must contain no nonzero purely imaginary value: whenever
    |Re lam| <= tol_im we require |lam| <= tol_im.  Floating point only — a
    screen, not a certificate.  Returns (status, witness_or_None).
    """
    rng = random.Random(seed)
    candidates = [L.basis_vector(i) for i in range(L.dim)] + [
        tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4))
              for _ in range(L.dim)) for _ in range(samples)]
    for u in candidates:
        for lam in np.linalg.eigvals(ad_float(L, u)):
            if abs(lam.real) <= tol_im and abs(lam) > tol_im:
                return "FailedWithWitness", u
    return "PassedSampling", None


def structure_report(L: LieAlgebra, exp_samples: int = EXP_SCREEN_SAMPLES,
                     seed: int = 0) -> StructureReport:
    """Validate and classify: solvable / nilpotent / unimodular / exponential.

    The report carries validate's violations, so none need a second pass.
    Series dimensions come from exact ranks of row-reduced spanning sets;
    unimodularity is tr ad Z_i = 0 on every basis element, read from the
    table (trace is linear in u, so the basis check decides it).
    Exponentiality is screened by sampling; pass exp_samples=0 to record
    it as Skipped.
    """
    violations = tuple(validate(L))
    commutator = _commutator(L)
    der = _series(L, commutator, _derived_step)
    low = _series(L, commutator, _lower_central_step)
    unimod = not any(_ad_traces(L))
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
