"""Finite-dimensional real Lie algebras with exact rational structure constants.

A ``LieAlgebra`` stores its sparse bracket table as integers: with D the
lcm of the constants' denominators, ``table[i][j]`` is the tuple of (k, q)
pairs with [W_i, W_j] = sum q W_k in the basis W_i = D Z_i, q = D c a
nonzero ``int`` and k rising.  ``from_constants`` builds it from the
constants as given, ``from_brackets`` from a list of brackets.  Validation
and the structural classification (solvable, nilpotent, unimodular,
exponential) read the integer table, so their cost follows the nonzero
constants, not n^3, and their spans are fraction-free
(``linalg.echelon``).  The spans are support-pruned: ``support[i]`` holds
the j with a nonzero plane table[i][j], and a product [u, v] is formed only
when it can meet one, every other product being exactly 0.  None of them
changes under the scaling by D; every exact value that leaves this module
(the violation residuals) is scaled back to the basis Z_i, as is the
adjoint matrix of ``pointwise``.
Exponentiality is decided exactly over Q.  One walk over the nonzero
planes, which also reads the traces, looks for an order of the basis in
which every ad Z_i is triangular; a non-nilpotent g that has one is
exponential, and no flag is built.  Otherwise the quotient actions of the
flag of C^inf are integer matrices that read their coordinates off
``linalg.residue``, under a positive scale that changes no check, and
``univariate``, imported on first use, runs the exact checks on each.
Nothing here uses floating point.  The records of the package are plain
classes, most with ``__slots__``; ``Record`` compares them field by
field.  ``DisagreementError`` and ``SamplingMissError``, which ``moment``
raises, are defined here, so that the command line catches them without
loading ``moment``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property

from .linalg import cleared, coordinates, echelon, integer_rref, residue

Vector = tuple[Fraction, ...]


class DimensionMismatchError(ValueError):
    """A vector or point has the wrong length for the ambient algebra."""


class DisagreementError(RuntimeError):
    """The sampled rank differs from the certified one — an internal bug."""

    def __init__(self, probabilistic: int, certified: int):
        self.probabilistic = probabilistic
        self.certified = certified
        super().__init__(
            f"generic rank mismatch: probabilistic {probabilistic} "
            f"vs certified {certified}")


class SamplingMissError(RuntimeError):
    """The sampled rank stayed below the certified one: every point drawn
    under the trials and bound settings fell where the rank drops."""


class Record:
    """Equal to another record of its class when the fields named in
    ``_compared`` are equal.  Nothing changes a record once it is made."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()


class Violation(Record):
    """One exact failure of the structure-constant axioms.

    kind is "antisymmetry" (residual = the Z_k coefficient of
    [Z_i, Z_j] + [Z_j, Z_i] as stored) or "jacobi" (residual = the full
    cyclic-sum vector at basis triple (i, j, k)).
    """

    __slots__ = _compared = ("kind", "indices", "residual")

    def __init__(self, kind: str, indices: tuple[int, ...], residual):
        self.kind = kind
        self.indices = indices
        self.residual = residual

    def describe(self, names: tuple[str, ...]) -> str:
        i, j, k = self.indices
        if self.kind == "antisymmetry":
            return (f"antisymmetry fails at ({names[i]},{names[j]}) "
                    f"component {names[k]}: residual {self.residual}")
        res = ", ".join(map(str, self.residual))
        return (f"Jacobi identity fails at ({names[i]},{names[j]},{names[k]}): "
                f"residual ({res})")


class LieAlgebra(Record):
    """table[i][j]: the (k, q) pairs of [W_i, W_j] with q a nonzero int, k
    rising, in the basis W_i = scale * Z_i; scale is the lcm of the
    constants' denominators, so equality and hashing follow the constants.
    No ``__slots__``: ``support`` is cached in the instance dict."""

    _compared = ("name", "basis_names", "table", "scale")

    def __init__(self, name: str, basis_names: tuple[str, ...],
                 table: tuple[tuple[tuple[tuple[int, int], ...], ...], ...],
                 scale: int):
        self.name = name
        self.basis_names = basis_names
        self.table = table
        self.scale = scale

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    @cached_property
    def support(self) -> tuple[frozenset[int], ...]:
        """support[i]: the j with table[i][j] nonzero.  [u, v] is 0 unless
        some i of u's coordinates has a j of v's in support[i]."""
        return tuple(frozenset(j for j, pairs in enumerate(plane) if pairs)
                     for plane in self.table)


def from_constants(name: str, basis_names, constants) -> LieAlgebra:
    """The algebra with [Z_i, Z_j] = sum q Z_k for each entry
    (i, j) -> {k: q} of ``constants``, read as given: pairs not listed
    bracket to zero, zero coefficients are dropped, and nothing is filled
    by antisymmetry, so a table that breaks it keeps its fault.
    Coefficients are ints or anything ``Fraction`` accepts.  When every
    one is an ``int`` the table is the constants themselves, scale 1, with
    no ``Fraction`` formed and no denominator read.
    """
    names = tuple(basis_names)
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("basis names must be distinct")
    if all(type(q) is int for combo in constants.values()
           for q in combo.values()):
        scale, planes = 1, constants
    else:
        ints, scale = cleared(Fraction(q) for combo in constants.values()
                              for q in combo.values())
        ints = iter(ints)  # zip reads each combo's keys before its ints
        planes = {ij: dict(zip(combo, ints))
                  for ij, combo in constants.items()}
    table = [[()] * n for _ in range(n)]
    for (i, j), combo in planes.items():
        table[i][j] = tuple(sorted((k, q) for k, q in combo.items() if q))
    return LieAlgebra(name, names, tuple(map(tuple, table)), scale)


def from_brackets(name: str, basis_names, brackets) -> LieAlgebra:
    """Construct an algebra from the nonzero brackets of basis pairs.

    ``brackets`` maps a pair of basis names (i, j) to {name: coefficient}
    giving [Z_i, Z_j]; the (j, i) entry is filled by antisymmetry.  Pairs
    not mentioned bracket to zero; zero coefficients are dropped.
    """
    names = tuple(basis_names)
    idx = {nm: i for i, nm in enumerate(names)}
    constants: dict[tuple[int, int], dict[int, object]] = {}
    for (a, b), combo in brackets.items():
        i, j = idx[a], idx[b]
        if i == j:
            raise ValueError(f"bracket of {a} with itself must be omitted")
        for target, coeff in combo.items():
            q = coeff if type(coeff) is int else Fraction(coeff)
            constants.setdefault((i, j), {})[idx[target]] = q
            constants.setdefault((j, i), {})[idx[target]] = -q
    return from_constants(name, names, constants)


def dense_vector(pairs, n: int) -> Vector:
    """The length-n coordinate vector of sparse (k, q) pairs, each k given
    once: q as it is at k, and Fraction(0) elsewhere."""
    vec = [Fraction(0)] * n
    for k, q in pairs:
        vec[k] = q
    return tuple(vec)


def format_combo(terms, basis_names) -> str:
    """A vector as a sum of basis names, e.g. "X + -1/2 * Y", from its
    (k, coefficient) pairs, k rising: its nonzero coordinates, or
    ``enumerate`` of a dense vector, whose zeros are skipped."""
    parts = []
    for k, coeff in terms:
        if not coeff:
            continue
        if coeff == 1:
            parts.append(basis_names[k])
        else:
            parts.append(f"{coeff} * {basis_names[k]}")
    return " + ".join(parts) if parts else f"0 * {basis_names[0]}"


def validate(L: LieAlgebra) -> list[Violation]:
    """Exact check of antisymmetry and the Jacobi identity.

    Violations are returned as data; an empty list certifies the table.
    Both checks run over the nonzero constants only: antisymmetry on the
    pairs (i <= j) with a nonzero entry either way, Jacobi on the nonzero
    terms [[Z_a, Z_b], Z_c] alone, each added to the cyclic sum of the
    triple i < j < k it is a rotation of, (i, j, k), (j, k, i) or (k, i, j).
    A triple with no such term has cyclic sum 0.  The sums are formed in
    the integer table, where an antisymmetry residual is D times the
    constants' and a Jacobi residual D^2 times, and are scaled back.
    """
    n, d = L.dim, L.scale
    nz = L.table
    out: list[Violation] = []
    for i in range(n):
        for j in range(i, n):
            if not (nz[i][j] or nz[j][i]):
                continue
            sums: dict[int, int] = {}
            for k, q in nz[i][j] + nz[j][i]:
                sums[k] = sums.get(k, 0) + q
            out.extend(Violation("antisymmetry", (i, j, k),
                                 Fraction(sums[k], d))
                       for k in sorted(sums) if sums[k] != 0)
    support = [[(c, pairs) for c, pairs in enumerate(plane) if pairs]
               for plane in nz]
    cyclic: dict[tuple[int, int, int], dict[int, int]] = {}
    for a in range(n):
        for b, ab in support[a]:
            # (a, b, c) is a rotation of an increasing triple for the c
            # outside [a, b] when a < b and inside (b, a) when b < a
            if a < b:
                lo, hi, outside = a, b, True
            elif b < a:
                lo, hi, outside = b + 1, a - 1, False
            else:
                continue
            for p, coeff in ab:
                for c, pc in support[p]:
                    if (lo <= c <= hi) is not outside:
                        res = cyclic.setdefault(tuple(sorted((a, b, c))), {})
                        for q, r in pc:
                            res[q] = res.get(q, 0) + coeff * r
    for triple, res in sorted(cyclic.items()):
        if any(res.values()):
            out.append(Violation("jacobi", triple, tuple(
                Fraction(res.get(q, 0), d * d) for q in range(n))))
    return out


def _product(L: LieAlgebra, us, vs) -> dict:
    """[u, v] in the integer table, as {k: coefficient}, from the nonzero
    coordinates of u and v: D times the bracket in the basis Z_i.  A
    coefficient may cancel to 0 and stay in the dict."""
    out: dict = {}
    for i, ui in us:
        plane = L.table[i]
        for j, vj in vs:
            for k, q in plane[j]:
                out[k] = out.get(k, 0) + ui * vj * q
    return out


def _products(L: LieAlgebra, us, vs=None):
    """(s, t, [us[s], vs[t]]) in the integer table for the sparse rows us
    and vs, s rising and t rising within s, over the pairs whose product
    can be nonzero: those with a nonzero plane table[i][j], i a coordinate
    of us[s] and j one of vs[t].  Every other product is exactly 0 and is
    not formed.  Without vs, the pairs s < t of us, since [b, a] = -[a, b].
    An index from each coordinate j to the t rising whose vs[t] has it
    finds the t that meet us[s] from the j its coordinates reach.
    """
    support = L.support
    left = [list(u.items()) for u in us]
    right = left if vs is None else [list(v.items()) for v in vs]
    having: dict[int, list[int]] = {}
    for t, v in enumerate(right):
        for j, _ in v:
            having.setdefault(j, []).append(t)
    for s, u in enumerate(left):
        reach = support[u[0][0]] if len(u) == 1 else frozenset().union(
            *(support[i] for i, _ in u))
        met = having.keys() & reach
        if not met:
            continue
        if len(met) == 1:
            ts = having[met.pop()]
        else:
            ts = sorted(set().union(*(having[j] for j in met)))
        if vs is None:
            ts = ts[bisect_right(ts, s):]
        for t in ts:
            yield s, t, _product(L, u, right[t])


def __getattr__(name: str):
    # ad_matrix lives in ``pointwise``, which no command but `rank` and
    # `jacobian` loads; it still resolves here, on first use
    if name != "ad_matrix":
        raise AttributeError(name)
    from . import pointwise
    return pointwise.ad_matrix


EXPONENTIAL = "Exponential"
NOT_EXPONENTIAL = "NotExponential"
# the reason of an exponential g that ``_ad_scan`` triangularises
TRIANGULAR = ("some order of the basis makes every ad Z_i triangular, so "
              "every ad X has a real spectrum")


class StructureReport(Record):
    """exponentiality is EXPONENTIAL or NOT_EXPONENTIAL,
    exponentiality_reason what the decision rests on, and
    exponentiality_witness the X of a failed check (i), or None."""

    __slots__ = _compared = (
        "violations", "is_solvable", "derived_series_dims",
        "lower_central_dims", "is_nilpotent", "is_unimodular",
        "exponentiality", "exponentiality_reason", "exponentiality_witness")

    def __init__(self, violations: tuple[Violation, ...], is_solvable: bool,
                 derived_series_dims: tuple[int, ...],
                 lower_central_dims: tuple[int, ...], is_nilpotent: bool,
                 is_unimodular: bool, exponentiality: str,
                 exponentiality_reason: str,
                 exponentiality_witness: Vector | None = None):
        self.violations = violations
        self.is_solvable = is_solvable
        self.derived_series_dims = derived_series_dims
        self.lower_central_dims = lower_central_dims
        self.is_nilpotent = is_nilpotent
        self.is_unimodular = is_unimodular
        self.exponentiality = exponentiality
        self.exponentiality_reason = exponentiality_reason
        self.exponentiality_witness = exponentiality_witness


# The series and the flag below are spans of brackets in the integer
# table, held as primitive integer rows {k: coefficient} in the echelon form
# of ``linalg.echelon``.  A span does not change under the scaling by
# D, so neither do the dimensions and pivots read off them.  Their products
# come from ``_products``, which forms no product that is exactly 0, so
# echelon reads the same nonzero vectors in the same order.


def _span(L: LieAlgebra, us, vs=None, limit=None) -> list[dict]:
    """Echelon basis of the span of the products of ``_products``; without
    vs, of the brackets of us among themselves: the derived series step."""
    return echelon((w for _, _, w in _products(L, us, vs)), limit=limit)[0]


def _commutator(L: LieAlgebra) -> list[dict]:
    """Echelon basis of [g, g]: the span of the planes marked nonzero."""
    # [Z_j, Z_i] = -[Z_i, Z_j], so only the planes j > i are read
    return echelon(dict(pairs) for i, plane in enumerate(L.table)
                   for pairs in plane[i + 1:] if pairs)[0]


def _lower_central_step(L: LieAlgebra, rows) -> list[dict]:
    # C^(j+1) lies in C^j, so a span as large as C^j is C^j: the series
    # has stabilised and the remaining products cannot add to it
    basis = [{z: 1} for z in range(L.dim)]
    return _span(L, basis, rows, limit=len(rows))


def _flag(L: LieAlgebra, commutator, stable) -> list[list[dict]]:
    """V_0 = stable, V_(j+1) = [[g, g], V_j], down to and with V = 0."""
    flag = [stable]
    while flag[-1]:
        flag.append(_span(L, commutator, flag[-1]))
    return flag


def _series(L: LieAlgebra, current, step):
    """Dimensions of g, current, step(current), ... while they decrease,
    and a basis of the last term."""
    dims = [L.dim]
    while len(current) < dims[-1]:
        dims.append(len(current))
        current = step(L, current)
    return tuple(dims), current


def derived_series_dims(L: LieAlgebra) -> tuple[int, ...]:
    """Dimensions n = dim g^(0) > dim g^(1) > ... until the series stabilizes.

    Strictly decreasing by construction; ends in 0 exactly when L is solvable.
    """
    return _series(L, _commutator(L), _span)[0]


def _quotient_actions(L: LieAlgebra, gens, upper, lower):
    """ad Z_k on upper/lower for k in gens, as integer matrices.

    The residues of upper's rows modulo lower's ``integer_rref`` rows (one
    scale d > 0) span a complement of lower; their ``integer_rref`` rows
    are the basis, on which ``linalg.coordinates`` reads each bracket's
    residue.  With the bracket formed in the integer table, each action is
    one positive multiple of the one in that basis, under which no check
    of ``univariate.quotient_failure`` changes.
    """
    below = integer_rref(lower)
    rows, piv = integer_rref(residue(upper, *below))
    return [coordinates(list(residue((_product(L, ((k, 1),), row.items())
                                      for row in rows), *below)), rows, piv)
            for k in gens]


def _exponentiality(L: LieAlgebra, commutator, stable):
    """(status, reason, witness) for a valid solvable L, decided exactly.

    g is exponential iff no ad X has a nonzero purely imaginary eigenvalue
    (Dixmier 1957, Saito 1957).  g acts trivially on g/C^1 and on each
    C^j/C^(j+1), so every nonzero root lives on the stable term C^inf of
    the lower central series.  Its flag V_0 = C^inf, V_(j+1) = [[g, g], V_j]
    is g-stable and reaches 0 by Engel's theorem, and [g, g] acts as 0 on
    each V_j/V_(j+1), so there only the basis vectors Z_k outside the
    pivots of [g, g] act, by commuting matrices A_k.  Checks (i) and (ii)
    of ``univariate.quotient_failure``, imported here on first use, run on
    each quotient.  ``structure_report`` calls this only when no order of
    the basis makes every ad Z_i triangular, but it decides any valid
    solvable L, triangular or not.
    """
    if not stable:
        return EXPONENTIAL, "nilpotent", None
    from .univariate import quotient_failure
    pivots = {min(row) for row in commutator}
    gens = [k for k in range(L.dim) if k not in pivots]
    flag = _flag(L, commutator, stable)
    for j, (upper, lower) in enumerate(zip(flag, flag[1:])):
        failure = quotient_failure(_quotient_actions(L, gens, upper, lower))
        if failure is None:
            continue
        check, c, i = failure
        X = dense_vector(((k, Fraction(ci)) for k, ci in zip(gens, c)),
                         L.dim)
        combo = format_combo(zip(gens, c), L.basis_names)
        where = (f"check ({check}) fails on V_{j}/V_{j + 1} of the flag of "
                 f"C^inf (dimension {len(upper) - len(lower)})")
        if check == "i":
            return NOT_EXPONENTIAL, (
                f"{where}: ad X has a nonzero purely imaginary eigenvalue "
                f"for X = {combo}"), X
        name = L.basis_names[gens[i]]
        return NOT_EXPONENTIAL, (
            f"{where}: E_{name} = A_{name} S^-1 has a non-real eigenvalue on "
            f"the joint Fitting-one part W, with A_{name} = ad {name} and "
            f"S = ad({combo}) on W"), None
    return EXPONENTIAL, ("checks (i) and (ii) hold on every quotient of "
                         "the flag of C^inf"), None


def _ad_scan(L: LieAlgebra) -> tuple[list[int], bool]:
    """(traces, triangular) from one walk over the nonzero planes.

    traces[i] is D tr ad Z_i, the sum of the W_j coefficients of
    [W_i, W_j] over j.  ad Z_i maps Z_j to its own multiple and to the Z_k
    of the other pairs (k, q) of table[i][j], so some order of the basis
    makes every ad Z_i triangular iff the graph j -> k over those pairs of
    every plane has no cycle; Kahn's topological sort decides that.
    """
    n = L.dim
    traces = [0] * n
    after: list[set[int]] = [set() for _ in range(n)]
    for i, (plane, js) in enumerate(zip(L.table, L.support)):
        for j in js:
            for k, q in plane[j]:
                if k == j:
                    traces[i] += q
                else:
                    after[j].add(k)
    indegree = [0] * n
    for ks in after:
        for k in ks:
            indegree[k] += 1
    ordered = [j for j in range(n) if not indegree[j]]
    for j in ordered:  # a vertex whose last edge in is removed joins the walk
        for k in after[j]:
            indegree[k] -= 1
            if not indegree[k]:
                ordered.append(k)
    return traces, len(ordered) == n


def structure_report(L: LieAlgebra) -> StructureReport:
    """Validate and classify: solvable / nilpotent / unimodular / exponential.

    The report carries validate's violations, so none need a second pass.
    Series dimensions come from exact ranks of echelon spanning sets.  One
    walk over the nonzero planes (``_ad_scan``) gives tr ad Z_i for every
    basis element, and g is unimodular when each is 0 (trace is linear in
    u, so the basis check decides it); it also finds whether some order
    of the basis makes every ad Z_i triangular.  An invalid
    table or a group that is not solvable is not exponential, and a
    nilpotent one is.  Any other g with such an order is exponential: ad X
    is then triangular with rational diagonal entries for every X, so its
    spectrum is real, and no flag is built.  The rest, where every order
    leaves a cycle, is decided exactly over Q on the flag of C^inf
    (``_exponentiality``).
    """
    violations = tuple(validate(L))
    commutator = _commutator(L)
    der, _ = _series(L, commutator, _span)
    low, stable = _series(L, commutator, _lower_central_step)
    traces, triangular = _ad_scan(L)
    if violations:
        decision = NOT_EXPONENTIAL, "the structure constants are invalid", None
    elif der[-1] != 0:
        decision = NOT_EXPONENTIAL, "not solvable", None
    elif stable and triangular:
        decision = EXPONENTIAL, TRIANGULAR, None
    else:
        decision = _exponentiality(L, commutator, stable)
    status, reason, witness = decision
    return StructureReport(
        violations=violations,
        is_solvable=der[-1] == 0,
        derived_series_dims=der,
        lower_central_dims=low,
        is_nilpotent=low[-1] == 0,
        is_unimodular=not any(traces),
        exponentiality=status,
        exponentiality_reason=reason,
        exponentiality_witness=witness,
    )
