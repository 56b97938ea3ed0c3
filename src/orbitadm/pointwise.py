"""The readers of one chart point, and the commands that print them.

``rank`` and ``jacobian`` read a single point l_x of A_tau, given by its
chart coordinates x (``parse_rational_list`` reads ``--point``).  This
module holds what they run and ``verdict`` never does: the point
itself (``point_on_variety``), the stabilizers there, the two commands
and their text reports.  It also holds the exact ``ad_matrix`` of the
algebra, which ``geometry`` floats.  ``cli`` imports it for those two
commands alone, so a cold ``verdict`` never compiles it.

Every reader works in integers.  x is cleared to one denominator as for
the moment block (``moment._cleared_point``), and l_x formed there from
the datum's integer chart (``_integer_point``).  The stabilizer report
takes the kernels of the moment block and of the skew form B(l), built
from the integer table at that integer point (``_skew_rows``), from
``linalg.integer_kernel``, and divides back only the vectors returned.
``ad_matrix`` clears its argument by ``linalg.cleared`` and scales back
once per entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .algebra import DimensionMismatchError, LieAlgebra
from .linalg import cleared, integer_kernel
from .moment import _block_at, _cleared_point
from .monomial import MonomialDatum, build_datum
from .problemfile import (_RATIONAL_RE, EXIT_OK, _load, _printable,
                          _rational, _Refusal, _UsageError)
from .report import _combo_strings, _text

# typing.TYPE_CHECKING, read by type checkers; typing is not imported
TYPE_CHECKING = False
if TYPE_CHECKING:  # only `jacobian` loads geometry
    from .geometry import JacobianReport

Vector = tuple[Fraction, ...]


def ad_matrix(L: LieAlgebra, u) -> list[list[Fraction]]:
    """Matrix of ad(u) = [u, .]; column j holds the coordinates of [u, Z_j].
    Formed in the integer table from u cleared to integers."""
    n = L.dim
    if len(u) != n:
        raise DimensionMismatchError(f"expected length {n}, got {len(u)}")
    us, d = cleared(map(Fraction, u))
    mat = [[0] * n for _ in range(n)]
    for i, ui in enumerate(us):
        if ui:
            for j, pairs in L.support[i].items():
                for k, q in pairs:
                    mat[k][j] += ui * q
    d, zero = d * L.scale, Fraction(0)
    return [[Fraction(x, d) if x else zero for x in row] for row in mat]


def _integer_point(D: MonomialDatum, x) -> tuple[list[int], int]:
    """(c, d): l_x = c / d, with x cleared to q x over one denominator q
    and d = q * chart_scale, each coordinate of c formed in integers from
    the datum's chart pairs."""
    xs, q = _cleared_point(D, x)
    xs = (q, *xs)
    return ([sum(a * xs[v] for v, a in pairs) for pairs in D.chart_pairs],
            q * D.chart_scale)


def point_on_variety(D: MonomialDatum, x) -> Vector:
    """The chart of A_tau: x -> l with l(Y_j) = f_j and l(X_r) = x_r.

    Returned as a length-n row of values on the ORIGINAL basis, formed in
    integers (``_integer_point``) and divided once per coordinate.
    """
    c, d = _integer_point(D, x)
    return tuple(Fraction(v, d) for v in c)


class StabilizerReport:
    """rank_M is dim H.l; the stabilizer bases are vectors of g in the
    original coordinates."""

    __slots__ = ("point", "rank_M", "h_stab_basis", "dim_G_orbit",
                 "g_stab_basis")

    def __init__(self, point: Vector, rank_M: int,
                 h_stab_basis: tuple[Vector, ...], dim_G_orbit: int,
                 g_stab_basis: tuple[Vector, ...]):
        self.point = point
        self.rank_M = rank_M
        self.h_stab_basis = h_stab_basis
        self.dim_G_orbit = dim_G_orbit
        self.g_stab_basis = g_stab_basis


def _skew_rows(L: LieAlgebra, lv: list[int]) -> list[dict[int, int]]:
    """Row i of e B(l) as {j: nonzero int}, from the integer table and the
    integer point lv = d l, so e = d L.scale > 0."""
    rows = []
    for planes in L.support:
        row = {}
        for j, pairs in planes.items():
            if s := sum(q * lv[k] for k, q in pairs):
                row[j] = s
        rows.append(row)
    return rows


def stabilizer_report(D: MonomialDatum, x) -> StabilizerReport:
    """Orbit dimensions and stabilizer bases at the point l_x of A_tau.

    h(l) comes from the left kernel of M(l): a row combination a with
    a M(l) = 0 corresponds to the element sum a_i Y_i, so rank M(l) is
    m - dim h(l).  That kernel is the right kernel of M(l)^T, whose nonzero
    rows are the block's columns.  g(l) is the kernel of the skew form
    B(l), whose rank (always even) is dim G.l, read off the integer rows of
    ``_skew_rows``.  Both kernels come from ``linalg.integer_kernel``,
    whose vectors are divided by their entry at their free column, the
    first key, once they are dense.
    """
    m, n = D.m, D.n
    h_basis = []
    for a in integer_kernel(_block_at(D, x)[0], m):
        v = [0] * n
        for i, ai in a.items():
            for k, c in D.generator_terms[i]:
                v[k] += ai * c
        d = next(iter(a.values()))
        h_basis.append(tuple(Fraction(y, d) for y in v))
    lv, e = _integer_point(D, x)
    g_basis = []
    for v in integer_kernel(_skew_rows(D.algebra, lv), n):
        d = next(iter(v.values()))
        g_basis.append(tuple(Fraction(v.get(k, 0), d) for k in range(n)))
    return StabilizerReport(
        point=tuple(Fraction(v, e) for v in lv),
        rank_M=m - len(h_basis),
        h_stab_basis=tuple(h_basis),
        dim_G_orbit=n - len(g_basis),
        g_stab_basis=tuple(g_basis),
    )


def parse_rational_list(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals, e.g. '1,-2/3,0' (used for --point), each
    read as a problem file reads a rational; errors carry no position.  An
    empty text is no rationals: the chart of h = g has no coordinates."""
    if not text.strip():
        return ()
    out = []
    for piece in (item.strip() for item in text.split(",")):
        if _RATIONAL_RE.fullmatch(piece) is None:
            raise ValueError(f"not a rational: {piece!r}")
        try:
            out.append(Fraction(_rational(piece)))
        except _Refusal as exc:
            raise ValueError(exc.message) from None
    return tuple(out)


def render_stabilizer_text(sr: StabilizerReport, basis_names) -> str:
    return _text({
        "point": [str(v) for v in sr.point],
        "rank_M": sr.rank_M,
        "dim_H_orbit": sr.rank_M,
        "h_stab_basis": _combo_strings(sr.h_stab_basis, basis_names),
        "dim_G_orbit": sr.dim_G_orbit,
        "g_stab_basis": _combo_strings(sr.g_stab_basis, basis_names),
    })


def render_jacobian_text(jr: JacobianReport, point, h: float,
                         rel_tol: float) -> str:
    return _text({
        "point": [str(Fraction(v)) for v in point],
        "step": h,
        "rank_tolerance": rel_tol,
        "max_dev_topleft": jr.max_dev_topleft,
        "max_dev_topright": jr.max_dev_topright,
        "max_dev_bottomright": jr.max_dev_bottomright,
        "numerical_rank_J": jr.numerical_rank_J,
        "expected_rank": jr.expected_rank,
        "rank_matches": jr.numerical_rank_J == jr.expected_rank,
    })


def _datum_and_point(args):
    pf = _load(args.file)
    datum = build_datum(pf.algebra, pf.generator_terms, pf.functional_vals)
    try:
        x = parse_rational_list(args.point)
    except ValueError as exc:
        raise _UsageError(f"--point: {exc}")
    if len(x) != datum.n - datum.m:
        raise _UsageError(
            f"--point needs {datum.n - datum.m} coordinates for this datum, "
            f"got {len(x)}")
    return datum, x


def _cmd_rank(args, out) -> int:
    datum, x = _datum_and_point(args)
    sr = stabilizer_report(datum, x)
    with _printable("the report at this --point"):
        text = render_stabilizer_text(sr, datum.algebra.basis_names)
    out.write(text)
    return EXIT_OK


def _cmd_jacobian(args, out) -> int:
    if not 0 < args.step < inf:  # nan fails too
        raise _UsageError("--step must be positive and finite")
    if not 0 < args.tol < 1:  # at 1 no singular value would count
        raise _UsageError("--tol must lie strictly between 0 and 1")
    # loaded for this command only
    from .geometry import ProblemOverflowError, fd_jacobian
    datum, x = _datum_and_point(args)
    try:  # fd_jacobian differentiates in floating point
        coordinates = [float(v) for v in x]
    except OverflowError:
        raise _UsageError("--point: a coordinate is too large for floating "
                          "point")
    if any(v - args.step == v or v + args.step == v for v in coordinates):
        raise _UsageError("--step is below the spacing of floating point at "
                          "a --point coordinate")
    try:
        jr = fd_jacobian(datum, x, h=args.step, rel_tol=args.tol)
    except ProblemOverflowError as exc:
        raise _UsageError("a number of the problem at this --point is too "
                          f"large for floating point: {exc}")
    except OverflowError as exc:
        raise _UsageError(f"--step is too large: {exc}")
    out.write(render_jacobian_text(jr, x, args.step, args.tol))
    return EXIT_OK
