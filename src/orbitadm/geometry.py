"""Floating-point coadjoint geometry and derivative verification.

Group elements are handled only through exp-coordinates of the second kind,
s = exp(t_1 B_1) ... exp(t_n B_n), and only through their adjoint matrices:
Ad(s) is the corresponding product of matrix exponentials exp(t_k ad B_k),
and the coadjoint action is l -> l o Ad(s^-1).  On top of that this module
realizes the chart form of the action map,

    phi~(t, x) = the values of s_t . l_x on the adapted basis,   l_x in A_tau,

and checks by central differences that its Jacobian at (0, x) has the block
shape [[M(l), 0], [*, I]] — rows split m / n-m, columns split n / n-m — so
its rank is rank M(l) + n - m.

The arithmetic is plain Python floats: a vector is a list, a matrix a list
of its rows.  The kernels are the standard dense ones: scaling and squaring
around a Taylor core for the exponential (Higham 2005), and one-sided Jacobi
for the singular values (Demmel and Veselić 1992).  A row is moved by
exp(tA) as a Taylor series on the row itself while |t| ||A||_1 <= 1/2, which
covers every finite-difference step at the default ``--step``, so no n x n
exponential is formed there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from operator import mul

from .algebra import LieAlgebra
from .linalg import echelon, matmul
from .moment import _block_at
from .monomial import MonomialDatum
from .pointwise import ad_matrix, point_on_variety

Matrix = list[list[float]]

# terms of the exponential series are added until they fall below this
_SERIES_TOL = 1e-18
# largest norm the series runs at; above it, scaling and squaring
_SERIES_NORM = 0.5
# Jacobi rotates a pair of vectors while their cosine exceeds the vector
# length times one ulp, and stops after _SWEEPS sweeps in any case
_ULP = 2.0 ** -52
_SWEEPS = 60


class ProblemOverflowError(OverflowError):
    """A number of the problem itself, at the given point, is past the
    float range: no step of the difference quotients would mend that."""


def ad_float(L: LieAlgebra, u) -> Matrix:
    """ad(u) as a floating n x n matrix."""
    return [[float(x) if x else 0.0 for x in row] for row in ad_matrix(L, u)]


def _norm1(A) -> float:
    """The largest column sum of |A|: it bounds v -> v A in the max norm."""
    return max((sum(map(abs, column)) for column in zip(*A)), default=0.0)


def expm(A) -> Matrix:
    """Matrix exponential: scaling and squaring around a Taylor core.

    The scaled matrix has norm <= 1/2, so the series converges fast; terms
    are added until they fall below machine precision.  For nilpotent input
    the series is finite and the result exact to roundoff.
    """
    A = [[float(a) for a in row] for row in A]
    n = len(A)
    norm = _norm1(A)
    squarings = 0
    if norm > _SERIES_NORM:
        squarings = math.ceil(math.log2(norm / _SERIES_NORM))
        scale = 2.0 ** squarings
        A = [[a / scale for a in row] for row in A]
    result = [[float(i == j) for j in range(n)] for i in range(n)]
    term = result
    for k in range(1, 40):
        term = [[x / k for x in row] for row in matmul(term, A)]
        result = [[r + x for r, x in zip(rrow, trow)]
                  for rrow, trow in zip(result, term)]
        if max((abs(x) for row in term for x in row),
               default=0.0) < _SERIES_TOL:
            break
    for _ in range(squarings):
        result = matmul(result, result)
    return result


def _exp_action(A):
    """(v, t) -> v exp(tA) for the square float matrix A (rows).

    While |t| ||A||_1 <= 1/2 the Taylor series runs on the row: its k-th
    term is at most ||v||_max / (2^k k!) in every entry, and it stops as
    ``expm``'s does, with the tolerance taken relative to ||v||_max.  Above
    that, v is multiplied by ``expm(tA)``.
    """
    n = len(A)
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in A]
    norm = _norm1(A)

    def act(v: list[float], t: float) -> list[float]:
        if abs(t) * norm > _SERIES_NORM:
            E = expm([[t * a for a in row] for row in A])
            return [sum(map(mul, v, column)) for column in zip(*E)]
        result = term = v
        tol = _SERIES_TOL * max(map(abs, v), default=0.0)
        for k in range(1, 40):
            c = t / k
            following = [0.0] * n
            for x, row in zip(term, rows):
                if x:
                    x *= c
                    for j, a in row:
                        following[j] += x * a
            term = following
            result = [r + x for r, x in zip(result, term)]
            if max(map(abs, term), default=0.0) <= tol:
                break
        return result
    return act


def _coadjoint_apply_acts(factors, l) -> list[float]:
    """coadjoint_apply_factors, given the pairs (``_exp_action`` of ad Z_k,
    t_k)."""
    row = [float(v) for v in l]
    for act, t in reversed(list(factors)):
        if t:  # exp(0) = I
            row = act(row, -float(t))
    return row


def coadjoint_apply_factors(L: LieAlgebra, factors, l) -> list[float]:
    """l o Ad(s^-1) for s = prod exp(t_k Z_k), factors = [(Z_k, t_k), ...].

    Ad(s^-1) is the product of the inverse factors in reverse order; as a
    row vector l transforms by right multiplication.
    """
    return _coadjoint_apply_acts(
        [(_exp_action(ad_float(L, Z)), t) for Z, t in factors], l)


def _chart_action(D: MonomialDatum):
    """phi~(t, x), with the adapted basis and its ad-matrices floated once
    and l_x computed once per distinct x.  t holds n exp-coordinates over
    the adapted basis (the Y_j, then the X_r), x the n - m chart
    coordinates of l_x; the value is s_t . l_x on the adapted basis, so at
    t = 0 it is (f, x) up to roundoff."""
    acts = [_exp_action(ad_float(D.algebra, row)) for row in D.adapted_rows]
    adapted = [[(j, float(a)) for j, a in enumerate(row) if a]
               for row in D.adapted_rows]

    @cache
    def l_at(x):
        return point_on_variety(D, x)

    def phi(t, x):
        row = _coadjoint_apply_acts(zip(acts, t), l_at(tuple(x)))
        return [sum(a * row[j] for j, a in pairs) for pairs in adapted]
    return phi


def singular_values(mat) -> list[float]:
    """The min(rows, columns) singular values of mat, largest first.

    One-sided Jacobi on the shorter side: the pairs of its vectors (the rows
    of a wide matrix, the columns of a tall one) are rotated until every
    pair is orthogonal to working precision, and the singular values are
    then their lengths.  mat is first divided by its largest |entry|, so no
    sum of squares overflows.
    """
    rows = [[float(a) for a in row] for row in mat]
    if not all(math.isfinite(a) for row in rows for a in row):
        raise ValueError("the matrix has an entry that is not finite")
    width = len(rows[0]) if rows else 0
    vectors = rows if len(rows) <= width else [list(c) for c in zip(*rows)]
    top = max((abs(a) for v in vectors for a in v), default=0.0)
    if top == 0.0:
        return [0.0] * len(vectors)
    vectors = [[a / top for a in v] for v in vectors]
    tol = _ULP * len(vectors[0])
    squares = [sum(map(mul, v, v)) for v in vectors]
    k = len(vectors)
    for _ in range(_SWEEPS):
        rotated = False
        for i in range(k - 1):
            for j in range(i + 1, k):
                gamma = sum(map(mul, vectors[i], vectors[j]))
                if abs(gamma) <= (tol * math.sqrt(squares[i])
                                  * math.sqrt(squares[j])):
                    continue
                rotated = True
                zeta = (squares[j] - squares[i]) / (2 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta)
                                                + math.hypot(1.0, zeta))
                c = 1 / math.sqrt(1 + t * t)
                s = c * t
                vi = [c * a - s * b for a, b in zip(vectors[i], vectors[j])]
                vj = [s * a + c * b for a, b in zip(vectors[i], vectors[j])]
                vectors[i], vectors[j] = vi, vj
                squares[i] = sum(map(mul, vi, vi))
                squares[j] = sum(map(mul, vj, vj))
        if not rotated:
            break
    return sorted((math.sqrt(q) * top for q in squares), reverse=True)


def numerical_rank(mat, rel_tol: float = 1e-8) -> int:
    """Singular values above rel_tol times the largest one, 0 < rel_tol < 1:
    at 1 or more none would count."""
    if not 0 < rel_tol < 1:  # nan fails too
        raise ValueError("rel_tol must lie strictly between 0 and 1")
    sv = singular_values(mat)
    top = max(sv, default=0.0)
    if top == 0.0:
        return 0
    return sum(s > rel_tol * top for s in sv)


class JacobianReport:
    """J is n x (2n - m), a list of rows; the deviations are from the
    analytic M(l), the zero block and the identity block; expected_rank is
    rank M(l) + n - m."""

    __slots__ = ("J", "max_dev_topleft", "max_dev_topright",
                 "max_dev_bottomright", "numerical_rank_J", "expected_rank")

    def __init__(self, J: Matrix, max_dev_topleft: float,
                 max_dev_topright: float, max_dev_bottomright: float,
                 numerical_rank_J: int, expected_rank: int):
        self.J = J
        self.max_dev_topleft = max_dev_topleft
        self.max_dev_topright = max_dev_topright
        self.max_dev_bottomright = max_dev_bottomright
        self.numerical_rank_J = numerical_rank_J
        self.expected_rank = expected_rank


def fd_jacobian(D: MonomialDatum, x, h: float = 1e-4,
                rel_tol: float = 1e-8) -> JacobianReport:
    """Central-difference Jacobian of phi~ at (t, x) = (0, x), with checks.

    Columns 0..n-1 differentiate in the group directions, columns n..2n-m-1
    in the chart directions.  The analytic prediction for the three marked
    blocks is M(l) (top-left), 0 (top-right), I (bottom-right); the
    bottom-left block is unconstrained.  x may be floats; they convert to
    exact rationals, so M(l_x) and its rank are read exactly off one
    integer block (``moment._block_at``).  A number of the problem past the
    float range at x raises ``ProblemOverflowError``; an overflow at the
    step, ``OverflowError``.
    """
    if not 0 < h < math.inf:
        raise ValueError("step must be positive and finite")
    n, m = D.n, D.m
    nfree = n - m
    x_exact = tuple(Fraction(v) for v in x)
    x_float = [float(v) for v in x_exact]

    try:  # the problem's numbers in floating point, before any step
        f = _chart_action(D)
        f([0.0] * n, x_float)
        block, q = _block_at(D, x_exact)
        M = [[0.0] * m + [c.get(i, 0) / (q * D.denominator) for c in block]
             for i in range(m)]
    except OverflowError as exc:
        raise ProblemOverflowError(str(exc)) from None

    def quotient(plus, minus):
        return [(p - q) / (2 * h) for p, q in zip(plus, minus)]

    cols = []
    for k in range(n):
        tp = [0.0] * n
        tm = [0.0] * n
        tp[k], tm[k] = h, -h
        cols.append(quotient(f(tp, x_float), f(tm, x_float)))
    for r in range(nfree):
        xp = list(x_float)
        xm = list(x_float)
        xp[r] += h
        xm[r] -= h
        cols.append(quotient(f([0.0] * n, xp), f([0.0] * n, xm)))
    J = [list(row) for row in zip(*cols)]
    if not all(math.isfinite(v) for row in J for v in row):
        raise OverflowError(f"the difference quotients at step {h!r} "
                            f"are not finite")

    top_left = (J[i][j] - M[i][j] for i in range(m) for j in range(n))
    top_right = (J[i][j] for i in range(m) for j in range(n, n + nfree))
    bottom_right = (J[i][j] - (i - m == j - n) for i in range(m, n)
                    for j in range(n, n + nfree))
    dev = (lambda block: max(map(abs, block), default=0.0))
    return JacobianReport(
        J=J,
        max_dev_topleft=dev(top_left),
        max_dev_topright=dev(top_right),
        max_dev_bottomright=dev(bottom_right),
        numerical_rank_J=numerical_rank(J, rel_tol),
        expected_rank=len(echelon(block)[0]) + nfree,
    )
