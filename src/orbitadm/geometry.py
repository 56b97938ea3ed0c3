"""Floating-point coadjoint geometry and derivative verification.

Group elements are handled only through exp-coordinates of the second kind,
s = exp(t_1 B_1) ... exp(t_n B_n), and only through their adjoint matrices:
Ad(s) is the corresponding product of matrix exponentials exp(t_k ad B_k),
and the coadjoint action is l -> l o Ad(s^-1).  On top of that this module
realizes the chart form of the action map,

    phi~(t, x) = adapted dual coordinates of (s_t . l_x),   l_x in A_tau,

and checks by central differences that its Jacobian at (0, x) has the block
shape [[M(l), 0], [*, I]] — rows split m / n-m, columns split n / n-m — so
its rank is rank M(l) + n - m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np

from .algebra import DimensionMismatchError, LieAlgebra
from .moment import rank_at
from .monomial import MonomialDatum
from .pointwise import ad_matrix, moment_matrix, point_on_variety


def ad_float(L: LieAlgebra, u) -> np.ndarray:
    """ad(u) as a floating n x n matrix."""
    return np.array(ad_matrix(L, u), dtype=float)


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential: scaling and squaring around a Taylor core.

    The scaled matrix has norm <= 1/2, so the series converges fast; terms
    are added until they fall below machine precision.  For nilpotent input
    the series is finite and the result exact to roundoff.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    norm = np.linalg.norm(A, 1)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        A = A / (2.0 ** squarings)
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 40):
        term = term @ A / k
        result = result + term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(squarings):
        result = result @ result
    return result


def ad_exp(L: LieAlgebra, Z, t: float) -> np.ndarray:
    """exp(t ad Z) as an n x n floating matrix."""
    return expm(t * ad_float(L, Z))


def _coadjoint_apply_ads(ad_factors, l) -> np.ndarray:
    """coadjoint_apply_factors, given the pairs (floating ad Z_k, t_k)."""
    row = np.array([float(v) for v in l], dtype=float)
    for ad, t in reversed(list(ad_factors)):
        if t:  # exp(0) = I
            row = row @ expm(-float(t) * ad)
    return row


def coadjoint_apply_factors(L: LieAlgebra, factors, l) -> np.ndarray:
    """l o Ad(s^-1) for s = prod exp(t_k Z_k), factors = [(Z_k, t_k), ...].

    Ad(s^-1) is the product of the inverse factors in reverse order; as a
    row vector l transforms by right multiplication.
    """
    return _coadjoint_apply_ads([(ad_float(L, Z), t) for Z, t in factors], l)


def coadjoint_apply(L: LieAlgebra, t, l) -> np.ndarray:
    """Coadjoint action of s = exp(t_1 Z_1) ... exp(t_n Z_n), original basis."""
    if len(t) != L.dim:
        raise DimensionMismatchError(
            f"group coordinates need {L.dim} values, got {len(t)}")
    factors = [(L.basis_vector(k), t[k]) for k in range(L.dim)]
    return coadjoint_apply_factors(L, factors, l)


def phi_in_chart(D: MonomialDatum, t, x) -> np.ndarray:
    """The action map in chart coordinates.

    t holds n exp-coordinates over the ADAPTED basis (Y's first, then the
    completion), x the n-m chart coordinates of a point of A_tau.  Output is
    the value of s_t . l_x on the adapted basis: first m entries on the Y_j,
    last n-m on the X_r.  At t = 0 this returns (f, x) up to roundoff.
    """
    n, m = D.n, D.m
    if len(t) != n:
        raise DimensionMismatchError(
            f"group coordinates need {n} values, got {len(t)}")
    if len(x) != n - m:
        raise DimensionMismatchError(
            f"chart point needs {n - m} values, got {len(x)}")
    return _chart_action(D)(t, x)


def _chart_action(D: MonomialDatum):
    """phi~(t, x), with the adapted basis and its ad-matrices floated once
    and l_x computed once per distinct x."""
    ads = [ad_float(D.algebra, row) for row in D.adapted_rows]
    adapted = np.array(D.adapted_rows, dtype=float)

    @cache
    def l_at(x):
        return point_on_variety(D, tuple(Fraction(v) for v in x))

    def phi(t, x):
        return adapted @ _coadjoint_apply_ads(zip(ads, t), l_at(tuple(x)))
    return phi


def numerical_rank(mat: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Singular values above rel_tol times the largest one, 0 < rel_tol < 1:
    at 1 or more none would count."""
    if not 0 < rel_tol < 1:  # nan fails too
        raise ValueError("rel_tol must lie strictly between 0 and 1")
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    top = sv.max(initial=0.0)
    if top == 0.0:
        return 0
    return int((sv > rel_tol * top).sum())


class JacobianReport:
    """J is n x (2n - m); the deviations are from the analytic M(l), the
    zero block and the identity block; expected_rank is
    rank M(l) + n - m."""

    __slots__ = ("J", "max_dev_topleft", "max_dev_topright",
                 "max_dev_bottomright", "numerical_rank_J", "expected_rank")

    def __init__(self, J: np.ndarray, max_dev_topleft: float,
                 max_dev_topright: float, max_dev_bottomright: float,
                 numerical_rank_J: int, expected_rank: int):
        self.J = J
        self.max_dev_topleft = max_dev_topleft
        self.max_dev_topright = max_dev_topright
        self.max_dev_bottomright = max_dev_bottomright
        self.numerical_rank_J = numerical_rank_J
        self.expected_rank = expected_rank


@np.errstate(over="ignore", invalid="ignore")  # J is checked to be finite
def fd_jacobian(D: MonomialDatum, x, h: float = 1e-4,
                rel_tol: float = 1e-8) -> JacobianReport:
    """Central-difference Jacobian of phi~ at (t, x) = (0, x), with checks.

    Columns 0..n-1 differentiate in the group directions, columns n..2n-m-1
    in the chart directions.  The analytic prediction for the three marked
    blocks is M(l) (top-left), 0 (top-right), I (bottom-right); the
    bottom-left block is unconstrained.  x may be floats; they convert to
    exact rationals, so the comparison matrix M(l_x) is computed exactly.
    """
    if not 0 < h < math.inf:
        raise ValueError("step must be positive and finite")
    n, m = D.n, D.m
    nfree = n - m
    x_exact = tuple(Fraction(v) for v in x)
    x_float = [float(v) for v in x_exact]

    f = _chart_action(D)
    cols = []
    for k in range(n):
        tp = [0.0] * n
        tm = [0.0] * n
        tp[k], tm[k] = h, -h
        cols.append((f(tp, x_float) - f(tm, x_float)) / (2 * h))
    for r in range(nfree):
        xp = list(x_float)
        xm = list(x_float)
        xp[r] += h
        xm[r] -= h
        cols.append((f([0.0] * n, xp) - f([0.0] * n, xm)) / (2 * h))
    J = np.column_stack(cols) if cols else np.zeros((n, 0))
    if not np.isfinite(J).all():
        raise OverflowError(f"the difference quotients at step {h!r} "
                            f"are not finite")

    M = moment_matrix(D, x_exact)
    M_float = np.array([[float(v) for v in row] for row in M],
                       dtype=float).reshape(m, n)
    top_left = J[:m, :n] - M_float
    top_right = J[:m, n:]
    bottom_right = J[m:, n:] - np.eye(nfree)
    dev = (lambda block: float(np.abs(block).max()) if block.size else 0.0)
    return JacobianReport(
        J=J,
        max_dev_topleft=dev(top_left),
        max_dev_topright=dev(top_right),
        max_dev_bottomright=dev(bottom_right),
        numerical_rank_J=numerical_rank(J, rel_tol),
        expected_rank=rank_at(D, x_exact) + nfree,
    )
