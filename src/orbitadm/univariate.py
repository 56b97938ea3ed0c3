"""Univariate polynomials over the rationals, just enough to locate roots,
and the checks of the exponentiality decision that need them.

A polynomial is a list of ints, constant term first, with no trailing zero
(the zero polynomial is ``[]``).  Callers ask only where the roots are, so
every result is given up to a positive rational factor: rational input is
scaled to integers, and remainders are divided by their content, which
keeps the integers small without changing any sign that a Sturm count
reads.

``algebra`` imports this module on first use, once a quotient action of
the exponentiality decision is not triangular (in the corpus, only for
``grelaud``): ``real_spectrum`` screens such an action, and
``quotient_failure`` runs checks (i) and (ii) when one fails the screen.
The Fitting-one restriction and S^-1 of those checks are read off
``linalg.integer_rref`` rows as integer matrices, each a positive multiple
of the rational one, which moves no eigenvalue off or onto the real or
imaginary axis.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd as int_gcd
from math import lcm

from .algebra import _real_spectrum
from .linalg import integer_rref, matmul


def primitive(p) -> list[int]:
    """p over the gcd of its integer coefficients, trailing zeros dropped."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    g = 0
    for c in p:
        g = int_gcd(g, c)
    return [c // g for c in p] if g > 1 else p


def from_rationals(coeffs) -> list[int]:
    """The primitive integer polynomial with the roots of ``coeffs``."""
    d = lcm(*(c.denominator for c in coeffs))
    return primitive([c.numerator * (d // c.denominator) for c in coeffs])


def derivative(p) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _pseudo_remainder(a, b) -> list[int]:
    """r with s * a = q * b + r and deg r < deg b, s a positive int, made
    primitive."""
    lead = b[-1]
    s = abs(lead)
    r = list(a)
    for k in reversed(range(len(a) - len(b) + 1)):
        top = r[k + len(b) - 1]
        if s != 1:
            r = [s * x for x in r]
        f = top if lead > 0 else -top
        for i, c in enumerate(b):
            r[k + i] -= f * c
    return primitive(r)


def gcd(a, b) -> list[int]:
    """Greatest common divisor, primitive with a positive leading term."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, _pseudo_remainder(a, b)
    return [-c for c in a] if a and a[-1] < 0 else a


def _sign_changes(signs) -> int:
    signs = [s > 0 for s in signs if s]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def real_root_count(p) -> int:
    """Number of distinct real roots, from the Sturm sequence of p.

    p_0 = p, p_1 = p', p_(k+1) = -(p_(k-1) mod p_k); the count is the
    number of sign changes of the leading terms at -infinity minus that at
    +infinity.  It counts distinct roots whether or not p is square-free.
    """
    p = primitive(p)
    if len(p) < 2:
        return 0
    seq = [p, derivative(p)]
    while len(seq[-1]) > 1:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    at_plus = [q[-1] for q in seq]
    at_minus = [q[-1] if len(q) % 2 else -q[-1] for q in seq]
    return _sign_changes(at_minus) - _sign_changes(at_plus)


def has_nonzero_imaginary_root(p) -> bool:
    """Whether p(iy) = 0 for some real y != 0.

    p(iy) = R(y) + i I(y) with R, I real, so such a y is a common real root
    of R and I: a real root of their gcd once the factors y are removed.
    The Sturm count runs only when that gcd is not constant.
    """
    sign = [1, 1, -1, -1]  # i^k = sign * 1 (k even) or sign * i (k odd)
    re = [sign[k % 4] * c if k % 2 == 0 else 0 for k, c in enumerate(p)]
    im = [sign[k % 4] * c if k % 2 else 0 for k, c in enumerate(p)]
    g = gcd(re, im)
    while g and not g[0]:
        g = g[1:]
    return len(g) > 1 and real_root_count(g) > 0


def charpoly(mat) -> list[int]:
    """det(x I - mat), up to a positive factor, in O(n^3) exact steps.

    The matrix is brought to upper Hessenberg form H by similarity
    (Gaussian elimination below the subdiagonal), then the determinant
    follows from the recurrence on its leading principal minors,

        p_k = (x - h_kk) p_(k-1)
              - sum_(i<k) h_ik * h_(i+1,i) ... h_(k,k-1) * p_(i-1).

    Zero multipliers and zero subdiagonal products are skipped, so a
    triangular matrix costs O(n^2).
    """
    h = [[Fraction(x) for x in row] for row in mat]
    n = len(h)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        top = h[m][m - 1]
        for i in range(m + 1, n):
            u = h[i][m - 1] / top
            if not u:
                continue
            row_i, row_m = h[i], h[m]
            for c in range(m - 1, n):
                if row_m[c]:
                    row_i[c] -= u * row_m[c]
            for row in h:
                if row[i]:
                    row[m] += u * row[i]
    polys = [[Fraction(1)]]
    for k in range(n):
        prev = polys[-1]
        p = [Fraction(0)] + prev
        for d, c in enumerate(prev):
            p[d] -= h[k][k] * c
        t = Fraction(1)
        for i in range(k - 1, -1, -1):
            t *= h[i + 1][i]
            if not t:
                break
            if h[i][k]:
                for d, c in enumerate(polys[i]):
                    p[d] -= h[i][k] * t * c
        polys.append(p)
    return from_rationals(polys[-1])


def real_spectrum(M) -> bool:
    """Whether every eigenvalue of M is real: a Sturm count of the roots of
    the characteristic polynomial p against deg p - deg gcd(p, p'), the
    number of distinct ones."""
    p = charpoly(M)
    distinct = len(p) - len(gcd(p, derivative(p)))
    return real_root_count(p) == distinct


def quotient_failure(mats):
    """``algebra._quotient_failure`` for commuting integer actions ``mats``
    of which some has a non-real eigenvalue.

    Every nonzero joint character chi lives on the joint Fitting-one part
    W, where S = sum c_i A_i is invertible exactly when chi(S) != 0 for
    all of them.  c runs through (1, t, t^2, ...) for t = 1, 2, ...:
    chi(S) = sum_i chi_i t^i is a nonzero polynomial in t with fewer than
    r roots, so the search ends.  In a joint triangular basis of W,
    E_i = A_i S^-1 has the eigenvalues e_i = chi(A_i) / chi(S).  If (i)
    leaves Re chi(S) != 0 and every e_i is real, chi(X) is chi(S) times a
    real number, imaginary only when it is 0.  If some e_i is not real,
    chi(S) and chi(A_i) span C over R, so chi(X) = i for some real X.
    A positive scale of the A_i moves no eigenvalue off or onto the real
    or imaginary axis, and cancels in E_i = A_i (e S^-1).
    """
    mats = _on_fitting_component(mats)
    n, t = len(mats[0]), 1
    while True:
        c = [t ** i for i in range(len(mats))]
        S = [[sum(ci * A[a][b] for ci, A in zip(c, mats)) for b in range(n)]
             for a in range(n)]
        inverse = _scaled_inverse(S)
        if inverse is not None:
            break
        t += 1
    if has_nonzero_imaginary_root(charpoly(S)):
        return "i", c, None
    for i, A in enumerate(mats):
        if not _real_spectrum(matmul(A, inverse)):
            return "ii", c, i
    return None


def _on_fitting_component(mats) -> list[list[list[int]]]:
    """The commuting integer ``mats`` restricted to their joint Fitting-one
    part, as integer matrices.

    That part is W = sum_i im A_i^d (d = len(A_i)): the sum of the joint
    generalised eigenspaces of the characters chi != 0.  U <- sum_i A_i U,
    from the whole space, shrinks to W and stays there: some A_i is
    invertible on each of those eigenspaces, while on the joint kernel
    part the A_i are commuting nilpotents, under which a nonzero invariant
    U has sum_i A_i U smaller than U.  U is held in its ``integer_rref``
    rows, which are unique: once U stops shrinking they are W's, and the
    images just formed are those of W's rows.  Such a w has coordinate
    w[pivot] / p on the row with pivot entry p, taken times e, the lcm of
    the p: e times the restriction in the rref basis, conjugated by a
    positive diagonal matrix, which keeps triangularity and every sign
    the checks read.
    """
    rows, piv = [{j: 1} for j in range(len(mats[0]))], range(len(mats[0]))
    while True:
        images = [[{r: s for r, row in enumerate(A)
                    if (s := sum(row[k] * x for k, x in b.items()))}
                   for b in rows] for A in mats]
        smaller, pivots = integer_rref(chain.from_iterable(images))
        if len(smaller) == len(rows):
            break
        rows, piv = smaller, pivots
    e = lcm(*(row[p] for row, p in zip(rows, piv)))
    return [[[w.get(p, 0) * (e // row[p]) for w in columns]
             for row, p in zip(rows, piv)] for columns in images]


def _scaled_inverse(S) -> list[list[int]] | None:
    """e S^-1 for an integer e > 0, or None when S is singular: row t of
    the ``integer_rref`` of (S | I) is p_t (e_t | row t of S^-1), and e is
    the lcm of the p_t."""
    n = len(S)
    rows, piv = integer_rref({**{b: x for b, x in enumerate(row) if x},
                              n + a: 1} for a, row in enumerate(S))
    if piv[-1] >= n:
        return None
    e = lcm(*(row[p] for row, p in zip(rows, piv)))
    return [[row.get(n + b, 0) * (e // row[p]) for b in range(n)]
            for row, p in zip(rows, piv)]
