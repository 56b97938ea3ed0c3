"""Univariate integer polynomials, just enough to locate roots, and the
checks of the exponentiality decision that need them.

A polynomial is a list of ints, constant term first, with no trailing zero
(the zero polynomial is ``[]``).  Callers ask only where the roots are, so
a result may be given up to a positive factor: remainders are divided by
their content, which keeps the integers small without changing any sign
that a Sturm count reads.  ``charpoly`` uses ring operations alone.

``algebra`` imports this module on first use, once it builds the flag of
C^inf (in the corpus, only for ``grelaud``): ``quotient_failure`` runs
checks (i) and (ii) on each quotient action.  The Fitting-one restriction
and S^-1 of those checks are read off ``linalg.integer_rref`` rows as
integer matrices, each a positive multiple of the rational one, which
moves no eigenvalue off or onto the real or imaginary axis.
"""

from __future__ import annotations

from itertools import chain
from math import gcd as int_gcd
from math import lcm

from .linalg import coordinates, integer_rref, matmul


def primitive(p) -> list[int]:
    """p over the gcd of its integer coefficients, trailing zeros dropped."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    g = 0
    for c in p:
        g = int_gcd(g, c)
    return [c // g for c in p] if g > 1 else p


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


def charpoly(mat) -> list:
    """det(x I - mat), monic, by ring operations alone (Berkowitz 1984):
    an integer mat gives integer coefficients.

    With p the characteristic polynomial of the leading k x k block M, r
    and c the rest of row and column k of mat and a = mat[k][k], that of
    the leading block one larger is p, highest term first, times the
    lower triangular Toeplitz matrix with first column 1, -a, -r c,
    -r M c, ..., -r M^(k-1) c.
    """
    p = [1]
    for k, row in enumerate(mat):
        toeplitz, v = [1, -row[k]], [mat[i][k] for i in range(k)]
        for _ in range(k):
            toeplitz.append(-sum(x * y for x, y in zip(row, v)))
            v = [sum(x * y for x, y in zip(mat[i], v)) for i in range(k)]
        p = [sum(toeplitz[s] * p[d - s] for s in range(max(0, d - k), d + 1))
             for d in range(k + 2)]
    return p[::-1]


def real_spectrum(M) -> bool:
    """Whether every eigenvalue of M is real: a Sturm count of the roots of
    the characteristic polynomial p against deg p - deg gcd(p, p'), the
    number of distinct ones."""
    p = charpoly(M)
    distinct = len(p) - len(gcd(p, derivative(p)))
    return real_root_count(p) == distinct


def quotient_failure(mats):
    """Which check fails for the commuting integer actions ``mats`` on one
    quotient of the flag of C^inf.

    None when no real combination has a nonzero purely imaginary
    eigenvalue; else ("i", c, None) with the integer witness sum c_i A_i,
    or ("ii", c, i) with the index of an E_i that has a non-real
    eigenvalue.

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
    if not n:  # every A_i is nilpotent: there is no nonzero character
        return None
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
        if not real_spectrum(matmul(A, inverse)):
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
    images just formed are those of W's rows, whose coordinates
    ``linalg.coordinates`` reads.
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
    return [coordinates(columns, rows, piv) for columns in images]


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
