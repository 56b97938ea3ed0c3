"""Orbit dimensions over A_tau: the rank of the moment matrix, at a point
and generically.

For l in g* the m x n moment matrix has entries M(l)[i][j] = l([Y_i, B_j])
with B_j running over the adapted basis.  Its exact rank equals the
dimension of the H-orbit of l.  Every reader takes l = l_x in A_tau by its
chart point x and evaluates the datum's sparse integer pencil
M(x) = M_0 + sum x_r M_r there once, in integers, into the sparse columns
of its m x (n - m) block (the first m columns of M(l_x) are 0): a rational
x is cleared to one denominator q first (``linalg.cleared``), giving a
positive integer multiple of the block, which has the same rank, kernel
and spans.  ``linalg.echelon``, the one fraction-free sparse elimination,
ranks its columns with nothing left to clear.  The readers of one point
that ``verdict`` never calls, the point l_x and the stabilizers, live in
``pointwise``, and ``jacobian`` in ``geometry``; they read the same block
and the same clearing of x.  The generic value of that rank,

    d_tau = max over l in A_tau of dim H.l,

is decided and proven here, by generic_h_orbit_dim alone.  Seeded random
evaluation (exact rank at integer chart points, Schwartz-Zippel
controlled) gives the witness point and proves d_tau >= its rank.  The
upper bound is proven at that same point, from the block and rank the
sample formed, by the first of three proofs
that closes, cheapest first, all exact and in integers.  First the
pencil's image: every column of M(x) is a combination of the nonzero
columns of the M_v, so their span T bounds the rank everywhere, and
dim T = rank A proves it.  Then the shrunk-subspace certificate, the limit
of the second Wong sequence: linear algebra over Q, no polynomials.  Each
of its subspaces U = {u : A u in W} is the integer kernel
(``linalg.integer_kernel``) of sparse residue rows: the columns of A taken
modulo W (``linalg.residue``), all scaled by one integer, one row per
coordinate off the pivots of W.  Where it does not close (the pencil's
non-commutative rank exceeds d_tau, as for generic skew pencils),
fraction-free elimination over the polynomial ring on a basis of the
pencil's span certifies the rank in any dimension within a work limit;
that elimination, its polynomials and the pencil's entries in them
(``poly``) are imported only when it runs.  A proof that contradicts
the sample raises DisagreementError; a sample below the elimination's
rank raises SamplingMissError.  The induced representation behaves
qualitatively differently according to whether d_tau reaches m — whether
H acts freely somewhere on A_tau — which is all the verdict layer reads.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import (DimensionMismatchError, DisagreementError, Record,
                      SamplingMissError)
from .linalg import (WorkLimitError, cleared, echelon, integer_kernel,
                     integer_rref, residue)
from .monomial import MonomialDatum

Vector = tuple[Fraction, ...]

__all__ = [
    "GenericRankResult", "generic_h_orbit_dim", "symbolic_generic_rank",
    "SYMBOLIC_WORK_LIMIT",
]

# Term products the symbolic route may form before it gives up.  The limit
# counts products of polynomial terms, not the growth of their coefficients,
# so the time it allows varies: on the skew pencil of size 9 (n = 54)
# Bareiss ran 6.3 s before it stopped (2-core x86-64 VM, Python 3.11.7).
SYMBOLIC_WORK_LIMIT = 10 ** 6


def _cleared_point(D: MonomialDatum, x) -> tuple[list[int], int]:
    """(q x, q): the chart point x in integers, q the lcm of the
    denominators of its n - m coordinates (each an int or read by
    ``Fraction``)."""
    if len(x) != D.n - D.m:
        raise DimensionMismatchError(
            f"chart point needs {D.n - D.m} coordinates, got {len(x)}")
    return cleared(v if type(v) is int else Fraction(v) for v in x)


def _block_at(D: MonomialDatum, x) -> tuple[list[dict], int]:
    """(columns, q): column r of the m x (n - m) block of
    q * denominator * M(l_x), as {i: nonzero int}, for r = 0..n-m-1, with
    q the lcm of the denominators of x.  The integer pencil is evaluated in
    integers at q x, its constant term taken q times."""
    x, q = _cleared_point(D, x)
    columns: list[dict] = [{} for _ in x]
    for t, coefficient in zip((q, *x), D.pencil):
        if t:
            for column, pairs in zip(columns, coefficient):
                for i, c in pairs:
                    column[i] = column.get(i, 0) + t * c
    return [{i: c for i, c in column.items() if c} for column in columns], q


# (dim U, dim W, Wong steps): subspaces with M(x) U inside W at every x,
# so that rank M(x) <= (n - m) - (dim U - dim W) everywhere
Certificate = tuple[int, int, int]


class GenericRankResult(Record):
    """witness: the chart coordinates of a point attaining d_tau.  proof:
    how rank <= d_tau was proven, the certificate at the witness,
    "bareiss", or None when the elimination hit its work limit."""

    __slots__ = _compared = ("d_tau", "witness", "trials", "seed", "bound",
                             "proof")

    def __init__(self, d_tau: int, witness: Vector, trials: int, seed: int,
                 bound: int, proof: Certificate | str | None):
        self.d_tau = d_tau
        self.witness = witness
        self.trials = trials
        self.seed = seed
        self.bound = bound
        self.proof = proof


def _proof(D: MonomialDatum, a_columns, rank: int) -> Certificate | None:
    """The certificate for A, the m x (n - m) block of
    M(x) = M_0 + sum x_r M_r at a point, given by its sparse columns and
    its rank, that no point gives the pencil a higher rank, or None.

    Rank m needs no work: the pencil's image has at most m dimensions, so
    it is (n - m, m, 0).  Below m, first the pencil's image: every column
    of M(x') is a combination of the nonzero columns of the M_v, so
    rank M(x') <= dim T at every x', T their span, formed by
    ``linalg.echelon`` until it passes rank A.  When dim T is rank A it
    returns (n - m, dim T, 0): U is the whole chart space, W = T, and no
    Wong step runs.  Otherwise the second Wong sequence decides
    (``_wong_certificate``).
    """
    if rank == D.m:
        return D.n - D.m, rank, 0
    image = echelon((dict(pairs) for coefficient in D.pencil
                     for pairs in coefficient if pairs), limit=rank + 1)[0]
    if len(image) == rank:
        return D.n - D.m, rank, 0
    return _wong_certificate(D, a_columns)


def _wong_certificate(D: MonomialDatum, a_columns) -> Certificate | None:
    """The second Wong sequence at A, given by its sparse columns.

    W_0 = 0, U_i = {u : A u in W_i}, W_{i+1} = sum_v M_v U_i over the
    n - m + 1 coefficient matrices rises to a limit W*.  If some W_i
    leaves im A, nothing is proven: None.  Otherwise U = U* has
    M_v U in W* for every v, so at every x' M(x') U lies in W* and
    rank M(x') <= (n - m) - (dim U - dim W*).  A maps U onto W* with kernel
    ker A, so that bound is rank A.  Returns (dim U, dim W*, steps), steps
    counting the W_{i+1} formed.  This is the shrunk-subspace certificate
    of Fortin and Reutenauer (2004), reached as in Ivanyos, Karpinski, Qiao
    and Santha (JCSS 2015); it closes at x exactly when rank A equals the
    pencil's non-commutative rank.  W and im A are held in the reduced
    integer rows of ``linalg.integer_rref``; U is the integer kernel of
    the residues of A's columns modulo W (``linalg.residue``), transposed
    to one sparse row per coordinate, and the residues of W's rows tell
    whether it leaves im A.  Past ``_block_at``, which clears a rational
    x, no ``Fraction`` is formed.
    """
    m, k = D.m, D.n - D.m
    image = integer_rref(a_columns)
    w_rows: list = []
    w_pivots: list[int] = []
    steps = 0
    while True:
        # U = ker of A followed by the quotient map onto Q^m / W: the
        # kernel of the residue rows, one per coordinate i off W's pivots
        residue_rows: list[dict] = [{} for _ in range(m)]
        for j, r in enumerate(residue(a_columns, w_rows, w_pivots)):
            for i, c in r.items():
                residue_rows[i][j] = c
        U = integer_kernel(residue_rows, k)
        products = []
        for u in U:
            for coefficient in D.pencil:
                w: dict = {}
                for j, uj in u.items():
                    for i, c in coefficient[j]:
                        w[i] = w.get(i, 0) + c * uj
                if w:
                    products.append(w)
        rows, pivots = integer_rref(products)
        steps += 1
        if any(residue(rows, *image)):  # W leaves im A
            return None
        if len(rows) == len(w_rows):  # W only grows: it has stopped
            return len(U), len(rows), steps
        w_rows, w_pivots = rows, pivots


def generic_h_orbit_dim(D: MonomialDatum, trials: int = 20,
                        bound: int = 10 ** 6, seed: int = 0) -> GenericRankResult:
    """d_tau, sampled at random integer points and then proven.

    Each trial draws x uniformly from the integer box [-bound, bound]^(n-m),
    evaluates the block of M(l(x)) there once (``_block_at``) and computes
    its rank exactly, a lower bound on d_tau.  At each new best
    rank r it proves the upper bound from that block and rank
    (``_proof``): r = m needs no work, below m the image comes first and
    then the Wong sequence.
    The trials stop at the first proven point, and a certificate for any
    rank but r raises DisagreementError.  Without one, Bareiss elimination
    (``symbolic_generic_rank``) certifies d_tau: a rank below the sampled
    one raises DisagreementError, one above it SamplingMissError, and past
    its work limit the sample decides unproven (proof None).  Any single
    k x k minor that is not identically zero on A_tau misses its zero set
    with probability at least 1 - k/(2*bound + 1), so the maximum over all
    trials is d_tau except with vanishing probability.  Deterministic given
    the seed; the witness is the first sampled point attaining the maximum,
    and a proof closes only at a point reaching the generic rank, so
    stopping there changes neither d_tau nor the witness.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    nfree = D.n - D.m
    best = -1
    witness: tuple[int, ...] = ()
    proof = None
    for _ in range(trials):
        x = tuple(rng.randint(-bound, bound) for _ in range(nfree))
        columns = _block_at(D, x)[0]
        r = len(echelon(columns)[0])
        if r > best:
            best, witness = r, x
            proof = _proof(D, columns, r)
            if proof is not None:
                break
    if proof is None:
        try:
            certified, proof = symbolic_generic_rank(D), "bareiss"
        except WorkLimitError:
            certified = best
        if certified > best:
            raise SamplingMissError(
                f"the sampled rank {best} is below the certified generic "
                f"rank {certified}: trials {trials} and bound {bound} are "
                f"too small for this problem; raise either")
    else:
        dim_u, dim_w, _steps = proof
        certified = nfree - (dim_u - dim_w)
    if certified != best:
        raise DisagreementError(best, certified)
    return GenericRankResult(d_tau=best,
                             witness=tuple(Fraction(v) for v in witness),
                             trials=trials, seed=seed, bound=bound,
                             proof=proof)


def symbolic_generic_rank(D: MonomialDatum) -> int:
    """Certified d_tau: Bareiss elimination of the span pencil over Q[y].

    It gives the rank over Q(y), i.e. at generic x.  It names no point:
    the sampled route's witness is the point, and where that route found no
    certificate ``generic_h_orbit_dim`` runs this to certify it.
    Generic rank has no known deterministic polynomial-time method and the
    minors formed can have exponentially many terms, so past
    SYMBOLIC_WORK_LIMIT term products the elimination raises
    WorkLimitError.
    """
    from .poly import bareiss, symbolic_moment_entries
    return bareiss(symbolic_moment_entries(D), limit=SYMBOLIC_WORK_LIMIT)[0]
