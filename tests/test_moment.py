import functools
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import orbitadm as oa
from orbitadm import moment, poly
from orbitadm.poly import Poly, bareiss

from conftest import (CORPUS_NAMES, ORACLES, load_bench_families, load_datum,
                      make_abelian, moment_reference, random_invertible,
                      random_vector, transform_algebra)
from exact import dense_rows, dot, invert, mat_vec, rank


_families = load_bench_families()
FIXTURES = Path(__file__).parent / "fixtures"
# the cases of the benchmark's families-large workload, n = 9..21
FAMILIES_LARGE = (
    [_families.heisenberg(k, sub) for k in range(4, 11)
     for sub in ("lagrangian", "centre")]
    + [_families.borel(N, sub) for N in (4, 5, 6)
       for sub in ("cartan", "nilradical")]
    + [_families.diagonal(k, m) for k in range(8, 21) for m in (1, k)])


# Some of them again in a random basis of g and of h.  The chart
# coordinates then mix, so pencil entries become dense linear forms; on
# h_{2k+1} with a Lagrangian h the pencil is one matrix times such a form.
CHANGED_BASIS = (
    [_families.heisenberg(k, "lagrangian") for k in (4, 7, 10)]
    + [_families.borel(4, "cartan"), _families.borel(5, "cartan"),
       _families.borel(5, "nilradical")]
    + [_families.diagonal(8, m) for m in (1, 8)])


def sampled_oracle(D, trials=20, bound=10 ** 6, seed=0):
    """(d_tau, witness) of the sampled route as it was before it proved its
    rank: the first point of the best rank over all trials, stopping early
    only at rank m."""
    rng = random.Random(seed)
    best, witness = -1, ()
    for _ in range(trials):
        x = tuple(rng.randint(-bound, bound) for _ in range(D.n - D.m))
        r = moment.rank_at(D, x)
        if r > best:
            best, witness = r, x
            if best == D.m:
                break
    return best, tuple(map(Fraction, witness))


def assert_certified(D, d_tau, seed=0):
    """The sampled route proves d_tau, at the oracle's witness."""
    res = oa.generic_h_orbit_dim(D, seed=seed)
    assert isinstance(res.proof, tuple)  # a certificate, not Bareiss
    dim_u, dim_w, _steps = res.proof
    assert dim_u - dim_w == D.n - D.m - d_tau
    assert (res.d_tau, res.witness) == sampled_oracle(D, seed=seed)


@functools.cache
def _in_random_basis(problem) -> oa.MonomialDatum:
    pf = oa.parse(problem.text)
    rng = random.Random(problem.name)
    Q = random_invertible(rng, problem.n)
    Qinv = invert(Q)
    rows = [[dot(r, col) for col in zip(*Qinv)]
            for r in dense_rows(pf.generator_terms, problem.n)]
    A = random_invertible(rng, problem.m)
    rows = [[dot(a, col) for col in zip(*rows)] for a in A]
    f = [dot(a, pf.functional_vals) for a in A]
    return oa.build_datum(transform_algebra(pf.algebra, Q), rows, f)


class TestMomentMatrix:
    def test_h3_yz_rows(self, h3):
        D = oa.build_datum(h3, [h3.vector(Y=1), h3.vector(Z=1)], [0, 1])
        M = oa.moment_matrix(D, (Fraction(7),))  # l = (7, 0, 1)
        # adapted column order (Y, Z, X); l[Y,X] = l(-Z) = -1
        assert M == ((0, 0, -1), (0, 0, 0))

    def test_axb_row(self, axb):
        D = oa.build_datum(axb, [axb.vector(X=1)], [1])
        M = oa.moment_matrix(D, (0,))
        # adapted order (X, A); l[X,A] = -l(X) = -1
        assert M == ((0, -1),)

    def test_rational_entry_stored_exactly(self, axb):
        # l[X, A] = -f(X) = -1/2 at every x: M_0 holds it as the int -1
        # over the datum's denominator 2, M_1 is empty, and the first (Y)
        # column of M is not stored
        D = oa.build_datum(axb, [axb.vector(X=1)], [Fraction(1, 2)])
        assert D.pencil == ((((0, -1),),), ((),))
        assert type(D.pencil[0][0][0][1]) is int and D.denominator == 2
        assert oa.moment_matrix(D, (5,)) == ((0, Fraction(-1, 2)),)
        assert oa.moment_matrix(D, (Fraction(5, 3),)) \
            == ((0, Fraction(-1, 2)),)

    def test_affine_in_x(self, corpus_data):
        # l_x is affine in x, hence so is M(l_x)
        rng = random.Random(17)
        for D in corpus_data.values():
            for _ in range(20):
                x1, x2 = (random_vector(rng, D.n - D.m) for _ in range(2))
                s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                combo = tuple(s * a + (1 - s) * b for a, b in zip(x1, x2))
                M1, M2 = oa.moment_matrix(D, x1), oa.moment_matrix(D, x2)
                assert oa.moment_matrix(D, combo) == tuple(
                    tuple(s * a + (1 - s) * b for a, b in zip(r1, r2))
                    for r1, r2 in zip(M1, M2))

    def test_zero_character_is_linear(self, h3):
        # f = 0 puts l = 0 on A_tau: M(0) = 0 and M(s x) = s M(x)
        D = oa.build_datum(h3, [h3.vector(X=1)], [0])
        assert oa.moment_matrix(D, (0, 0)) == ((0, 0, 0),)
        rng = random.Random(5)
        for _ in range(20):
            x = random_vector(rng, 2)
            s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert oa.moment_matrix(D, tuple(s * v for v in x)) == tuple(
                tuple(s * v for v in row) for row in oa.moment_matrix(D, x))
        assert oa.moment_matrix(D, (1, 1)) != ((0, 0, 0),)

    def test_wrong_arity(self, h3):
        # every reader takes chart coordinates, never a functional
        D = oa.build_datum(h3, [h3.vector(X=1)], [0])
        for reader in (oa.moment_matrix, oa.rank_at, oa.stabilizer_report):
            with pytest.raises(oa.DimensionMismatchError):
                reader(D, (0, 0, 1))


def _assert_pencil_matches_definition(D, rng, points):
    for _ in range(points):
        x = random_vector(rng, D.n - D.m)
        reference = moment_reference(D, oa.point_on_variety(D, x))
        assert oa.moment_matrix(D, x) == reference
        expected = rank(reference)
        assert (oa.rank_at(D, x) == oa.stabilizer_report(D, x).rank_M
                == expected)


class TestPencilAgainstDefinition:
    """Every reader of the pencil agrees with l_x([Y_i, B_j]) taken from
    the definition: the moment matrix entry by entry, and rank_at and the
    stabilizer report's rank with textbook elimination (``exact.rank``)."""

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus(self, name, corpus_data):
        _assert_pencil_matches_definition(corpus_data[name],
                                          random.Random(name), 20)

    @pytest.mark.parametrize("problem", FAMILIES_LARGE,
                             ids=[p.name for p in FAMILIES_LARGE])
    def test_families_large(self, problem):
        pf = oa.parse(problem.text)
        D = oa.build_datum(pf.algebra, pf.generator_terms,
                           pf.functional_vals)
        _assert_pencil_matches_definition(D, random.Random(problem.name), 3)

    @pytest.mark.parametrize("problem", CHANGED_BASIS,
                             ids=[p.name for p in CHANGED_BASIS])
    def test_in_a_random_basis(self, problem):
        D = _in_random_basis(problem)
        _assert_pencil_matches_definition(D, random.Random(problem.name), 3)


class TestStabilizerReport:
    def test_h3_center_point(self, h3):
        D = oa.build_datum(h3, [h3.vector(Y=1), h3.vector(Z=1)], [0, 1])
        sr = oa.stabilizer_report(D, (0,))  # l = (0, 0, 1)
        assert sr.rank_M == 1
        assert sr.h_stab_basis == (h3.vector(Z=1),)
        assert sr.dim_G_orbit == 2
        assert sr.g_stab_basis == (h3.vector(Z=1),)

    def test_abelian_everything_fixed(self):
        L = make_abelian(3)
        D = oa.build_datum(L, [L.vector(E1=1), L.vector(E2=1)], [1, 1])
        sr = oa.stabilizer_report(D, (3,))  # l = (1, 1, 3)
        assert sr.rank_M == 0
        assert sr.dim_G_orbit == 0
        assert len(sr.h_stab_basis) == 2

    def test_axb_free_point(self, axb):
        D = oa.build_datum(axb, [axb.vector(X=1)], [1])
        sr = oa.stabilizer_report(D, (0,))
        assert sr.point == axb.vector(X=1)
        basis = (axb.vector(A=1), axb.vector(X=1))
        B = [[dot(sr.point, oa.bracket(axb, u, v)) for v in basis]
             for u in basis]
        assert B == [[0, 1], [-1, 0]]  # the skew form B(l), of rank 2
        assert sr.rank_M == 1
        assert sr.h_stab_basis == ()
        assert sr.dim_G_orbit == 2
        assert sr.g_stab_basis == ()

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_h_stabilizer_inside_g_stabilizer(self, name, corpus_data):
        D = corpus_data[name]
        rng = random.Random(len(name) * 101)
        for _ in range(25):
            sr = oa.stabilizer_report(D, random_vector(rng, D.n - D.m))
            g_rows = [list(v) for v in sr.g_stab_basis]
            for v in sr.h_stab_basis:
                stacked = g_rows + [list(v)]
                assert rank(stacked) == len(g_rows)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_g_orbit_dimension_even(self, name, corpus_data):
        D = corpus_data[name]
        rng = random.Random(len(name) * 77 + 5)
        for _ in range(120):
            sr = oa.stabilizer_report(D, random_vector(rng, D.n - D.m))
            assert sr.dim_G_orbit % 2 == 0
            assert sr.rank_M + len(sr.h_stab_basis) == D.m
            assert sr.dim_G_orbit + len(sr.g_stab_basis) == D.n


class TestGenericRank:
    def test_h3_x_trivial_f_free(self, h3):
        D = oa.build_datum(h3, [h3.vector(X=1)], [0])
        res = oa.generic_h_orbit_dim(D, trials=20, bound=100, seed=3)
        assert res.d_tau == D.m == 1
        # witness reproduces the rank
        assert moment.rank_at(D, res.witness) == 1

    def test_h3_yz_stuck_below_m(self, h3):
        D = oa.build_datum(h3, [h3.vector(Y=1), h3.vector(Z=1)], [0, 1])
        res = oa.generic_h_orbit_dim(D, trials=20, bound=100, seed=3)
        assert res.d_tau == 1 < D.m

    def test_trivial_subalgebra(self, h3):
        D = oa.build_datum(h3, [], [])
        res = oa.generic_h_orbit_dim(D, trials=5, bound=10, seed=0)
        assert res.d_tau == D.m == 0

    def test_deterministic_given_seed(self, h3):
        D = oa.build_datum(h3, [h3.vector(X=1)], [0])
        a = oa.generic_h_orbit_dim(D, trials=10, bound=1000, seed=42)
        b = oa.generic_h_orbit_dim(D, trials=10, bound=1000, seed=42)
        assert a == b

    def test_rank_at_reads_points_exactly(self, h3):
        D = oa.build_datum(h3, [h3.vector(X=1)], [0])
        for x in [("1/2", "3"), (0.5, 0), ("0", "-7/3"), (0, 0)]:
            l = oa.point_on_variety(D, [Fraction(v) for v in x])
            assert moment.rank_at(D, x) == rank(moment_reference(D, l))
        assert {moment.rank_at(D, x) for x in [("1/3", 0), (0, "1/3")]} \
            == {0, 1}

    def test_trials_must_be_positive(self, h3):
        D = oa.build_datum(h3, [], [])
        with pytest.raises(ValueError):
            oa.generic_h_orbit_dim(D, trials=0)


class TestSymbolicRank:
    def test_axb_constant_entry(self, axb):
        D = oa.build_datum(axb, [axb.vector(X=1)], [1])
        entries = poly.symbolic_moment_entries(D)
        # M(x) = (0, -1) at every x: its span is one matrix, one variable;
        # the entries are those of the block, here the one entry -1
        assert [[str(p) for p in row] for row in entries] == [["1*x1"]]
        assert oa.symbolic_generic_rank(D) == 1

    def test_h3_yz_largest_minor_is_one(self, h3):
        D = oa.build_datum(h3, [h3.vector(Y=1), h3.vector(Z=1)], [0, 1])
        entries = poly.symbolic_moment_entries(D)
        # row Z of the symbolic matrix vanishes identically
        assert not any(entries[1])
        assert oa.symbolic_generic_rank(D) == 1

    def test_abelian_rank_zero(self):
        L = make_abelian(3)
        D = oa.build_datum(L, [L.vector(E1=1)], [1])
        assert oa.symbolic_generic_rank(D) == 0

    def test_no_dimension_threshold(self):
        L = make_abelian(9)
        assert oa.symbolic_generic_rank(oa.build_datum(L, [], [])) == 0
        D = oa.build_datum(L, [L.vector(E1=1)], [1])
        assert oa.symbolic_generic_rank(D) == 0

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_witness_attains_d_tau(self, name, corpus_problems):
        # the report's one witness is the sampled one; the symbolic rank
        # certifies it
        pf = corpus_problems[name]
        rep = oa.full_report(pf.algebra, pf.generator_terms,
                             pf.functional_vals)
        assert moment.rank_at(rep.datum, rep.generic.witness) \
            == rep.generic.d_tau == ORACLES[name][0]
        assert moment.symbolic_generic_rank(rep.datum) == rep.generic.d_tau


def _hand_pencil(block):
    """A stand-in datum whose m x k block is ``block``, its entries
    (c_0, c_1, ..., c_k) meaning c_0 + sum c_v x_v, stored as the datum
    stores it: pencil[v][r] holds the nonzero (i, c_v) of column r."""
    m, k = len(block), len(block[0])
    return SimpleNamespace(n=m + k, m=m, pencil=tuple(
        tuple(tuple((i, row[r][v]) for i, row in enumerate(block)
                    if row[r][v]) for r in range(k))
        for v in range(k + 1)))


def _no_wong_stage(monkeypatch):
    def unreachable(D, a_columns):
        raise AssertionError("the Wong stage ran although the image closed")
    monkeypatch.setattr(moment, "_wong_certificate", unreachable)


def _count_wong_stage(monkeypatch) -> list:
    """The calls of the Wong stage, which still runs, as they come."""
    ran = []
    wong = moment._wong_certificate
    monkeypatch.setattr(moment, "_wong_certificate",
                        lambda *args: ran.append(args) or wong(*args))
    return ran


class TestRankCertificate:
    def test_generic_skew_pencil_falls_back(self):
        # [[0, x1, x2], [-x1, 0, x3], [-x2, -x3, 0]]: rank 2 at every point,
        # non-commutative rank 3, so the Wong sequence leaves im A
        x1, x2, x3, o = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0,) * 4
        neg = lambda e: tuple(-c for c in e)  # noqa: E731
        D = _hand_pencil([[o, x1, x2], [neg(x1), o, x3],
                          [neg(x2), neg(x3), o]])
        assert moment.rank_at(D, (1, 2, 3)) == 2
        assert moment.rank_certificate(D, (1, 2, 3)) is None

    def test_rank_one_pencil_closes_with_gap_two(self):
        # [[x1, x2, x3], [2 x1, 2 x2, 2 x3]]: rank 1, kernel of dimension 2,
        # and every column is a multiple of (1, 2), so dim T = 1 proves it
        D = _hand_pencil([[(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                          [(0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]])
        assert moment.rank_at(D, (1, 2, 3)) == 1
        dim_u, dim_w, steps = moment.rank_certificate(D, (1, 2, 3))
        assert (dim_u, dim_w, dim_u - dim_w) == (3, 1, 2)
        assert steps == 0
        # the Wong sequence proves the same bound in two steps
        columns = moment._block_at(D, (1, 2, 3))[0]
        assert moment._wong_certificate(D, columns) == (3, 1, 2)
        # at a point below the generic rank no certificate can close
        assert moment.rank_at(D, (0, 0, 0)) == 0
        assert moment.rank_certificate(D, (0, 0, 0)) is None

    def test_pencil_wider_than_its_rank_closes_with_wong(self, monkeypatch):
        # [[x1, x2, x3], [2 x1, 2 x2, 0], [0, 0, x1]]: the first two columns
        # are multiples of (1, 2, 0), so the rank is 2, but the columns of
        # the M_v span all of Q^3; U = span{e_0, e_1} maps into
        # W = span{(1, 2, 0)}, reached in two steps
        o = (0, 0, 0, 0)
        D = _hand_pencil([[(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                          [(0, 2, 0, 0), (0, 0, 2, 0), o],
                          [o, o, (0, 1, 0, 0)]])
        ran = _count_wong_stage(monkeypatch)
        assert moment.rank_at(D, (1, 2, 3)) == 2
        dim_u, dim_w, steps = moment.rank_certificate(D, (1, 2, 3))
        assert (dim_u, dim_w, dim_u - dim_w) == (2, 1, 1)
        assert steps == 2 and len(ran) == 1


# every bench family case whose sampled rank needs a proof, d_tau < m
SINGULAR_FAMILIES = [p for p in (
    [_families.heisenberg(k, sub) for k in range(1, 11)
     for sub in ("lagrangian", "centre")]
    + [_families.borel(N, sub) for N in range(2, 7)
       for sub in ("cartan", "nilradical")]
    + [_families.diagonal(k, m) for k in range(1, 21) for m in (1, k)])
    if p.answer.d_tau < p.m]
B3_WONG = FIXTURES / "b3_wong.alg"


class TestImageStage:
    """dim T, T the span of the columns of the M_v, does not depend on the
    basis of g or of h, so where it equals d_tau it closes in every basis,
    before any Wong step."""

    @pytest.mark.parametrize("problem", SINGULAR_FAMILIES,
                             ids=[p.name for p in SINGULAR_FAMILIES])
    @pytest.mark.parametrize("changed", [False, True],
                             ids=["canonical", "random_basis"])
    def test_closes_on_every_singular_family_case(self, problem, changed,
                                                  monkeypatch):
        if changed:
            D = _in_random_basis(problem)
        else:
            pf = oa.parse(problem.text)
            D = oa.build_datum(pf.algebra, pf.generator_terms,
                               pf.functional_vals)
        _no_wong_stage(monkeypatch)
        res = oa.generic_h_orbit_dim(D)
        assert res.d_tau == problem.answer.d_tau
        assert res.proof == (D.n - D.m, res.d_tau, 0)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_closes_on_every_corpus_file(self, name, corpus_problems,
                                         monkeypatch):
        pf = corpus_problems[name]
        D = load_datum(name)
        rng = random.Random(f"{name}-image")
        Q = random_invertible(rng, pf.algebra.dim)
        Qinv = invert(Q)
        rows = [[dot(r, col) for col in zip(*Qinv)]
                for r in dense_rows(pf.generator_terms, pf.algebra.dim)]
        D2 = oa.build_datum(transform_algebra(pf.algebra, Q), rows,
                            pf.functional_vals)
        _no_wong_stage(monkeypatch)
        for datum in (D, D2):
            res = oa.generic_h_orbit_dim(datum)
            assert res.d_tau == ORACLES[name][0]
            assert res.proof == (datum.n - datum.m, res.d_tau, 0)

    def test_b3_wong_needs_the_wong_stage(self, monkeypatch):
        # the columns of the M_v span a plane, the rank is 1
        pf = oa.parse(B3_WONG.read_text())
        D = oa.build_datum(pf.algebra, pf.generator_terms,
                           pf.functional_vals)
        ran = _count_wong_stage(monkeypatch)
        res = oa.generic_h_orbit_dim(D)
        assert (res.d_tau, res.proof) == (1, (3, 0, 1))
        assert len(ran) == 1
        assert moment.symbolic_generic_rank(D) == 1


def _var(nvars, i):
    return Poly.affine(0, [int(k == i) for k in range(nvars)])


def _const(nvars, value):
    return Poly.affine(value, [0] * nvars)


class TestPolyDivision:
    def test_exact_quotient(self):
        x, one = _var(1, 0), _const(1, 1)
        assert (x * x - one) // (x - one) == x + one

    def test_multivariate_quotient(self):
        x, y = _var(2, 0), _var(2, 1)
        a = x + _const(2, 3) * y
        b = x * y - _const(2, 2)
        assert (a * b) // b == a
        assert (a * b) // a == b

    def test_rational_quotient(self):
        x, y = _var(2, 0), _var(2, 1)
        a = _const(2, 2) * x - _const(2, 3) * y
        assert (a * x) // (_const(2, 4) * x) == _const(2, Fraction(1, 4)) * a

    def test_inexact_quotient_raises(self):
        x, one = _var(1, 0), _const(1, 1)
        with pytest.raises(ValueError):
            (x * x + one) // (x - one)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            _var(1, 0) // _const(1, 0)


class TestPolyDeterminant:
    """Bareiss elimination over Poly: its last pivot is +-det when full rank."""

    def test_work_limit(self):
        x, y, one = _var(2, 0), _var(2, 1), _const(2, 1)
        mat = [[x + y, one, x], [one, y, one], [x, one, y + one]]
        # the first step alone counts 11 term products
        with pytest.raises(oa.WorkLimitError):
            bareiss([row[:] for row in mat], limit=5)
        assert bareiss([row[:] for row in mat], limit=10 ** 3)[0] == 3

    def test_two_by_two(self):
        x, one = _var(1, 0), _const(1, 1)
        rank, det = bareiss([[x, one], [one, x]])
        assert rank == 2
        assert det == x * x - one

    def test_matches_numeric_determinant(self):
        rng = random.Random(2024)
        for trial in range(120):
            k = rng.randint(1, 5)
            mat = [[random_vector(rng, 1)[0] for _ in range(k)]
                   for _ in range(k)]
            if trial % 3 == 0 and k > 1:  # force a singular matrix
                mat[-1] = [2 * a - b for a, b in zip(mat[0], mat[1])]
            polymat = [[_const(0, v) for v in row] for row in mat]
            got, pivot = bareiss(polymat)
            assert got == rank(mat)
            # cofactor expansion oracle
            def cof(m):
                if len(m) == 1:
                    return m[0][0]
                total = Fraction(0)
                for j in range(len(m)):
                    minor = [row[:j] + row[j + 1:] for row in m[1:]]
                    term = m[0][j] * cof(minor)
                    total += term if j % 2 == 0 else -term
                return total
            if got == k:
                assert pivot.terms == (((), pivot.terms[0][1]),)
                assert abs(pivot.terms[0][1]) == abs(cof(mat))
            else:
                assert cof(mat) == 0


class TestRouteAgreement:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_probabilistic_equals_symbolic_many_seeds(self, name,
                                                      corpus_data):
        D = corpus_data[name]
        sym = oa.symbolic_generic_rank(D)
        for seed in range(100):
            prob = oa.generic_h_orbit_dim(D, trials=20, bound=10 ** 6,
                                          seed=seed)
            assert prob.d_tau == sym
            assert_certified(D, sym, seed=seed)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_sampled_rank_never_exceeds_d_tau(self, name, corpus_data):
        D = corpus_data[name]
        d = oa.symbolic_generic_rank(D)
        rng = random.Random(4000 + len(name))
        hits = 0
        total = 1000
        for _ in range(total):
            x = tuple(Fraction(rng.randint(-10 ** 6, 10 ** 6))
                      for _ in range(D.n - D.m))
            r = moment.rank_at(D, x)
            assert r <= d
            if r == d:
                hits += 1
        # Zariski-openness: the generic stratum carries almost all samples
        assert hits >= 0.95 * total


class TestRouteAgreementLarge:
    @pytest.mark.parametrize("problem", FAMILIES_LARGE,
                             ids=[p.name for p in FAMILIES_LARGE])
    def test_routes_match_hand_derived_rank(self, problem):
        pf = oa.parse(problem.text)
        D = oa.build_datum(pf.algebra, pf.generator_terms,
                           pf.functional_vals)
        assert (D.n, D.m) == (problem.n, problem.m)
        sym = oa.symbolic_generic_rank(D)
        prob = oa.generic_h_orbit_dim(D)
        assert sym == prob.d_tau == problem.answer.d_tau
        assert_certified(D, sym)

    @pytest.mark.parametrize("problem", CHANGED_BASIS,
                             ids=[p.name for p in CHANGED_BASIS])
    def test_routes_match_in_a_random_basis(self, problem):
        D = _in_random_basis(problem)
        sym = oa.symbolic_generic_rank(D)
        prob = oa.generic_h_orbit_dim(D)
        assert sym == prob.d_tau == problem.answer.d_tau
        assert_certified(D, sym)

    def test_work_limit_stops_a_dense_elimination(self):
        # [Y_i, X_j] = Z_ij, h = span{Y_i}, f = 0: M(l) is the generic 7 x 7
        # matrix (l(Z_ij)), whose minors have up to 7! terms
        k = 7
        ys = [f"Y{i}" for i in range(k)]
        xs = [f"X{j}" for j in range(k)]
        zs = [[f"Z{i}_{j}" for j in range(k)] for i in range(k)]
        L = oa.from_brackets(
            "generic7", ys + xs + [z for row in zs for z in row],
            {(ys[i], xs[j]): {zs[i][j]: 1}
             for i in range(k) for j in range(k)})
        D = oa.build_datum(L, [L.vector(**{y: 1}) for y in ys], [0] * k)
        with pytest.raises(oa.WorkLimitError):
            oa.symbolic_generic_rank(D)
        assert oa.generic_h_orbit_dim(D).d_tau == k


class TestBasisInvariance:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_rank_stable_under_ambient_change(self, name, corpus_problems):
        pf = corpus_problems[name]
        L = pf.algebra
        D0 = load_datum(name)
        rng = random.Random(len(name) * 13 + 1)
        for _ in range(10):
            Q = random_invertible(rng, L.dim)
            Qinv = invert(Q)
            L2 = transform_algebra(L, Q)
            assert not oa.validate(L2)
            # rows in the new coordinates: r' = r . Q^{-1}
            rows2 = [tuple(dot(r, col) for col in zip(*Qinv))
                     for r in dense_rows(pf.generator_terms, L.dim)]
            D2 = oa.build_datum(L2, rows2, pf.functional_vals)
            assert_certified(D2, ORACLES[name][0])
            for _ in range(20):
                x = random_vector(rng, D0.n - D0.m, num_bound=30)
                l = oa.point_on_variety(D0, x)
                # same functional in new coordinates: l'_i = l(Q_i)
                l2 = tuple(dot(l, Q[i]) for i in range(L.dim))
                x2 = mat_vec(D2.adapted_rows, l2)[D2.m:]
                assert oa.rank_at(D0, x) == oa.rank_at(D2, x2)

    @pytest.mark.parametrize("name",
                             [n for n in CORPUS_NAMES if ORACLES[n][1] > 0])
    def test_rank_stable_under_generator_change(self, name, corpus_problems):
        pf = corpus_problems[name]
        L = pf.algebra
        m = pf.m
        rows = dense_rows(pf.generator_terms, L.dim)
        rng = random.Random(len(name) * 29 + 3)
        D0 = load_datum(name)
        for _ in range(10):
            A = random_invertible(rng, m)
            rows2 = [tuple(sum(A[i][k] * rows[k][c]
                               for k in range(m)) for c in range(L.dim))
                     for i in range(m)]
            f2 = [sum(A[i][k] * pf.functional_vals[k] for k in range(m))
                  for i in range(m)]
            D2 = oa.build_datum(L, rows2, f2)
            for _ in range(20):
                x = random_vector(rng, D0.n - D0.m, num_bound=30)
                l = oa.point_on_variety(D0, x)
                x2 = mat_vec(D2.adapted_rows, l)[D2.m:]
                assert oa.rank_at(D0, x) == oa.rank_at(D2, x2)
