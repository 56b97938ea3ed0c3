import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitadm as oa
from orbitadm import algebra

from conftest import (CORPUS_NAMES, algebra_from_table, dense_table,
                      load_problem, make_abelian, make_axb, make_h3,
                      make_motion, make_sl2, problem_text_of,
                      random_invertible, random_vector, transform_algebra)
from exact import dot, invert
from test_moment import CHANGED_BASIS, _in_random_basis

FIXTURES = Path(__file__).parent / "fixtures"


def ad_trace(L, u) -> Fraction:
    """tr ad(u), read off the diagonal of ``ad_matrix``."""
    mat = oa.ad_matrix(L, u)
    return sum((mat[k][k] for k in range(L.dim)), Fraction(0))


def table_trace(L, u) -> Fraction:
    """tr ad(u) from the per-basis traces that unimodularity reads."""
    return sum((x * t for x, t in zip(u, algebra._ad_scan(L)[0])),
               Fraction(0)) / L.scale

ALL_CORPUS_ALGEBRAS = [make_h3(), make_axb(), make_abelian(3), make_motion(),
                       make_sl2()]


def inject_constant(L, i, j, k, value):
    """Return a copy of L with c[i][j][k] overwritten (j,i left alone)."""
    table = [[list(row) for row in plane] for plane in dense_table(L)]
    table[i][j][k] = Fraction(value)
    return algebra_from_table(L.name, L.basis_names, table)


class TestValidate:
    def test_h3_clean(self, h3):
        assert oa.validate(h3) == []

    def test_injected_bracket_breaks_jacobi(self, h3):
        # add [X,Z] = X (and its antisymmetric mirror).  By hand:
        # [[X,Y],Z] = [Z,Z] = 0;  [[Y,Z],X] = 0;  [[Z,X],Y] = [-X,Y] = -Z,
        # so the cyclic sum at (X,Y,Z) is -Z.
        bent = inject_constant(h3, 0, 2, 0, 1)
        bent = inject_constant(bent, 2, 0, 0, -1)
        violations = oa.validate(bent)
        assert violations, "expected a Jacobi violation"
        jac = [v for v in violations if v.kind == "jacobi"]
        assert len(jac) == 1
        assert jac[0].indices == (0, 1, 2)
        assert jac[0].residual == (Fraction(0), Fraction(0), Fraction(-1))

    def test_diagonal_constant_breaks_antisymmetry(self, h3):
        bent = inject_constant(h3, 1, 1, 2, 1)
        violations = oa.validate(bent)
        anti = [v for v in violations if v.kind == "antisymmetry"]
        assert anti and anti[0].indices == (1, 1, 2)

    def test_one_sided_constant_breaks_antisymmetry(self, h3):
        bent = inject_constant(h3, 0, 2, 1, 1)  # [X,Z] gains Y, [Z,X] doesn't
        kinds = {v.kind for v in oa.validate(bent)}
        assert "antisymmetry" in kinds

    def test_describe_names_the_basis(self, h3):
        bent = inject_constant(h3, 0, 2, 0, 1)
        bent = inject_constant(bent, 2, 0, 0, -1)
        text = oa.validate(bent)[0].describe(h3.basis_names)
        assert "(X,Y,Z)" in text


class TestBracket:
    def test_reads_structure_constant(self, h3):
        assert oa.bracket(h3, h3.vector(X=1), h3.vector(Y=1)) == h3.vector(Z=1)

    def test_bilinear_expansion(self, h3):
        got = oa.bracket(h3, h3.vector(X=1, Y=1), h3.vector(Y=1))
        assert got == h3.vector(Z=1)  # [X+Y, Y] = [X,Y]

    def test_self_bracket_vanishes(self, h3):
        rng = random.Random(5)
        for _ in range(20):
            v = random_vector(rng, 3)
            assert oa.bracket(h3, v, v) == h3.vector()

    def test_dimension_mismatch(self, h3):
        with pytest.raises(oa.DimensionMismatchError):
            oa.bracket(h3, (1, 2), (1, 2, 3))

    @pytest.mark.parametrize("L", ALL_CORPUS_ALGEBRAS,
                             ids=lambda L: L.name)
    def test_antisymmetry_random(self, L):
        rng = random.Random(sum(ord(ch) for ch in L.name))
        for _ in range(100):
            u = random_vector(rng, L.dim)
            v = random_vector(rng, L.dim)
            uv = oa.bracket(L, u, v)
            vu = oa.bracket(L, v, u)
            assert all(a == -b for a, b in zip(uv, vu))

    @pytest.mark.parametrize("L", [make_h3(), make_axb(), make_abelian(3),
                                   make_motion(), make_sl2()],
                             ids=lambda L: L.name)
    def test_jacobi_random(self, L):
        rng = random.Random(len(L.name))
        for _ in range(100):
            u, v, w = (random_vector(rng, L.dim, num_bound=6, den_bound=3)
                       for _ in range(3))
            total = [Fraction(0)] * L.dim
            for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
                piece = oa.bracket(L, oa.bracket(L, a, b), c)
                total = [t + p for t, p in zip(total, piece)]
            assert all(t == 0 for t in total)


def triple_loop_validate(L):
    """``validate`` as it was written first: antisymmetry over the pairs
    i <= j, then the cyclic sum of every triple i < j < k in turn."""
    n = L.dim
    # the constants themselves: (k, c) pairs of [Z_i, Z_j] = sum c Z_k
    nz = [[tuple((k, Fraction(q, L.scale)) for k, q in pairs)
           for pairs in plane] for plane in L.table]
    out = []
    for i in range(n):
        for j in range(i, n):
            sums = {}
            for k, q in nz[i][j] + nz[j][i]:
                sums[k] = sums.get(k, 0) + q
            out.extend(oa.Violation("antisymmetry", (i, j, k), sums[k])
                       for k in sorted(sums) if sums[k] != 0)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for p, coeff in nz[a][b]:
                        for q, r in nz[p][c]:
                            res[q] = res.get(q, 0) + coeff * r
                if any(res.values()):
                    out.append(oa.Violation("jacobi", (i, j, k), tuple(
                        Fraction(res.get(q, 0)) for q in range(n))))
    return out


@st.composite
def sparse_tables(draw):
    """A table on 1..6 basis vectors with a few nonzero constants.  Filled
    by antisymmetry or not; either way most break Jacobi, and tables with
    few constants often satisfy it."""
    n = draw(st.integers(1, 6))
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(
        index, index, index,
        st.fractions(min_value=-3, max_value=3, max_denominator=4)),
        max_size=2 * n))
    mirrored = draw(st.booleans())
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, q in entries:
        c[i][j][k] += q
        if mirrored:
            c[j][i][k] -= q
    return algebra_from_table("random", [f"Z{i}" for i in range(n)], c)


@settings(max_examples=300, deadline=None, database=None)
@given(L=sparse_tables())
def test_validate_matches_the_triple_loop(L):
    assert oa.validate(L) == triple_loop_validate(L)


@pytest.mark.parametrize("make", [make_h3, make_axb, make_motion, make_sl2],
                         ids=lambda make: make.__name__)
def test_validate_matches_the_triple_loop_in_a_random_basis(make):
    # dense tables: valid as they are, then with one constant changed
    L, rng = make(), random.Random(make.__name__)
    L = transform_algebra(L, random_invertible(rng, L.dim))
    assert oa.validate(L) == triple_loop_validate(L) == []
    bent = inject_constant(L, 0, 1, L.dim - 1, rng.randint(1, 9))
    assert oa.validate(bent) == triple_loop_validate(bent) != []


class TestAdMatrix:
    def test_h3_ad_x(self, h3):
        mat = oa.ad_matrix(h3, h3.vector(X=1))
        # single nonzero entry: row Z, column Y
        expect = [[Fraction(0)] * 3 for _ in range(3)]
        expect[2][1] = Fraction(1)
        assert mat == expect

    def test_axb_ad_a(self, axb):
        mat = oa.ad_matrix(axb, axb.vector(A=1))
        assert mat[1][1] == 1
        assert sum(1 for row in mat for x in row if x != 0) == 1

    def test_zero_vector(self, h3):
        mat = oa.ad_matrix(h3, h3.vector())
        assert all(x == 0 for row in mat for x in row)

    def test_linearity(self, h3):
        rng = random.Random(11)
        for _ in range(30):
            u = random_vector(rng, 3)
            v = random_vector(rng, 3)
            alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            combo = tuple(alpha * a + b for a, b in zip(u, v))
            left = oa.ad_matrix(h3, combo)
            au = oa.ad_matrix(h3, u)
            av = oa.ad_matrix(h3, v)
            expected = [[alpha * au[i][j] + av[i][j] for j in range(3)]
                        for i in range(3)]
            assert left == expected


class TestAdTrace:
    ALGEBRAS = ({L.name: L for L in ALL_CORPUS_ALGEBRAS}
                | {name: load_problem(name).algebra for name in CORPUS_NAMES})

    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_matches_the_diagonal_of_ad_matrix(self, name):
        # the table read of tr ad(u) against the matrix it abbreviates, in
        # the given basis and in random ones
        L = self.ALGEBRAS[name]
        rng = random.Random(sum(map(ord, name)))
        bases = [L] + [transform_algebra(L, random_invertible(rng, L.dim))
                       for _ in range(4)]
        for M in bases:
            for _ in range(20):
                u = random_vector(rng, M.dim)
                assert table_trace(M, u) == ad_trace(M, u)

    def test_dimension_mismatch(self, h3):
        with pytest.raises(oa.DimensionMismatchError):
            oa.ad_matrix(h3, (1, 2))


class TestStructureReport:
    def test_h3(self, h3):
        rep = oa.structure_report(h3)
        assert not rep.violations and rep.is_solvable and rep.is_nilpotent
        assert rep.is_unimodular
        assert rep.derived_series_dims == (3, 1, 0)
        assert rep.exponentiality == "Exponential"
        assert rep.exponentiality_reason == "nilpotent"

    def test_axb(self, axb):
        rep = oa.structure_report(axb)
        assert rep.is_solvable and not rep.is_nilpotent
        assert not rep.is_unimodular  # trace ad A = 1
        assert rep.derived_series_dims == (2, 1, 0)
        assert rep.exponentiality == "Exponential"

    def test_abelian(self):
        rep = oa.structure_report(make_abelian(2))
        assert rep.is_solvable and rep.is_nilpotent and rep.is_unimodular
        assert rep.derived_series_dims == (2, 0)

    def test_motion_algebra_is_not_exponential(self):
        rep = oa.structure_report(make_motion())
        assert rep.is_solvable
        assert rep.exponentiality == "NotExponential"
        assert rep.exponentiality_reason.startswith("check (i) fails")
        # ad A rotates the plane: A itself is the rational witness
        assert rep.exponentiality_witness == make_motion().vector(A=1)

    def test_sl2_not_solvable(self):
        rep = oa.structure_report(make_sl2())
        assert not rep.is_solvable
        assert rep.derived_series_dims == (3,)
        assert rep.exponentiality == "NotExponential"

    def test_unimodularity_matches_random_traces(self):
        for L in (make_h3(), make_axb(), make_abelian(3), make_motion()):
            rep = oa.structure_report(L)
            rng = random.Random(31 + L.dim)
            all_zero = True
            for _ in range(100):
                u = random_vector(rng, L.dim)
                if ad_trace(L, u) != 0:
                    all_zero = False
            assert rep.is_unimodular == all_zero

    def test_nilpotent_ad_eigenvalues_vanish(self):
        rng = random.Random(63)
        for L in (make_h3(), make_abelian(3)):
            for _ in range(25):
                u = random_vector(rng, L.dim)
                mat = np.array([[float(x) for x in row]
                                for row in oa.ad_matrix(L, u)])
                assert np.abs(np.linalg.eigvals(mat)).max(initial=0) < 1e-8


def _plain_bracket(c, u, v):
    """[u, v] from constants c[(i, j)] = {k: Fraction}, with no scaling."""
    out = [Fraction(0)] * len(u)
    for (i, j), combo in c.items():
        for k, q in combo.items():
            out[k] += Fraction(u[i]) * Fraction(v[j]) * q
    return tuple(out)


def _plain_cyclic_sum(c, n, i, j, k):
    """[[Z_i, Z_j], Z_k] + [[Z_j, Z_k], Z_i] + [[Z_k, Z_i], Z_j]."""
    e = [tuple(Fraction(int(a == b)) for b in range(n)) for a in range(n)]
    total = [Fraction(0)] * n
    for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
        piece = _plain_bracket(c, _plain_bracket(c, e[a], e[b]), e[d])
        total = [t + p for t, p in zip(total, piece)]
    return tuple(total)


SMALL_CHANGED_BASIS = [p for p in CHANGED_BASIS if p.n <= 10]


class TestRationalTables:
    """Tables whose constants have denominators, so the algebra stores them
    as integers in a scaled basis: every value read back must be the plain
    Fraction value of the constants as given."""

    NAMES = ("X", "Y", "Z")

    def test_antisymmetry_residual_is_scaled_back(self):
        # [X, Y] = 1/2 Z but [Y, X] = -1/3 Z: residual 1/2 - 1/3 = 1/6
        c = {(0, 1): {2: Fraction(1, 2)}, (1, 0): {2: Fraction(-1, 3)}}
        L = algebra.from_constants("anti", self.NAMES, c)
        assert L.scale > 1
        anti = [v for v in oa.validate(L) if v.kind == "antisymmetry"]
        assert anti == [oa.Violation("antisymmetry", (0, 1, 2),
                                     Fraction(1, 2) + Fraction(-1, 3))]
        assert anti[0].describe(self.NAMES) == (
            "antisymmetry fails at (X,Y) component Z: residual 1/6")

    def test_jacobi_residual_is_scaled_back(self):
        # [X, Y] = 1/2 Y, [X, Z] = 2/3 Z, [Y, Z] = 3/5 X, each mirrored
        c = {}
        for (i, j), combo in {(0, 1): {1: Fraction(1, 2)},
                              (0, 2): {2: Fraction(2, 3)},
                              (1, 2): {0: Fraction(3, 5)}}.items():
            c[i, j] = combo
            c[j, i] = {k: -q for k, q in combo.items()}
        L = algebra.from_constants("jac", self.NAMES, c)
        assert L.scale == 30
        want = _plain_cyclic_sum(c, 3, 0, 1, 2)
        assert any(want)
        got = oa.validate(L)
        assert got == [oa.Violation("jacobi", (0, 1, 2), want)]
        res = ", ".join(map(str, want))
        assert got[0].describe(self.NAMES) == (
            f"Jacobi identity fails at (X,Y,Z): residual ({res})")

    def _assert_readers_match(self, L, c, rng):
        n = L.dim
        for _ in range(10):
            u, v = random_vector(rng, n), random_vector(rng, n)
            assert oa.bracket(L, u, v) == _plain_bracket(c, u, v)
            columns = [_plain_bracket(c, u, L.vector(**{name: 1}))
                       for name in L.basis_names]
            assert oa.ad_matrix(L, u) == [list(row) for row in zip(*columns)]
            assert table_trace(L, u) == sum(
                (columns[k][k] for k in range(n)), Fraction(0))

    def test_readers_on_rational_scales(self):
        pf = oa.parse((FIXTURES / "rational_scales.alg").read_text())
        L = pf.algebra
        assert L.scale == 6
        c = {}
        for (a, b), q in {("A", "X"): Fraction(1, 2),
                          ("A", "Y"): Fraction(2, 3),
                          ("A", "Z"): Fraction(7, 6)}.items():
            i, j = L.index_of(a), L.index_of(b)
            c[i, j], c[j, i] = {j: q}, {j: -q}
        x, y, z = L.index_of("X"), L.index_of("Y"), L.index_of("Z")
        c[x, y], c[y, x] = {z: Fraction(5, 6)}, {z: Fraction(-5, 6)}
        self._assert_readers_match(L, c, random.Random(6))
        assert ad_trace(L, L.vector(A=1)) == Fraction(7, 3)
        assert oa.parse(problem_text_of(pf.name, L, pf.generator_terms,
                                        pf.functional_vals, pf.config)) == pf

    @pytest.mark.parametrize("problem", SMALL_CHANGED_BASIS,
                             ids=[p.name for p in SMALL_CHANGED_BASIS])
    def test_readers_on_a_family_in_a_random_basis(self, problem):
        D = _in_random_basis(problem)
        L = D.algebra
        assert L.scale > 1
        # the constants in the basis Q, from the canonical integral table
        canonical = oa.parse(problem.text).algebra
        Q = random_invertible(random.Random(problem.name), problem.n)
        Qinv = invert(Q)
        c = {}
        for i in range(L.dim):
            for j in range(L.dim):
                w = oa.bracket(canonical, Q[i], Q[j])
                combo = {k: dot(w, col) for k, col in enumerate(zip(*Qinv))}
                if any(combo.values()):
                    c[i, j] = {k: q for k, q in combo.items() if q}
        assert dense_table(L) == tuple(
            tuple(tuple(c.get((i, j), {}).get(k, Fraction(0))
                        for k in range(L.dim)) for j in range(L.dim))
            for i in range(L.dim))
        self._assert_readers_match(L, c, random.Random(problem.n))
        pf = oa.ProblemFile(name=L.name, algebra=L,
                            generator_terms=tuple(map(dict,
                                                      D.generator_terms)),
                            functional_vals=D.f_vals)
        assert oa.parse(problem_text_of(L.name, L, D.generators,
                                        D.f_vals)) == pf


class TestFromBrackets:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            oa.from_brackets("bad", ("X", "X"), {})

    def test_rejects_self_bracket(self):
        with pytest.raises(ValueError):
            oa.from_brackets("bad", ("X", "Y"), {("X", "X"): {"Y": 1}})

    def test_antisymmetric_fill(self, h3):
        # [Y,X] = -Z was filled automatically
        assert dense_table(h3)[1][0][2] == -1
