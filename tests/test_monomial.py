import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitadm as oa
from orbitadm.geometry import coadjoint_apply_factors

from conftest import (CORPUS_NAMES, load_problem, make_abelian, make_h3,
                      random_dyadic, random_invertible, random_vector,
                      transform_algebra, vector)
from exact import dense_rows, dot, invert, mat_vec, nullspace, rank, rref


ENTRIES = st.sampled_from((0, 0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 2)))


def nullspace_rule(L, rows):
    """The completion as it was first computed: the standard vectors e_k at
    the pivot columns of the rref of a basis of h^perp."""
    _, kept = rref(nullspace(rref(rows)[0], n_cols=L.dim))
    return tuple(map(tuple, rows)) + tuple(
        vector(L, **{L.basis_names[k]: 1}) for k in kept)


def random_basis_datum() -> oa.MonomialDatum:
    """diag_2d after a random rational change of basis of g and of the
    generators of h, so that every generator is dense."""
    pf = load_problem("diag_2d")
    rng = random.Random(5)
    Q = random_invertible(rng, pf.algebra.dim)
    Qinv = invert(Q)
    rows = [[dot(r, col) for col in zip(*Qinv)]
            for r in dense_rows(pf.generator_terms, pf.algebra.dim)]
    A = random_invertible(rng, len(rows))
    return oa.build_datum(transform_algebra(pf.algebra, Q),
                          [[dot(a, col) for col in zip(*rows)] for a in A],
                          [dot(a, pf.functional_vals) for a in A])


@st.composite
def independent_rows(draw, n, m):
    """m independent rational rows of length n: each nonzero at a pivot
    column of its own and 0 at the others' pivots, then mixed by row
    operations, which often leaves several rows ending at one coordinate."""
    pivots = draw(st.permutations(range(n)))[:m]
    rows = []
    for p in pivots:
        row = [0 if k in pivots else draw(ENTRIES) for k in range(n)]
        row[p] = draw(st.sampled_from((1, -1, 2, Fraction(2, 3))))
        rows.append(row)
    for dst, src, q in draw(st.lists(st.tuples(
            st.integers(0, max(m - 1, 0)), st.integers(0, max(m - 1, 0)),
            ENTRIES), max_size=2 * m)):
        if dst != src:
            rows[dst] = [x + q * y for x, y in zip(rows[dst], rows[src])]
    return [tuple(Fraction(x) for x in row) for row in rows]


class TestCheckSubalgebra:
    def test_h3_yz_valid(self, h3):
        D = oa.build_datum(h3, [vector(h3, Y=1), vector(h3, Z=1)], [0, 0])
        assert D.m == 2
        assert rank([*D.adapted_rows[:2], vector(h3, Y=2, Z=-3)]) == 2

    def test_h3_xy_not_closed(self, h3):
        with pytest.raises(oa.NotClosedError) as exc:
            oa.build_datum(h3, [vector(h3, X=1), vector(h3, Y=1)], [0, 0])
        assert (exc.value.i, exc.value.j) == (0, 1)
        # the escaping component is Z
        assert exc.value.residual == vector(h3, Z=1)

    def test_trivial_subalgebra(self, h3):
        D = oa.build_datum(h3, [], [])
        assert D.m == 0 and D.generator_terms == ()

    def test_rank_deficient(self, h3):
        with pytest.raises(oa.RankDeficientError):
            oa.build_datum(h3, [vector(h3, Y=1), vector(h3, Y=2)], [0, 0])

    def test_non_standard_generators_accepted(self, h3):
        # span{Y + Z, Z} is still the abelian plane
        D = oa.build_datum(h3, [vector(h3, Y=1, Z=1), vector(h3, Z=1)], [0, 0])
        assert D.m == 2

    def test_dimension_mismatch(self, h3):
        with pytest.raises(oa.DimensionMismatchError):
            oa.build_datum(h3, [(1, 0)], [0])

    def test_errors_come_in_order(self, h3):
        # generator length, rank, closure pair by pair, the functional's
        # length, then the character check
        X, Y, Z = vector(h3, X=1), vector(h3, Y=1), vector(h3, Z=1)
        with pytest.raises(oa.DimensionMismatchError, match="generator"):
            oa.build_datum(h3, [X, X, (1, 0)], [])
        with pytest.raises(oa.RankDeficientError):
            oa.build_datum(h3, [X, Y, X], [])
        with pytest.raises(oa.NotClosedError) as exc:
            oa.build_datum(h3, [Y, X], [])
        assert exc.value.residual == vector(h3, Z=-1)
        with pytest.raises(oa.DimensionMismatchError, match="functional"):
            oa.build_datum(h3, [X, Y, Z], [1])
        with pytest.raises(oa.NotACharacterError) as exc:
            oa.build_datum(h3, [Z, X, Y], [1, 0, 0])
        assert (exc.value.i, exc.value.j, exc.value.value) == (1, 2, 1)


class TestCheckCharacter:
    def test_h3_yz_any_f_valid(self, h3):
        D = oa.build_datum(h3, [vector(h3, Y=1), vector(h3, Z=1)], [0, 1])
        assert D.f_vals == (Fraction(0), Fraction(1))

    def test_full_algebra_rejects_central_character(self, h3):
        with pytest.raises(oa.NotACharacterError) as exc:
            oa.build_datum(
                h3, [vector(h3, X=1), vector(h3, Y=1), vector(h3, Z=1)],
                [0, 0, 1])
        assert exc.value.value == 1  # f([X,Y]) = f(Z) = 1

    def test_zero_functional_always_works(self, h3):
        D = oa.build_datum(
            h3, [vector(h3, X=1), vector(h3, Y=1), vector(h3, Z=1)], [0, 0, 0])
        assert all(v == 0 for v in D.f_vals)

    def test_length_mismatch(self, h3):
        with pytest.raises(oa.DimensionMismatchError):
            oa.build_datum(h3, [vector(h3, Y=1)], [1, 2])


class TestAdaptBasis:
    def test_h3_yz_completion_is_x(self, h3):
        D = oa.build_datum(h3, [vector(h3, Y=1), vector(h3, Z=1)], [0, 1])
        assert D.adapted_rows[2] == vector(h3, X=1)

    def test_full_subalgebra_empty_completion(self, h3):
        D = oa.build_datum(
            h3, [vector(h3, X=1), vector(h3, Y=1), vector(h3, Z=1)], [0, 0, 0])
        assert D.n == D.m == 3
        assert oa.point_on_variety(D, ()) == (0, 0, 0)

    def test_trivial_subalgebra_full_completion(self, h3):
        D = oa.build_datum(h3, [], [])
        assert D.adapted_rows == (vector(h3, X=1), vector(h3, Y=1),
                                  vector(h3, Z=1))

    def test_greedy_prefers_lowest_index(self):
        # in abelian R^3 with h = span{E2}, the completion must be E1, E3
        L = make_abelian(3)
        D = oa.build_datum(L, [vector(L, E2=1)], [0])
        assert D.adapted_rows[1] == vector(L, E1=1)
        assert D.adapted_rows[2] == vector(L, E3=1)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_greedy_rank_trials(self, seed):
        # reference: one rank trial per standard vector, in index order.
        # Every subspace of an abelian algebra is a subalgebra.
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        m = rng.randint(0, n)
        L = make_abelian(n)
        rows = []
        while len(rows) < m:
            row = tuple(rng.choice((0, 0, 0, 1, -2, Fraction(1, 3)))
                        for _ in range(n))
            if rank(rows + [row]) == len(rows) + 1:
                rows.append(row)
        chosen = [list(r) for r in rows]
        for k in range(n):
            trial = chosen + [list(vector(L, **{L.basis_names[k]: 1}))]
            if rank(trial) == len(trial):
                chosen = trial
        D = oa.build_datum(L, rows, [0] * len(rows))
        assert D.adapted_rows == tuple(tuple(r) for r in chosen)

    @pytest.mark.parametrize("rows", [
        [], [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        # both end at E4; their difference ends at E2
        [(1, 0, 0, 1), (0, 1, 0, 1)],
        [(0, 3, 0, Fraction(1, 2)), (0, 0, -1, 2), (1, 1, 1, 1)],
    ])
    def test_matches_the_nullspace_rule(self, rows):
        L = make_abelian(4)
        D = oa.build_datum(L, rows, [1] * len(rows))
        assert D.adapted_rows == nullspace_rule(L, rows)

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_the_nullspace_rule_on_random_generators(self, data):
        # Every subspace of an abelian algebra is a subalgebra and every f
        # a character, so any independent generators and values will do.
        n = data.draw(st.integers(1, 7), label="n")
        m = data.draw(st.integers(0, n), label="m")
        rows = data.draw(independent_rows(n, m), label="rows")
        vals = data.draw(st.lists(ENTRIES, min_size=m, max_size=m))
        L = make_abelian(n)
        D = oa.build_datum(L, rows, vals)
        assert D.adapted_rows == nullspace_rule(L, rows)
        assert D.adapted_rows[:m] == tuple(map(tuple, rows))
        assert D.f_vals == tuple(map(Fraction, vals))


class TestPointOnVariety:
    def test_h3_example(self, h3):
        D = oa.build_datum(h3, [vector(h3, Y=1), vector(h3, Z=1)], [0, 1])
        l = oa.point_on_variety(D, (5,))
        assert l == (Fraction(5), Fraction(0), Fraction(1))

    def test_m_equals_n_pins_the_point(self, h3):
        # f must kill [h,h] = span{Z}, so its Z-value is 0
        D = oa.build_datum(
            h3, [vector(h3, X=1), vector(h3, Y=1), vector(h3, Z=1)], [2, 3, 0])
        assert oa.point_on_variety(D, ()) == (2, 3, 0)

    def test_zero_everything(self, h3):
        D = oa.build_datum(h3, [vector(h3, X=1)], [0])
        assert oa.point_on_variety(D, (0, 0)) == (0, 0, 0)

    def test_wrong_arity(self, h3):
        D = oa.build_datum(h3, [vector(h3, X=1)], [0])
        with pytest.raises(oa.DimensionMismatchError):
            oa.point_on_variety(D, (1,))

    @pytest.mark.parametrize("name", [*CORPUS_NAMES, "random_basis"])
    def test_chart_restricts_to_f_exactly(self, name, corpus_data):
        D = corpus_data.get(name) or random_basis_datum()
        rng = random.Random(sum(ord(c) for c in name))
        for _ in range(100):
            x = random_vector(rng, D.n - D.m)
            l = oa.point_on_variety(D, x)
            for j in range(D.m):
                val = sum(a * b for a, b in
                          zip(l, D.adapted_rows[j]))
                assert val == D.f_vals[j]
            # and the completion coordinates are the chart input
            assert mat_vec(D.adapted_rows, l)[D.m:] == [
                Fraction(v) for v in x]

    def test_non_standard_generators_chart(self, h3):
        # generators Y+Z, Z with f = (2, 5): l(Y+Z)=2, l(Z)=5 => l(Y)=-3
        D = oa.build_datum(h3, [vector(h3, Y=1, Z=1), vector(h3, Z=1)], [2, 5])
        l = oa.point_on_variety(D, (7,))
        assert l == (Fraction(7), Fraction(-3), Fraction(5))


class TestVarietyInvariance:
    """A_tau is stable under the coadjoint action of H (numerically)."""

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_h_action_preserves_f_values(self, name, corpus_data):
        D = corpus_data[name]
        L = D.algebra
        rng = random.Random(1000 + len(name))
        for _ in range(100):
            x = [random_dyadic(rng) for _ in range(D.n - D.m)]
            l = [float(v) for v in oa.point_on_variety(D, x)]
            factors = [(D.adapted_rows[i], random_dyadic(rng, scale=8))
                       for i in range(D.m)]
            moved = coadjoint_apply_factors(L, factors, l)
            for j in range(D.m):
                fj = float(D.f_vals[j])
                got = float(np.dot(moved,
                                   [float(v) for v in
                                    D.adapted_rows[j]]))
                assert abs(got - fj) < 1e-8
