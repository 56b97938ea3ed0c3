"""The sparse structure-constant readers against dense reference loops.

``dense_bracket``, ``dense_ad_matrix``, ``dense_validate`` and
``dense_series`` are loops over the full n x n x n table c[i][j][k], the
representation that the sparse table ``LieAlgebra.table`` replaced.  On
random rational tables (Lie algebras in random bases, and tables with
injected antisymmetry and Jacobi faults) the sparse code must return
exactly what they return: the same vectors, matrices and violation lists,
in order.  A fault table is read from the table it was generated as, an
algebra in a random basis from ``dense_table``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitadm as oa
from orbitadm import algebra

from conftest import (CORPUS_NAMES, algebra_from_table, bracket, dense_table,
                      load_bench_families, load_problem, make_abelian,
                      make_axb, make_h3, make_motion, make_sl2,
                      random_invertible, transform_algebra, vector)
from exact import rref


def dense_validate(L, c):
    n = L.dim
    out = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                s = c[i][j][k] + c[j][i][k]
                if s != 0:
                    out.append(algebra.Violation("antisymmetry", (i, j, k), s))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res = [Fraction(0)] * n
                for (a, b, cc) in ((i, j, k), (j, k, i), (k, i, j)):
                    for p in range(n):
                        coeff = c[a][b][p]
                        if coeff == 0:
                            continue
                        for q in range(n):
                            res[q] += coeff * c[p][cc][q]
                if any(x != 0 for x in res):
                    out.append(algebra.Violation("jacobi", (i, j, k),
                                                 tuple(res)))
    return out


def dense_bracket(L, c, u, v):
    n = L.dim
    out = [Fraction(0)] * n
    for i in range(n):
        ui = Fraction(u[i])
        if ui == 0:
            continue
        for j in range(n):
            vj = Fraction(v[j])
            if vj == 0:
                continue
            piece = c[i][j]
            for k in range(n):
                if piece[k] != 0:
                    out[k] += ui * vj * piece[k]
    return tuple(out)


def dense_ad_matrix(L, c, u):
    n = L.dim
    cols = [dense_bracket(L, c, u, vector(L, **{name: 1}))
            for name in L.basis_names]
    return [[cols[j][k] for j in range(n)] for k in range(n)]


def _dense_bracket_span(L, c, rows_a, rows_b):
    prods = [dense_bracket(L, c, a, b) for a in rows_a for b in rows_b]
    prods = [p for p in prods if any(x != 0 for x in p)]
    return rref(prods)[0] if prods else []


def dense_series(L, c, lower: bool):
    """Derived (lower=False) or lower central series dimensions."""
    full = [list(vector(L, **{name: 1})) for name in L.basis_names]
    current = full
    dims = [L.dim]
    while dims[-1] > 0:
        nxt = _dense_bracket_span(L, c, full if lower else current, current)
        if len(nxt) == dims[-1]:
            break
        dims.append(len(nxt))
        current = nxt
    return tuple(dims)


def _twist() -> oa.LieAlgebra:
    # R^2 ⋉ R^2, ad A = I + J and ad B = I - J: solvable, not nilpotent
    return oa.from_brackets("twist", ("A", "B", "X", "Y"), {
        ("A", "X"): {"X": 1, "Y": 1}, ("A", "Y"): {"X": -1, "Y": 1},
        ("B", "X"): {"X": 1, "Y": -1}, ("B", "Y"): {"X": 1, "Y": 1}})


def _h5() -> oa.LieAlgebra:
    return oa.from_brackets("h5", ("X1", "X2", "Y1", "Y2", "Z"), {
        ("X1", "Y1"): {"Z": 1}, ("X2", "Y2"): {"Z": 1}})


def _filiform() -> oa.LieAlgebra:
    # [X, E_i] = E_{i+1}: nilpotent of class 3
    return oa.from_brackets("filiform", ("X", "E1", "E2", "E3"), {
        ("X", "E1"): {"E2": 1}, ("X", "E2"): {"E3": 1}})


def _graded_h3() -> oa.LieAlgebra:
    # R ⋉ h3 by the grading derivation: derived series [4, 3, 1, 0]
    return oa.from_brackets("graded_h3", ("A", "X", "Y", "Z"), {
        ("A", "X"): {"X": 1}, ("A", "Y"): {"Y": 1}, ("A", "Z"): {"Z": 2},
        ("X", "Y"): {"Z": 1}})


LIE_ALGEBRAS = [make_h3(), make_axb(), make_abelian(2), make_motion(),
                make_sl2(), _twist(), _h5(), _filiform(), _graded_h3()]

rationals = st.one_of(
    st.just(0), st.just(0),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def lie_algebras(draw):
    """A Lie algebra from LIE_ALGEBRAS, as given or in a random basis."""
    L = draw(st.sampled_from(LIE_ALGEBRAS))
    seed = draw(st.none() | st.integers(0, 10 ** 6))
    if seed is None:
        return L
    Q = random_invertible(random.Random(seed), L.dim)
    return transform_algebra(L, Q)


@st.composite
def faulty_tables(draw):
    """A random antisymmetric table (Jacobi generally fails), with
    one-sided entries and planes injected to break antisymmetry; returns
    the algebra and the table it was built from."""
    n = draw(st.integers(1, 5))
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                q = draw(rationals)
                table[i][j][k], table[j][i][k] = q, -q
    cells = st.tuples(*[st.integers(0, n - 1)] * 3)
    for (i, j, k), q in draw(st.lists(st.tuples(cells, rationals),
                                      max_size=4)):
        table[i][j][k] = Fraction(q)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(pairs, max_size=2)):
        table[i][j] = [draw(rationals) for _ in range(n)]
    L = algebra_from_table("t", tuple(f"Z{i}" for i in range(n)), table)
    return L, table


def _vector(n):
    return st.lists(st.one_of(rationals, st.integers(-3, 3)),
                    min_size=n, max_size=n)


def _check_readers(L, c, data):
    u = data.draw(_vector(L.dim))
    v = data.draw(_vector(L.dim))
    assert bracket(L, u, v) == dense_bracket(L, c, u, v)
    assert oa.ad_matrix(L, u) == dense_ad_matrix(L, c, u)
    got, want = oa.validate(L), dense_validate(L, c)
    assert got == want
    assert ([x.describe(L.basis_names) for x in got]
            == [x.describe(L.basis_names) for x in want])


@settings(max_examples=60, deadline=None, database=None)
@given(L=lie_algebras(), data=st.data())
def test_lie_algebras_in_random_bases(L, data):
    c = dense_table(L)
    _check_readers(L, c, data)
    assert not oa.validate(L)
    assert algebra.derived_series_dims(L) == dense_series(L, c, lower=False)
    assert oa.structure_report(L).lower_central_dims == dense_series(
        L, c, lower=True)


@settings(max_examples=150, deadline=None, database=None)
@given(fault=faulty_tables(), data=st.data())
def test_tables_with_injected_faults(fault, data):
    L, c = fault
    _check_readers(L, c, data)


def _family_lower_central_cases():
    """Every family member the benchmark runs, with its lower central
    series by hand: h_(2k+1) has C^1 = span{Z} and C^2 = 0; b_N and
    A x| R^k have C^1 = C^2 (the nilradical, resp. R^k, which the diagonal
    acts on invertibly); the twist ideal R^(2j) is its own bracket with
    g."""
    fam = load_bench_families()
    cases = [(fam.heisenberg(k, "lagrangian"), (2 * k + 1, 1, 0))
             for k in range(1, 11)]
    cases += [(fam.borel(N, "cartan"), (N * (N + 1) // 2, N * (N - 1) // 2))
              for N in range(2, 7)]
    cases += [(fam.diagonal(k, 1), (k + 1, k)) for k in range(1, 21)]
    cases += [(fam.twist(j), (2 + 2 * j, 2 * j)) for j in (1, 2, 3)]
    return cases


@pytest.mark.parametrize("problem, dims", _family_lower_central_cases(),
                         ids=lambda case: getattr(case, "name", ""))
def test_lower_central_dims_of_the_families(problem, dims):
    L = oa.parse(problem.text).algebra
    assert oa.structure_report(L).lower_central_dims == dims


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_series_of_the_corpus_match_the_dense_loops(name):
    L = load_problem(name).algebra
    c = dense_table(L)
    assert algebra.derived_series_dims(L) == dense_series(L, c, lower=False)
    assert oa.structure_report(L).lower_central_dims == dense_series(
        L, c, lower=True)
