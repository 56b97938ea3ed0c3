"""The exact exponentiality decision, on algebras whose answer is known by
hand, in their own basis and in random rational bases; the univariate
helpers it rests on; and the import graph that keeps numpy off every
command, and the Bareiss polynomials, ``dataclasses``, ``json``, the rank
layer and the readers of one point off every command that does not run
them.

A solvable g is exponential iff no ad X has a nonzero purely imaginary
eigenvalue (Dixmier 1957, Saito 1957).
"""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitadm as oa
from orbitadm import algebra, cli, univariate
from orbitadm.geometry import ad_float

from conftest import (CORPUS_NAMES, corpus_file, load_bench_families,
                      load_problem, make_motion, make_skew3, problem_text_of,
                      random_invertible, run_cli, transform_algebra)
from exact import invert, mat_vec, matmul, rank, rref

SRC = Path(__file__).resolve().parents[1] / "src"
_families = load_bench_families()


def _family(problem) -> oa.LieAlgebra:
    return oa.parse(problem.text).algebra


def _plane_action(prefix: str, blocks) -> dict:
    """Brackets [prefix, X_i] on R^k from the k x k matrix ``blocks``
    (column i holds the coordinates of [prefix, X_i])."""
    k = len(blocks)
    return {(prefix, f"X{i + 1}"): {f"X{r + 1}": blocks[r][i]
                                    for r in range(k) if blocks[r][i]}
            for i in range(k)}


def _semidirect(name: str, actions: dict) -> oa.LieAlgebra:
    """R^r x| R^k with abelian R^r acting by the commuting matrices
    ``actions`` (generator name -> k x k matrix) on an abelian ideal."""
    k = len(next(iter(actions.values())))
    brackets = {}
    for gen, mat in actions.items():
        brackets.update(_plane_action(gen, mat))
    return oa.from_brackets(name, tuple(actions) + tuple(
        f"X{i + 1}" for i in range(k)), brackets)


def _blocks(*rows_of_blocks):
    """A matrix assembled from 2 x 2 blocks."""
    out = []
    for block_row in rows_of_blocks:
        for r in range(2):
            out.append([x for block in block_row for x in block[r]])
    return out


I2, Z2 = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
R_PLUS = [[1, -1], [1, 1]]     # I + J, eigenvalues 1 +- i
R_MINUS = [[1, 1], [-1, 1]]    # I - J, eigenvalues 1 -+ i


def oscillator() -> oa.LieAlgebra:
    # ad T rotates (X, Y), [X, Y] = Z: solvable, ad T has eigenvalues +-i
    return oa.from_brackets("oscillator", ("T", "X", "Y", "Z"), {
        ("T", "X"): {"Y": 1}, ("T", "Y"): {"X": -1}, ("X", "Y"): {"Z": 1}})


def jordan_block() -> oa.LieAlgebra:
    # ad A on R^3 is one Jordan block with eigenvalue 1
    return _semidirect("jordan", {"A": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]})


def complex_jordan(b_blocks) -> oa.LieAlgebra:
    """ad A = [[R, I], [0, R]] on R^4 = C^2 (R = I + J: a Jordan block with
    eigenvalue 1 + i, so not semisimple), ad B = diag(b, b)."""
    return _semidirect("cjordan", {
        "A": _blocks([R_PLUS, I2], [Z2, R_PLUS]),
        "B": _blocks([b_blocks, Z2], [Z2, b_blocks])})


EXPONENTIAL = {
    **{name: (lambda name=name: load_problem(name).algebra)
       for name in CORPUS_NAMES},
    "h7": lambda: _family(_families.heisenberg(3, "lagrangian")),
    "b4": lambda: _family(_families.borel(4, "cartan")),
    "diag5": lambda: _family(_families.diagonal(5, 1)),
    "jordan": jordan_block,
    # chi(B) = chi(A) = 1 + i on each character: chi(X) is a real multiple
    # of 1 + i, never purely imaginary; decided through checks (i) and (ii)
    "complex_jordan_parallel": lambda: complex_jordan(R_PLUS),
}

# name -> (algebra, the check that refuses it in its own basis)
NOT_EXPONENTIAL = {
    "twist1": (lambda: _family(_families.twist(1)), "ii"),
    "twist2": (lambda: _family(_families.twist(2)), "ii"),
    "twist3": (lambda: _family(_families.twist(3)), "ii"),
    "e2": (make_motion, "i"),
    "oscillator": (oscillator, "i"),
    # ad A = I + J, ad B = 3I + J: ad(3A - B) = 2J has eigenvalues +-2i
    "pair": (lambda: _semidirect("pair", {"A": R_PLUS,
                                          "B": [[3, -1], [1, 3]]}), "ii"),
    # chi(A) = 1 + i, chi(B) = 1 - i, with ad A not semisimple
    "complex_jordan_twisted": (lambda: complex_jordan(R_MINUS), "ii"),
}


def _decide(L):
    assert oa.validate(L) == []
    rep = oa.structure_report(L)
    assert rep.is_solvable
    return rep


@pytest.mark.parametrize("name", EXPONENTIAL)
def test_exponential_algebras(name):
    rep = _decide(EXPONENTIAL[name]())
    assert rep.exponentiality == "Exponential"
    assert rep.exponentiality_witness is None
    assert (rep.exponentiality_reason == "nilpotent") == rep.is_nilpotent


@pytest.mark.parametrize("name", NOT_EXPONENTIAL)
def test_not_exponential_algebras(name):
    build, check = NOT_EXPONENTIAL[name]
    L = build()
    rep = _decide(L)
    assert rep.exponentiality == "NotExponential"
    assert rep.exponentiality_reason.startswith(f"check ({check}) fails")
    if check == "i":
        _assert_imaginary_witness(L, rep.exponentiality_witness)
    else:
        assert rep.exponentiality_witness is None


def _assert_imaginary_witness(L, X):
    """ad X has a nonzero purely imaginary eigenvalue (float oracle)."""
    eig = np.linalg.eigvals(ad_float(L, X))
    assert any(abs(lam.real) < 1e-9 and abs(lam.imag) > 1e-6 for lam in eig)


CASES = [(name, build, "Exponential") for name, build in EXPONENTIAL.items()]
CASES += [(name, build, "NotExponential")
          for name, (build, _check) in NOT_EXPONENTIAL.items()]


@pytest.mark.parametrize("name, build, expected", CASES,
                         ids=[c[0] for c in CASES])
def test_decision_is_basis_invariant(name, build, expected):
    L = build()
    rng = random.Random(f"exp:{name}")
    for _ in range(2):
        M = transform_algebra(L, random_invertible(rng, L.dim))
        rep = _decide(M)
        assert rep.exponentiality == expected
        if rep.exponentiality_witness is not None:
            _assert_imaginary_witness(M, rep.exponentiality_witness)


# The scan of ``algebra._ad_scan``: an order of the basis in which every
# ad Z_i is triangular decides a non-nilpotent g exponential with no flag.


def _permuted(L: oa.LieAlgebra, seed) -> oa.LieAlgebra:
    """L in its basis shuffled by ``seed``: new Z_r is old Z_order[r]."""
    order = list(range(L.dim))
    random.Random(seed).shuffle(order)
    return transform_algebra(L, [[Fraction(int(c == i)) for c in range(L.dim)]
                                 for i in order])


def _flag_decision(L: oa.LieAlgebra):
    """``_exponentiality`` called directly: the flag of C^inf decides."""
    commutator = algebra._commutator(L)
    _, stable = algebra._series(L, commutator, algebra._lower_central_step)
    return algebra._exponentiality(L, commutator, stable)


@pytest.mark.parametrize("name, build, expected", CASES,
                         ids=[c[0] for c in CASES])
def test_a_triangularising_order_agrees_with_the_flag(name, build, expected):
    L = build()
    bases = [L] + [_permuted(L, f"perm:{name}:{s}") for s in range(3)]
    found = algebra._ad_scan(L)[1]
    for M in bases:
        # a permutation of the basis keeps or breaks every order at once
        assert algebra._ad_scan(M)[1] is found
        if found:
            assert expected == "Exponential"
            assert _flag_decision(M)[0] == "Exponential"
            rep = oa.structure_report(M)
            assert rep.exponentiality == "Exponential"
            assert rep.exponentiality_reason == (
                "nilpotent" if rep.is_nilpotent else algebra.TRIANGULAR)


def _index_order_triangularises(L: oa.LieAlgebra) -> bool:
    """Whether every ad Z_i is upper or every one lower triangular in the
    order Z_1, ..., Z_n itself."""
    moves = [k - j for plane in L.table for j, pairs in enumerate(plane)
             for k, _ in pairs if k != j]
    return all(d > 0 for d in moves) or all(d < 0 for d in moves)


@pytest.mark.parametrize("N", [4, 5, 6])
def test_a_permuted_borel_basis_is_decided_by_the_scan(N, monkeypatch):
    L = _family(_families.borel(N, "cartan"))
    M = _permuted(L, f"borel:{N}")
    assert not _index_order_triangularises(M)
    monkeypatch.setattr(algebra, "_flag", lambda *args: pytest.fail(
        "the flag was built"))
    rep = oa.structure_report(M)
    assert (rep.exponentiality, rep.exponentiality_reason) == (
        "Exponential", algebra.TRIANGULAR)
    assert rep == oa.structure_report(L)


NO_ORDER = {"grelaud": lambda: load_problem("grelaud").algebra,
            "motion": make_motion,
            **{f"twist{j}": (lambda j=j: _family(_families.twist(j)))
               for j in (1, 2, 3)}}


@pytest.mark.parametrize("name", NO_ORDER)
def test_cyclic_bases_take_the_flag(name, monkeypatch):
    L = NO_ORDER[name]()
    rng = random.Random(f"cyclic:{name}")
    built = []
    flag = algebra._flag
    monkeypatch.setattr(algebra, "_flag", lambda *args: built.append(
        flag(*args)) or built[-1])
    for M in [L, _permuted(L, f"perm:{name}"),
              transform_algebra(L, random_invertible(rng, L.dim))]:
        assert not algebra._ad_scan(M)[1]
        built.clear()
        rep = oa.structure_report(M)
        assert len(built) == 1
        assert rep.exponentiality_reason != algebra.TRIANGULAR


SWAP_H3 = Path(__file__).parent / "fixtures" / "swap_h3.alg"


def test_a_zero_action_on_the_last_quotient_passes_both_checks():
    # ad A swaps U and V, so the flag decides; on V_1/V_2 = span{R} every
    # action is 0 and there is no nonzero character
    L = oa.parse(SWAP_H3.read_text()).algebra
    assert not algebra._ad_scan(L)[1]
    commutator = algebra._commutator(L)
    _, stable = algebra._series(L, commutator, algebra._lower_central_step)
    assert [len(term) for term in algebra._flag(L, commutator, stable)] \
        == [3, 1, 0]
    rep = oa.structure_report(L)
    assert (rep.exponentiality, rep.exponentiality_reason) == (
        "Exponential", "checks (i) and (ii) hold on every quotient of the "
        "flag of C^inf")
    code, out, err = run_cli("verdict", str(SWAP_H3))
    assert (code, err) == (0, "")
    assert "structure.exponentiality: Exponential\n" in out


def test_check_ii_names_the_quotient_and_generator():
    rep = oa.structure_report(_family(_families.twist(2)))
    assert rep.exponentiality_reason == (
        "check (ii) fails on V_0/V_1 of the flag of C^inf (dimension 4): "
        "E_A = A_A S^-1 has a non-real eigenvalue on the joint Fitting-one "
        "part W, with A_A = ad A and S = ad(A + B) on W")


def test_invalid_and_non_solvable_tables_are_not_exponential():
    broken = oa.parse((Path(__file__).parent / "fixtures"
                       / "broken_jacobi.alg").read_text()).algebra
    assert oa.structure_report(broken).exponentiality == "NotExponential"
    sl2 = oa.parse((Path(__file__).parent / "fixtures"
                    / "sl2.alg").read_text()).algebra
    rep = oa.structure_report(sl2)
    assert (rep.exponentiality, rep.exponentiality_reason) == (
        "NotExponential", "not solvable")


# The reference for ``univariate.quotient_failure``: the Jordan-Chevalley
# path it replaced.  It reads the semisimple parts S_i of the A_i, from
# Newton's iteration, takes S = sum c_i S_i with ker S the common kernel of
# the S_i, and runs check (ii) on E_i = S_i S^-1 on im S.


def _matrix_poly(p, A):
    """p(A) by Horner's rule, p an integer coefficient list."""
    n = len(A)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p):
        out = matmul(out, A)
        for i in range(n):
            out[i][i] += c
    return out


def _from_rationals(coeffs):
    """The primitive integer polynomial with the roots of ``coeffs``."""
    d = lcm(*(Fraction(c).denominator for c in coeffs))
    return univariate.primitive([int(c * d) for c in coeffs])


def _charpoly(A):
    """The characteristic polynomial of a rational A, as a primitive
    integer polynomial."""
    return _from_rationals(univariate.charpoly(A))


def _squarefree(p):
    """p / gcd(p, p'): every repeated factor reduced to a single one."""
    g = univariate.gcd(p, univariate.derivative(p))
    q = [Fraction(0)] * (len(p) - len(g) + 1)
    r = [Fraction(x) for x in p]
    for k in reversed(range(len(q))):
        q[k] = r[k + len(g) - 1] / g[-1]
        for i, x in enumerate(g):
            r[k + i] -= q[k] * x
    return _from_rationals(q)


def _semisimple_part(A):
    """Newton's iteration A <- A - p(A) p'(A)^-1, p the square-free part of
    the characteristic polynomial, until p(A) = 0."""
    full = _charpoly(A)
    p = _squarefree(full)
    if len(p) == len(full):
        return A
    dp = univariate.derivative(p)
    while True:
        residue = _matrix_poly(p, A)
        if not any(any(row) for row in residue):
            return A
        step = matmul(residue, invert(_matrix_poly(dp, A)))
        A = [[a - s for a, s in zip(ra, rs)] for ra, rs in zip(A, step)]


def _reference_real_spectrum(M):
    p = _squarefree(_charpoly(M))
    return univariate.real_root_count(p) == len(p) - 1


def _reference_quotient_failure(mats):
    if len(mats) == 1:
        c, S, parts = [Fraction(1)], mats[0], None
    elif all(_reference_real_spectrum(A) for A in mats):
        return None
    else:
        parts = [_semisimple_part(A) for A in mats]
        common = rank([row for P in parts for row in P])
        n, t = len(mats[0]), 1
        while True:
            c = [Fraction(t ** i) for i in range(len(parts))]
            S = [[sum((ci * P[a][b] for ci, P in zip(c, parts)), Fraction(0))
                  for b in range(n)] for a in range(n)]
            if rank(S) == common:
                break
            t += 1
    if univariate.has_nonzero_imaginary_root(_charpoly(S)):
        return "i", c, None
    for i, E in enumerate(_on_image(S, parts) if parts else ()):
        if not _reference_real_spectrum(E):
            return "ii", c, i
    return None


def _on_image(S, parts):
    """E_i = S_i S^-1 on im S, where the semisimple S is invertible."""
    basis, piv = rref([list(col) for col in zip(*S)])
    if not basis:
        return []

    def restricted(M):
        images = [mat_vec(M, b) for b in basis]
        return [[w[p] for w in images] for p in piv]

    inverse = invert(restricted(S))
    return [matmul(restricted(P), inverse) for P in parts]


def _integer(mats):
    """The rational ``mats`` times one positive integer, the lcm of all
    their denominators: ``univariate`` takes integer matrices, and one
    positive scale moves no eigenvalue off or onto either axis."""
    d = lcm(*(Fraction(x).denominator for A in mats for row in A
              for x in row))
    return [[[int(x * d) for x in row] for row in A] for A in mats]


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for r, row in enumerate(b):
            out[at + r][at:at + len(b)] = row
        at += len(b)
    return out


@st.composite
def _block(draw, kinds=("jordan", "zero", "rotation", "cjordan")):
    """A real Jordan block (eigenvalue 0 included), a zero block, a
    rotation-scaling block or a complex Jordan block [[R, I], [0, R]]."""
    kind = draw(st.sampled_from(kinds))
    if kind == "jordan":
        lam, k = draw(st.integers(-2, 2)), draw(st.integers(1, 3))
        return [[lam if i == j else int(j == i + 1) for j in range(k)]
                for i in range(k)]
    if kind == "zero":
        k = draw(st.integers(1, 2))
        return [[0] * k for _ in range(k)]
    a, b = draw(st.integers(-2, 2)), draw(st.sampled_from([-2, -1, 1, 2]))
    R = [[a, -b], [b, a]]
    return R if kind == "rotation" else _blocks([R, I2], [Z2, R])


@st.composite
def commuting_actions(draw):
    """r = 1..3 commuting matrices p_i(J), J block diagonal with a complex
    pair and p_i of degree <= 2, conjugated by one random rational matrix.
    With p_i(0) = 0 a zero block of J carries the zero joint character; a
    p_i that is a multiple of p_0 keeps every E_i real."""
    blocks = [draw(_block(("rotation", "cjordan")))]
    blocks += draw(st.lists(_block(), max_size=2)
                   .filter(lambda bs: sum(map(len, bs)) <= 5))
    J = _block_diagonal(blocks)
    through_zero = draw(st.booleans())
    coeff = st.integers(-2, 2)
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        if polys and draw(st.booleans()):
            k = draw(st.sampled_from([-2, -1, 1, 2]))
            polys.append([k * x for x in polys[0]])
        else:
            polys.append([0 if through_zero else draw(coeff),
                          draw(coeff), draw(coeff)])
    P = random_invertible(random.Random(draw(st.integers(0, 2 ** 16))),
                          len(J))
    P_inv = invert(P)
    return [matmul(matmul(P, _matrix_poly(p, J)), P_inv) for p in polys]


def _conjugate_pair_next_to_zero():
    # A = diag(0, I + J), B = A^2: chi = (0, 0) on the zero block beside
    # chi = (1 + i, 2i) on the pair
    J = _block_diagonal([[[0]], R_PLUS])
    return [J, matmul(J, J)]


def _nilpotent_tail_next_to_a_pair():
    # U <- A U + B U falls twice: a 2 x 2 nilpotent Jordan block beside a
    # rotation-scaling block, with A = J and B = J + J^2
    J = _block_diagonal([[[0, 1], [0, 0]], [[2, -1], [1, 2]]])
    J2 = matmul(J, J)
    return [J, [[a + b for a, b in zip(r, s)] for r, s in zip(J, J2)]]


@settings(max_examples=300, deadline=None, database=None)
@given(mats=commuting_actions())
@example(mats=_conjugate_pair_next_to_zero())
@example(mats=_nilpotent_tail_next_to_a_pair())
def test_quotient_failure_matches_the_semisimple_parts(mats):
    """The joint Fitting-one component decides as the semisimple parts do:
    the same check fails, at the same c and the same generator."""
    assert (univariate.quotient_failure(_integer(mats))
            == _reference_quotient_failure(mats))


# ``univariate.real_spectrum`` on triangular matrices, whose diagonal holds
# the eigenvalues, and on matrices one entry off triangular, against the
# reference.

small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def triangular_matrices(draw):
    """An upper or lower triangular rational matrix whose diagonal repeats
    entries and holds zeros often."""
    n = draw(st.integers(1, 5))
    diagonal = draw(st.lists(st.sampled_from(
        [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]),
        min_size=n, max_size=n))
    M = [[diagonal[i] if i == j else
          (draw(small_rationals) if i < j else Fraction(0))
          for j in range(n)] for i in range(n)]
    return M if draw(st.booleans()) else [list(row) for row in zip(*M)]


def _real_spectrum(M):
    """``univariate.real_spectrum`` of the rational M cleared to integers."""
    return univariate.real_spectrum(_integer([M])[0])


def _conjugated(M, seed):
    P = random_invertible(random.Random(seed), len(M))
    return matmul(matmul(P, M), invert(P))


@settings(max_examples=150, deadline=None, database=None)
@given(M=triangular_matrices(), seed=st.integers(0, 2 ** 16))
def test_real_spectrum_of_triangular_matrices(M, seed):
    assert _real_spectrum(M) is _reference_real_spectrum(M) is True
    N = _conjugated(M, seed)
    assert _real_spectrum(N) is _reference_real_spectrum(N) is True


@settings(max_examples=150, deadline=None, database=None)
@given(M=triangular_matrices(), data=st.data())
def test_real_spectrum_one_entry_off_triangular(M, data):
    # one entry across the diagonal can make a pair of non-real roots
    n = len(M)
    if n > 1:
        i, j = data.draw(st.sampled_from(
            [(i, j) for i in range(n) for j in range(n) if i != j]))
        M[i][j] = data.draw(small_rationals)
    assert _real_spectrum(M) is _reference_real_spectrum(M)


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 5), r=st.integers(1, 3), data=st.data(),
       conjugate=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_commuting_diagonal_families_pass_both_checks(n, r, data, conjugate,
                                                      seed):
    diagonal = st.sampled_from([Fraction(0), Fraction(2), Fraction(-1, 3)])
    mats = [[[data.draw(diagonal) if i == j else Fraction(0)
              for j in range(n)] for i in range(n)] for _ in range(r)]
    if conjugate:  # one conjugation for all, so they still commute
        P = random_invertible(random.Random(seed), n)
        P_inv = invert(P)
        mats = [matmul(matmul(P, A), P_inv) for A in mats]
    assert univariate.quotient_failure(_integer(mats)) is None
    assert _reference_quotient_failure(mats) is None


@pytest.mark.parametrize("mats", [[[[0]]], [[[1, 1], [-1, -1]]]])
def test_nilpotent_actions_pass_both_checks(mats):
    # the joint Fitting-one part is 0, so there is no nonzero character
    assert univariate.quotient_failure(mats) is None


@pytest.mark.parametrize("M, real", [
    ([[0, -1], [1, 0]], False),            # a rotation: +-i
    ([[1, 2], [0, 1]], True),              # upper triangular
    ([[1, 0], [5, -2]], True),             # lower triangular
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], False),   # a cyclic shift
])
def test_real_spectrum_by_hand(M, real):
    assert univariate.real_spectrum(M) is real


class TestUnivariate:
    def test_charpoly_matches_numpy(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 6)
            mat = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    if rng.random() < 0.7 else Fraction(0)
                    for _ in range(n)] for _ in range(n)]
            got = univariate.charpoly(mat)
            want = np.poly(np.array(mat, dtype=float))[::-1]
            assert np.allclose(np.array(got, dtype=float) / got[-1], want,
                               atol=1e-8)

    def test_charpoly_of_triangular_matrix(self):
        # (x - 1)(x - 2)(x - 3) = -6 + 11x - 6x^2 + x^3
        mat = [[1, 5, 7], [0, 2, 9], [0, 0, 3]]
        assert univariate.charpoly(mat) == [-6, 11, -6, 1]

    @pytest.mark.parametrize("p, real, imaginary", [
        ([1, 0, 1], 0, True),            # s^2 + 1
        ([0, 0, 1], 1, False),           # s^2
        ([-4, 4, -1, 1], 1, True),       # (s - 1)(s^2 + 4)
        ([2, -2, 1], 0, False),          # roots 1 +- i
        ([0, 1, 0, 1], 1, True),         # s(s^2 + 1)
        ([-6, 11, -6, 1], 3, False),
        ([1, -2, 1], 1, False),          # (s - 1)^2: one distinct root
    ])
    def test_root_counts(self, p, real, imaginary):
        assert univariate.real_root_count(p) == real
        assert univariate.has_nonzero_imaginary_root(p) is imaginary

    def test_gcd_and_squarefree(self):
        # (x - 1)^2 (x + 2) and (x - 1)(x + 3)
        a = [2, -3, 0, 1]
        assert univariate.gcd(a, [-3, 2, 1]) == [-1, 1]
        # the repeated factor: a has 3 - 1 = 2 distinct roots
        assert univariate.gcd(a, univariate.derivative(a)) == [-1, 1]
        assert _from_rationals([Fraction(1, 2), Fraction(-3, 4)]) == [2, -3]


# the modules of a cold process that a command must not load unless it
# runs them: argparse and gettext, which no command loads, dataclasses
# (with inspect, which it pulls in), json, numpy, the rank layer, the
# readers of one point, the Bareiss polynomials and the root counts of the
# exponentiality decision
_WATCHED = ("argparse", "dataclasses", "gettext", "inspect", "json", "numpy",
            "orbitadm.moment", "orbitadm.pointwise", "orbitadm.poly",
            "orbitadm.univariate")

# each argument is one command line, its words joined by newlines; the
# exit code is the last nonzero one, and the last two lines on stderr
# name the watched modules loaded and say whether numpy is one
_NUMPY_PROBE = ("import sys\n"
                "from orbitadm.cli import main\n"
                "code = 0\n"
                "for argv in sys.argv[1:]:\n"
                "    code = main(argv.split('\\n')) or code\n"
                f"watched = {_WATCHED!r}\n"
                "print('loaded:', *(m for m in watched if m in sys.modules),"
                " file=sys.stderr)\n"
                "print('numpy' in sys.modules, file=sys.stderr)\n"
                "sys.exit(code)\n")


def _probe(*commands) -> subprocess.CompletedProcess:
    """Each argv of ``commands`` through ``cli.main``, in order, in one
    fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop(cli.SEED_ENV_VAR, None)
    return subprocess.run([sys.executable, "-c", _NUMPY_PROBE,
                           *("\n".join(argv) for argv in commands)],
                          capture_output=True, text=True, env=env,
                          timeout=60)


def _fresh(*argv) -> tuple[int, str]:
    proc = _probe(argv)
    return proc.returncode, proc.stderr.strip().splitlines()[-1]


def _loaded(proc: subprocess.CompletedProcess) -> list[str]:
    """The watched modules the probe loaded."""
    return proc.stderr.strip().splitlines()[-2].split()[1:]


@pytest.mark.parametrize("argv", [
    ("verdict", "grelaud"), ("validate", "grelaud"),
    ("rank", "grelaud", "--point", "1,2")])
def test_exact_commands_never_import_numpy(argv):
    command, name, *rest = argv
    assert _fresh(command, str(corpus_file(name)), *rest) == (0, "False")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_exact_commands_load_only_what_they_run(name):
    # each command in a process of its own: a module that one loads must
    # not hide one that another loads
    pf = load_problem(name)
    path = str(corpus_file(name))
    point = ",".join(["1"] * (pf.algebra.dim - pf.m))
    loaded = {}
    for argv in [("verdict", path), ("verdict", "--json", path),
                 ("validate", path), ("rank", path, "--point", point)]:
        proc = _probe(argv)
        assert proc.returncode == 0, proc.stderr
        loaded[argv[:2]] = _loaded(proc)
    # only grelaud reaches the flag
    decision = ["orbitadm.univariate"] if name == "grelaud" else []
    assert loaded["verdict", path] == ["orbitadm.moment", *decision]
    assert loaded["verdict", "--json"] == ["json", "orbitadm.moment",
                                           *decision]
    assert loaded["validate", path] == decision
    assert loaded["rank", path] == ["orbitadm.moment", "orbitadm.pointwise"]


def test_importing_orbitadm_loads_no_submodule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, orbitadm\n"
         "print(*sorted(m for m in sys.modules if m.startswith('orbitadm')))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "orbitadm\n",
                                                           "")


def test_the_bareiss_fallback_loads_poly(tmp_path):
    # no certificate closes on the skew pencil, so Bareiss decides d_tau
    L = make_skew3()
    path = tmp_path / "skew3.alg"
    path.write_text(problem_text_of(L.name, L, [{i: 1} for i in range(3)],
                                    [0] * 3))
    proc = _probe(("verdict", str(path)))
    assert proc.returncode == 0, proc.stderr
    assert _loaded(proc) == ["orbitadm.moment", "orbitadm.poly"]
    assert "d_tau: 2\nm: 3\n" in proc.stdout
    assert "spectral: Singular\n" in proc.stdout


def test_jacobian_loads_no_numpy():
    # every corpus file at its benchmark point, in one fresh interpreter
    proc = _probe(*[("jacobian", str(corpus_file(name)), "--point",
                     _families.CORPUS[name][3]) for name in CORPUS_NAMES])
    assert proc.returncode == 0, proc.stderr
    assert "numpy" not in _loaded(proc)
    assert proc.stderr.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("argv, code", [
    (("validate", "grelaud"), 0), (("verdict", "grelaud"), 0),
    (("rank", "grelaud", "--point", "1,2"), 0),
    (("jacobian", "grelaud", "--point", "2,1/2", "--tol", "2"), 1),
    *((("jacobian", name, "--point", _families.CORPUS[name][3]), 0)
      for name in CORPUS_NAMES)])
def test_runs_without_site_packages(argv, code):
    # python -S leaves site-packages, and with them numpy, off the path
    command, name, *rest = argv
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(cli.SEED_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; from orbitadm.cli import main; sys.exit(main())",
         command, str(corpus_file(name)), *rest],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_commands_without_site_load_no_typing_or_pathlib(tmp_path):
    # with site, both are loaded before orbitadm; without it a cold command
    # loads neither: the skew pencil's verdict runs Bareiss (poly), and
    # grelaud's reaches the flag (univariate)
    L = make_skew3()
    skew = tmp_path / "skew3.alg"
    skew.write_text(problem_text_of(L.name, L, [{i: 1} for i in range(3)],
                                    [0] * 3))
    grelaud = str(corpus_file("grelaud"))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(cli.SEED_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys\n"
         "from orbitadm.cli import main\n"
         "for argv in sys.argv[1:]:\n"
         "    assert main(argv.split('\\n')) == 0\n"
         "print(*sorted({'typing', 'pathlib'} & set(sys.modules)),"
         " file=sys.stderr)\n",
         f"verdict\n{skew}", f"verdict\n--json\n{grelaud}",
         f"rank\n{grelaud}\n--point\n1,2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "\n")
    assert "d_tau: 2\nm: 3\n" in proc.stdout


def _imported_roots(path: Path) -> set[str]:
    """The top-level packages that the import statements of a file name."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.partition(".")[0])
    return roots


def test_no_module_imports_numpy():
    files = sorted((SRC / "orbitadm").rglob("*.py"))
    assert any(path.name == "geometry.py" for path in files)
    assert [path.name for path in files
            if "numpy" in _imported_roots(path)] == []
