"""The parsed problem kept in integers, against the dense paths it replaced.

``parse`` keeps each generator as the {basis index: coefficient} term sum
it read (``ProblemFile.generator_terms``), and ``build_datum`` reads a
generator given so, or as a dense row, through one normalisation: integer
generators stay ints, and a value of f with denominator 1 enters the
graph of f as an int.  ``from_constants`` takes an all-``int`` table as it
is, with scale 1.  ``linalg.echelon`` keeps the set of its pivots, and a
vector that meets none of them becomes a row with no walk over the rows.

The references below are the code these replaced, kept here as it was:
``reference_from_constants`` sends every plane through ``Fraction``
numerators, denominators and an lcm; ``reference_rows`` are the dense
``Fraction`` rows the parser built with ``dense_vector``, which
``build_datum`` read entry by entry, and ``reference_generator_terms`` the
terms it found in them; ``reference_echelon`` walks every vector through
every row.  Both sides must give equal tables, equal data (with equal
generator terms) or the same error, and equal echelon rows and pivots.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitadm as oa
from orbitadm import algebra, monomial
from orbitadm.algebra import DimensionMismatchError, dense_vector
from orbitadm.linalg import _primitive, _take_away, echelon
from orbitadm.pointwise import point_on_variety

from conftest import (CORPUS_NAMES, CORPUS_TEXTS, ROUNDTRIP_ALGEBRAS,
                      corpus_file, load_bench_families, problem_text_of,
                      random_invertible, run_cli, text_terms,
                      transform_algebra)
from exact import cleared, dot, invert, mat_vec, sparse_rows

_families = load_bench_families()

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# --- the references: Fraction planes, dense Fraction rows, the full walk ----


def reference_from_constants(name, basis_names, constants):
    names = tuple(basis_names)
    n = len(names)
    planes = {ij: [(k, q if type(q) in (int, Fraction) else Fraction(q))
                   for k, q in combo.items()]
              for ij, combo in constants.items()}
    scale = lcm(*(q.denominator for pairs in planes.values()
                  for _, q in pairs))
    table = [[()] * n for _ in range(n)]
    for (i, j), pairs in planes.items():
        table[i][j] = tuple(sorted(
            (k, q.numerator * (scale // q.denominator)) for k, q in pairs
            if q))
    support = tuple({j: pairs for j, pairs in enumerate(plane) if pairs}
                    for plane in table)
    return algebra.LieAlgebra(name, names, tuple(map(tuple, table)), scale,
                              support)


def reference_rows(pf):
    return tuple(dense_vector(terms.items(), pf.algebra.dim)
                 for terms in pf.generator_terms)


def reference_generator_terms(rows):
    return tuple(tuple(y.items()) for y in sparse_rows(
        [[Fraction(x) for x in row] for row in rows]))


def reference_echelon(vectors, limit=None):
    rows, pivots = [], []
    for v in vectors:
        w = {k: x for k, x in v.items() if x}
        if not w:
            continue
        if Fraction in map(type, w.values()):
            w = cleared(w)[0]
        for row, col in zip(rows, pivots):
            f = w.get(col)
            if f:
                w = _take_away(w, row, col, f)
        if not w:
            continue
        col = min(w)
        rows.append(_primitive(w, col))
        pivots.append(col)
        if len(rows) == limit:
            break
    return rows, pivots


# --- helpers ----------------------------------------------------------------


def _outcome(L, rows, f_vals):
    """The datum of (L, rows, f), or the type and message of its error."""
    try:
        return oa.build_datum(L, rows, f_vals)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_sparse_matches_dense(pf):
    """build_datum of the parsed terms and of the reference dense rows, with
    f as parsed and as Fractions, agree; a datum restricts to f on h."""
    L, f = pf.algebra, pf.functional_vals
    rows = reference_rows(pf)
    sparse = _outcome(L, pf.generator_terms, f)
    dense = _outcome(L, rows, f)
    assert sparse == dense
    assert sparse == _outcome(L, rows, [Fraction(v) for v in f])
    if isinstance(sparse, tuple):
        return sparse
    expected = reference_generator_terms(rows)
    assert sparse.generator_terms == dense.generator_terms == expected
    assert all(x for terms in sparse.generator_terms for _, x in terms)
    assert all(type(v) is Fraction for v in sparse.f_vals)
    rng = random.Random(pf.name)
    for _ in range(2):
        x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(sparse.n - sparse.m))
        l = point_on_variety(sparse, x)
        assert tuple(mat_vec(sparse.adapted_rows, l)) == tuple(f) + x
    return sparse


def _family_problems():
    found = [_families.heisenberg(k, s) for k in (1, 2, 5, 10)
             for s in ("lagrangian", "centre")]
    found += [_families.borel(N, s) for N in (2, 3, 5)
              for s in ("cartan", "nilradical")]
    found += [_families.diagonal(k, m) for k in (1, 3, 12, 20)
              for m in sorted({1, k})]
    found += [_families.twist(j) for j in (1, 2)]
    found += [p for p in _families.rejects() if p.name != "malformed"]
    return found


FAMILIES = _family_problems()


def _rational_f(text: str) -> str:
    """The text with every functional value replaced by a fraction."""
    lines = []
    for line in text.splitlines():
        if line.startswith("functional"):
            count = len(line.split(","))
            line = "functional " + ", ".join(
                f"{2 * i + 1}/{i + 2}" for i in range(count))
        lines.append(line)
    return "\n".join(lines) + "\n"


def _in_random_basis(pf, rng):
    """The text of pf in a random rational basis of g and of h, with f
    carried along."""
    n, m = pf.algebra.dim, pf.m
    Q = random_invertible(rng, n)
    Qinv = invert(Q)
    rows = [[dot(r, col) for col in zip(*Qinv)] for r in reference_rows(pf)]
    A = random_invertible(rng, m) if m else []
    rows = [tuple(dot(a, col) for col in zip(*rows)) for a in A]
    f = tuple(dot(a, pf.functional_vals) for a in A)
    return problem_text_of(pf.name + "_chg",
                           transform_algebra(pf.algebra, Q), rows, f)


# --- the table: an integral one is taken as it is -------------------------


def _fraction_constants(L):
    return {(i, j): {k: Fraction(q, L.scale) for k, q in pairs}
            for i, plane in enumerate(L.table)
            for j, pairs in enumerate(plane) if pairs}


@st.composite
def problems(draw):
    """A problem over a corpus or textbook algebra: as given (an integral
    table), with one basis vector rescaled (a table that mixes ints and
    fractions), or in a random rational basis; generators with int or
    rational entries, and an int or rational f."""
    L = draw(st.sampled_from(ROUNDTRIP_ALGEBRAS))
    n = L.dim
    how = draw(st.sampled_from(["as given", "rescaled", "random basis"]))
    if how == "rescaled":
        Q = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        t = draw(st.integers(0, n - 1))
        Q[t][t] = draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), 3]))
        L = transform_algebra(L, Q)
    elif how == "random basis":
        seed = draw(st.integers(0, 10 ** 6))
        L = transform_algebra(L, random_invertible(random.Random(seed), n))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-5, 5),
                                st.integers(1, 4)))
    m = draw(st.integers(0, n))
    rows = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(m))
    vals = tuple(Fraction(draw(entry)) for _ in range(m))
    return oa.ProblemFile(name=L.name, algebra=L,
                          generator_terms=text_terms(rows),
                          functional_vals=vals)


def _text(pf):
    return problem_text_of(pf.name, pf.algebra, pf.generator_terms,
                           pf.functional_vals)


@settings(max_examples=200, deadline=None, database=None)
@given(pf=problems())
def test_parse_gives_the_reference_table(pf):
    parsed = oa.parse(_text(pf))
    L = pf.algebra
    ref = reference_from_constants(L.name, L.basis_names,
                                   _fraction_constants(L))
    assert (parsed.algebra.table, parsed.algebra.scale) == (ref.table,
                                                            ref.scale)
    assert parsed == pf
    integral = all(q % L.scale == 0 for plane in L.table
                   for pairs in plane for _, q in pairs)
    assert (parsed.algebra.scale == 1) == integral


@settings(max_examples=200, deadline=None, database=None)
@given(pf=problems())
def test_terms_give_the_datum_of_the_dense_rows(pf):
    _assert_sparse_matches_dense(oa.parse(_text(pf)))


def test_from_constants_on_int_and_mixed_tables():
    names = ("A", "X", "Y")
    ints = {(0, 1): {1: 1}, (1, 0): {1: -1}, (0, 2): {2: 2, 1: 0},
            (2, 0): {2: -2}}
    mixed = {**ints, (0, 2): {2: Fraction(1, 2)}, (2, 0): {2: -2}}
    for constants in (ints, mixed):
        got = algebra.from_constants("g", names, constants)
        fractions = {ij: {k: Fraction(q) for k, q in combo.items()}
                     for ij, combo in constants.items()}
        assert got == reference_from_constants("g", names, fractions)
        assert all(type(q) is int for plane in got.table for pairs in plane
                   for _, q in pairs)
    assert algebra.from_constants("g", names, ints).table[0][2] == ((2, 2),)
    assert algebra.from_constants("g", names, mixed).scale == 2


# --- the datum: terms as parsed against dense rows ---------------------------


@pytest.mark.parametrize("text", CORPUS_TEXTS)
def test_corpus(text):
    _assert_sparse_matches_dense(oa.parse(text))
    _assert_sparse_matches_dense(oa.parse(_rational_f(text)))


@pytest.mark.parametrize("problem", FAMILIES, ids=[p.name for p in FAMILIES])
def test_families(problem):
    pf = oa.parse(problem.text)
    assert pf.algebra.scale == 1
    assert all(type(x) is int for terms in pf.generator_terms
               for x in terms.values())
    _assert_sparse_matches_dense(pf)
    _assert_sparse_matches_dense(oa.parse(_rational_f(problem.text)))


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.alg")),
                         ids=lambda p: p.stem)
def test_fixtures(path):
    _assert_sparse_matches_dense(oa.parse(path.read_text()))


def test_datum_errors_are_the_dense_ones():
    for path in sorted((FIXTURES / "datum_errors").glob("*.alg")):
        assert isinstance(_assert_sparse_matches_dense(
            oa.parse(path.read_text())), tuple)


SMALL_FAMILIES = [p for p in FAMILIES if p.n <= 12]


@pytest.mark.parametrize("problem", SMALL_FAMILIES,
                         ids=[p.name for p in SMALL_FAMILIES])
def test_random_rational_bases(problem):
    text = _in_random_basis(oa.parse(problem.text),
                            random.Random(problem.name))
    _assert_sparse_matches_dense(oa.parse(text))


def test_trivial_subalgebra():
    pf = oa.parse("algebra g\ndim 2\nbasis A X\nbracket A X = X\n")
    assert pf.generator_terms == ()
    D = _assert_sparse_matches_dense(pf)
    assert D.m == 0 and D.generator_terms == ()


def test_cancelled_terms_are_dropped():
    pf = oa.parse("algebra g\ndim 3\nbasis A X Y\nbracket A X = X\n"
                  "bracket A Y = Y\nsubalgebra X + Y + -1 * Y; 2 * Y + 0 * A\n"
                  "functional 1, 3/2\n")
    assert pf.generator_terms == ({1: 1, 2: 0}, {2: 2, 0: 0})
    D = _assert_sparse_matches_dense(pf)
    assert D.generator_terms == (((1, 1),), ((2, 2),))
    assert D.f_vals == (1, Fraction(3, 2))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_verdict_builds_no_dense_rows(name, monkeypatch):
    # the datum's adapted basis is built on first read, and verdict never
    # reads it; the parser builds no dense rows at all
    def refuse(pairs, n):
        raise AssertionError("a dense row was built")

    monkeypatch.setattr(monomial, "dense_vector", refuse)
    code, out, err = run_cli("verdict", str(corpus_file(name)))
    assert (code, err) == (0, "")


def test_datum_equality_builds_no_dense_rows(h3, monkeypatch):
    # equality reads the generators' terms and the completing k, which give
    # the adapted rows, so comparing two data builds neither's rows
    def refuse(pairs, n):
        raise AssertionError("a dense row was built")

    a = oa.build_datum(h3, [{1: 1}, {2: 1}], [0, 1])
    monkeypatch.setattr(monomial, "dense_vector", refuse)
    assert a == oa.build_datum(h3, [(0, 1, 0), (0, 0, Fraction(1))], [0, 1])
    assert a != oa.build_datum(h3, [{1: 2}, {2: 1}], [0, 1])
    assert a != oa.build_datum(h3, [{0: 1}, {2: 1}], [0, 1])


def test_wrong_lengths_are_refused(h3):
    for row in ((1, 0), (0, 1, 0, 0), ()):
        with pytest.raises(DimensionMismatchError):
            oa.build_datum(h3, [row], [0])
    for terms in ({3: 1}, {-1: 1}, {0: 1, 5: 2}):
        with pytest.raises(DimensionMismatchError):
            oa.build_datum(h3, [terms], [0])
    with pytest.raises(DimensionMismatchError):
        oa.build_datum(h3, [{1: 1}], [0, 1])


# --- echelon: the pivot precheck against the full walk ---------------------

_entries = st.one_of(
    st.just(0), st.just(0), st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def vector_lists(draw):
    """Sparse vectors over a few columns: zero vectors, repeats, vectors on
    columns no earlier vector touched, and vectors that meet an early pivot
    and, after its row is taken away, a later one."""
    n = draw(st.integers(1, 7))
    column = st.integers(0, n - 1)
    vectors = [{k: draw(_entries) for k in draw(st.sets(column, max_size=4))}
               for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 3))):
        if vectors:
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(
                vectors))
            p, q = draw(_entries), draw(_entries)
            vectors.append({k: p * a.get(k, 0) + q * b.get(k, 0)
                            for k in a.keys() | b.keys()})
    return vectors


@settings(max_examples=500, deadline=None, database=None)
@given(vectors=vector_lists(), limit=st.one_of(st.none(), st.integers(1, 4)))
def test_echelon_matches_the_full_walk(vectors, limit):
    assert echelon(vectors, limit) == reference_echelon(vectors, limit)


def test_echelon_cases():
    cases = [
        # each vector misses every pivot so far
        [{0: 2, 3: 4}, {1: Fraction(1, 3)}, {2: -5, 4: 1}],
        # {0: 1, 3: 1} meets pivot 0 only; taking row 0 away leaves
        # {2: -1, 3: 1}, which meets pivot 2, and taking row 1 away leaves
        # {3: 1, 4: 1}
        [{0: 1, 2: 1}, {2: 1, 4: 1}, {0: 1, 3: 1}],
        # a vector in the span, and one whose entry at a pivot is 0
        [{0: 1, 1: 2}, {1: 1}, {0: 3, 1: 5}, {0: 0, 1: 0, 2: 7}],
        # Fraction entries, cleared on entry
        [{1: Fraction(3, 2), 2: Fraction(-1, 4)}, {0: Fraction(2, 5)},
         {1: Fraction(1, 2), 3: 1}],
    ]
    for vectors in cases:
        assert echelon(vectors) == reference_echelon(vectors)
    rows, pivots = echelon(cases[1])
    assert pivots == [0, 2, 3] and rows[2] == {3: 1, 4: 1}
