"""Fraction-free back-substitution against the ``Fraction`` paths it replaced.

``linalg.integer_rref`` back-substitutes ``echelon``'s primitive integer
rows, last row first, and divides each result by its content;
``linalg.integer_kernel`` reads a kernel off them, and
``univariate._scaled_inverse`` an inverse off those of (S | I), all in
integers.  The Wong stage of ``moment.rank_certificate`` takes U from an
integer kernel of its residue rows, and ``symbolic_moment_entries`` reads
the integer rows as they are.  ``structure_report`` builds the flag of
C^inf once, from C^inf, whether C^inf is C^1 or lies below it.

The references below are the code these replaced, kept here as it was,
with its sparse helpers from ``exact``: ``reference_rref_sparse`` scales
echelon's rows to pivot 1 and back-substitutes in ``Fraction``s, and
nullspace and invert are built on it;
``reference_symbolic_moment_entries`` clears its rows to integers;
``reference_rank_certificate`` reduces its residues in ``Fraction``s and
takes U from a dense m x (n - m) matrix through
``nullspace`` and ``cleared_int_rows``; the flag is ``_flag`` called
on C^inf directly.  On random sparse rational matrices,
with zero, repeated and dependent rows and negative and non-unit pivots,
on random pencils and on pencils and algebras in random bases, both sides
must return equal values.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitadm as oa
from orbitadm import algebra, linalg, moment, poly, univariate
from orbitadm.linalg import echelon
from orbitadm.poly import Poly

from conftest import load_bench_families, random_invertible, transform_algebra
from exact import (SingularMatrixError, cleared, cleared_int_rows, dense_rows,
                   reduce_in_place, sparse_rows)
from test_moment import CHANGED_BASIS, _hand_pencil, _in_random_basis

_families = load_bench_families()

# --- the references: back-substitution in Fractions, a dense kernel --------


def reference_rref_sparse(rows):
    rows, pivots = echelon(rows)
    rows = [{k: Fraction(x, row[col]) for k, x in row.items()}
            for row, col in zip(rows, pivots)]
    for s in range(len(rows) - 1, 0, -1):
        for row in rows[:s]:
            if pivots[s] in row:
                reduce_in_place(row, rows[s:s + 1], pivots[s:s + 1])
    order = sorted(range(len(rows)), key=pivots.__getitem__)
    return [rows[i] for i in order], [pivots[i] for i in order]


def reference_nullspace(mat, n_cols):
    rows, pivots = reference_rref_sparse(sparse_rows(mat))
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            if free in row:
                v[col] = -row[free]
        basis.append(v)
    return basis


def reference_invert(mat):
    n = len(mat)
    aug = sparse_rows(mat)
    for i, row in enumerate(aug):
        row[n + i] = Fraction(1)
    rows, pivots = reference_rref_sparse(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return dense_rows(({k - n: x for k, x in row.items() if k >= n}
                       for row in rows), n)


def reference_symbolic_moment_entries(D):
    m, k = D.m, D.n - D.m
    flat = [{i * k + r: c for r, pairs in enumerate(coefficient)
             for i, c in pairs} for coefficient in D.pencil]
    basis = cleared_int_rows(dense_rows(reference_rref_sparse(flat)[0],
                                        m * k))
    return [[Poly.affine(0, [b[i * k + r] for b in basis]) for r in range(k)]
            for i in range(m)]


def reference_rank_certificate(D, x):
    m, k = D.m, D.n - D.m
    a_columns = moment._block_at(D, x)[0]
    image_rows, image_pivots = echelon(a_columns)
    w_rows, w_pivots = [], []
    steps = 0
    while True:
        residues = [dict(a) for a in a_columns]
        for residue in residues:
            reduce_in_place(residue, w_rows, w_pivots)
        U = cleared_int_rows(reference_nullspace(
            [[r.get(i, 0) for r in residues] for i in range(m)], k))
        products = []
        for u in U:
            support = [(j, uj) for j, uj in enumerate(u) if uj]
            for coefficient in D.pencil:
                w = {}
                for j, uj in support:
                    for i, c in coefficient[j]:
                        w[i] = w.get(i, 0) + c * uj
                if w:
                    products.append(w)
        rows, pivots = echelon(products)
        steps += 1
        for row in rows:
            outside = dict(row)
            reduce_in_place(outside, image_rows, image_pivots)
            if outside:
                return None
        if len(rows) == len(w_rows):
            return len(U), len(rows), steps
        w_rows, w_pivots = rows, pivots


# --- random inputs -----------------------------------------------------------

entries = st.one_of(
    st.just(0), st.just(0), st.just(0), st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def matrices(draw, n_rows=None, n_cols=None):
    """A sparse rational matrix as dense rows: zero rows, repeated rows and
    rows that are combinations of two others, so that pivots are missing,
    negative or not 1."""
    n_rows = draw(st.integers(0, 7)) if n_rows is None else n_rows
    n_cols = draw(st.integers(1, 7)) if n_cols is None else n_cols
    mat = [[draw(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows:
        index = st.integers(0, n_rows - 1)
        for dst, a, b, p, q in draw(st.lists(st.tuples(
                index, index, index, st.sampled_from([0, 1, -1, 3]),
                st.sampled_from([1, -2, Fraction(-3, 2)])), max_size=3)):
            mat[dst] = [p * x + q * y for x, y in zip(mat[a], mat[b])]
    return mat


@st.composite
def pencils(draw):
    """A stand-in datum whose n - m + 1 coefficient matrices are integer
    combinations of fewer base matrices, so that they are dependent."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    small = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
    bases = [[[draw(small) for _ in range(k)] for _ in range(m)]
             for _ in range(draw(st.integers(1, k + 1)))]
    mixes = [[draw(st.integers(-2, 2)) for _ in bases] for _ in range(k + 1)]
    block = [[tuple(sum(c * base[i][r] for c, base in zip(mix, bases))
                    for mix in mixes) for r in range(k)] for i in range(m)]
    return _hand_pencil(block)


def _points(D, rng):
    k = D.n - D.m
    return ([(0,) * k, (1,) * k]
            + [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(3)]
            + [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(k))])


# --- linalg ------------------------------------------------------------------


@settings(max_examples=400, deadline=None, database=None)
@given(mat=matrices())
def test_rref_and_nullspace_match_the_fraction_path(mat):
    # the integer rows over their pivot entries are the rref rows, and the
    # integer kernel over its free entries is the canonical kernel
    n_cols = len(mat[0]) if mat else 1
    sparse = sparse_rows(mat)
    rows, pivots = linalg.integer_rref(sparse)
    assert ([{k: Fraction(x, row[col]) for k, x in row.items()}
             for row, col in zip(rows, pivots)], pivots) \
        == reference_rref_sparse(sparse)
    kernel = linalg.integer_kernel(sparse, n_cols)
    assert all(type(x) is int for v in kernel for x in v.values())
    assert [[Fraction(v.get(k, 0), next(iter(v.values())))
             for k in range(n_cols)] for v in kernel] \
        == reference_nullspace(mat, n_cols)


@settings(max_examples=400, deadline=None, database=None)
@given(mat=matrices())
def test_integer_rows_are_the_cleared_rref_rows(mat):
    # primitive, with a positive pivot: exactly the rref row cleared to
    # integers, whatever the content of the rows it was reduced from
    rows, pivots = linalg.integer_rref(sparse_rows(mat))
    ref_rows, ref_pivots = reference_rref_sparse(sparse_rows(mat))
    assert pivots == ref_pivots
    assert rows == [cleared(row)[0] for row in ref_rows]
    assert all(type(x) is int for row in rows for x in row.values())


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_invert_matches_the_fraction_path(data):
    # the inverse read off the integer rows of (S | I) is a positive
    # integer multiple of the Fraction inverse
    n = data.draw(st.integers(1, 6))
    mat = data.draw(matrices(n_rows=n, n_cols=n))
    got = univariate._scaled_inverse(mat)
    try:
        expected = reference_invert(mat)
    except SingularMatrixError:
        assert got is None
        return
    e = next(x / y for gr, er in zip(got, expected)
             for x, y in zip(gr, er) if y)
    assert e > 0 and e.denominator == 1
    assert got == [[e * y for y in row] for row in expected]
    assert all(type(x) is int for row in got for x in row)


# --- moment ------------------------------------------------------------------


def wong_stage(D, x):
    """The Wong stage of ``moment.rank_certificate`` at x, run whether or
    not the pencil's image closes first."""
    return moment._wong_certificate(D, moment._block_at(D, x)[0])


@settings(max_examples=300, deadline=None, database=None)
@given(D=pencils(), seed=st.integers(0, 10 ** 6))
def test_random_pencils_match_the_fraction_path(D, seed):
    assert (poly.symbolic_moment_entries(D)
            == reference_symbolic_moment_entries(D))
    points = _points(D, random.Random(seed))
    k = D.n - D.m
    image = len(echelon(dict(pairs) for coefficient in D.pencil
                        for pairs in coefficient)[0])
    for x in points:
        assert wong_stage(D, x) == reference_rank_certificate(D, x)
        # the image stage decides where dim T is the rank at x, and no
        # proof bounds the rank below that of any point
        got = moment.rank_certificate(D, x)
        rank = moment.rank_at(D, x)
        assert got == ((k, rank, 0) if image == rank else wong_stage(D, x))
        if got is not None:
            assert all(moment.rank_at(D, y) <= k - (got[0] - got[1])
                       for y in points)


@pytest.mark.parametrize("problem", CHANGED_BASIS,
                         ids=[p.name for p in CHANGED_BASIS])
def test_random_basis_pencils_match_the_fraction_path(problem):
    D = _in_random_basis(problem)
    assert (poly.symbolic_moment_entries(D)
            == reference_symbolic_moment_entries(D))
    witness = oa.generic_h_orbit_dim(D).witness
    for x in [witness] + _points(D, random.Random(problem.name)):
        assert wong_stage(D, x) == reference_rank_certificate(D, x)
    assert reference_rank_certificate(D, witness) is not None


# --- the flag of C^inf -------------------------------------------------------


def _strictly_upper_plus_affine() -> oa.LieAlgebra:
    """n_5 (strictly upper triangular 5 x 5) + aff(1): C^inf = span{X} is
    below C^1, and g^(2) = span{E15} is not [C^1, C^inf] = 0."""
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    names = [f"E{i}{j}" for i, j in pairs] + ["A", "X"]
    brackets = {(f"E{i}{j}", f"E{j}{k}"): {f"E{i}{k}": 1}
                for i, j in pairs for j2, k in pairs if j2 == j}
    brackets[("A", "X")] = {"X": 1}
    return algebra.from_brackets("n5_aff", names, brackets)


def _stable_is_commutator() -> list[oa.LieAlgebra]:
    return [oa.parse(p.text).algebra for p in (
        _families.borel(4, "cartan"), _families.borel(5, "nilradical"),
        _families.diagonal(8, 1), _families.twist(1), _families.twist(2),
        _families.twist(3))]


def _in_a_random_basis(L: oa.LieAlgebra, seed) -> oa.LieAlgebra:
    return transform_algebra(L, random_invertible(random.Random(seed), L.dim))


FLAG_ALGEBRAS = ([(L, False) for L in _stable_is_commutator()]
                 + [(_strictly_upper_plus_affine(), True)])


@pytest.mark.parametrize("L, below", FLAG_ALGEBRAS,
                         ids=[L.name for L, _ in FLAG_ALGEBRAS])
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_the_flag_matches_the_one_built_from_c_inf(L, below, seed,
                                                   monkeypatch):
    if seed is not None:
        L = _in_a_random_basis(L, f"{L.name}-{seed}")
    commutator = algebra._commutator(L)
    _, stable = algebra._series(L, commutator, algebra._lower_central_step)
    assert (len(stable) < len(commutator)) is below
    reference = algebra._flag(L, commutator, stable)
    built = []
    flag = algebra._flag
    monkeypatch.setattr(algebra, "_flag", lambda *args: built.append(
        flag(*args)) or built[-1])
    report = algebra.structure_report(L)
    assert report.is_solvable and not report.is_nilpotent
    # the canonical bases but the twists' have a triangularising order,
    # which decides them with no flag; the flag is then built directly
    triangular = seed is None and not L.name.startswith("twist")
    assert algebra._ad_scan(L)[1] is triangular
    if triangular:
        assert built == []
        algebra._exponentiality(L, commutator, stable)
    [got] = built
    assert ([reference_rref_sparse(term) for term in got]
            == [reference_rref_sparse(term) for term in reference])
