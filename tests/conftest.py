"""Shared fixtures: corpus loading, frozen oracles, randomness helpers.

The ORACLES table below is the hand-derived ground truth for every bundled
problem file (adapted order, moment rows, generic rank, verdicts were all
worked out by hand from the structure constants before any code ran);
tests compare computed results against it, never the other way round.
"""

from __future__ import annotations

import importlib.util
import io
import random
import re
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import orbitadm as oa
from orbitadm import algebra, cli
from orbitadm.algebra import dense_vector
from orbitadm.problemfile import CONFIG_KEYS

from exact import dot, invert

CORPUS_NAMES = [
    "abelian_r3", "axb_f0", "axb_f1", "diag_2d", "grelaud",
    "h5_y1y2", "heisenberg_x", "heisenberg_yz", "heisenberg_z",
]

# name -> (d_tau, m, spectral, admissibility, unimodular)
ORACLES = {
    "abelian_r3":    (0, 0, "AbsolutelyContinuous",
                      "ConjecturallyNotAdmissible", True),
    "heisenberg_yz": (1, 2, "Singular", "NotAdmissible", True),
    "heisenberg_x":  (1, 1, "AbsolutelyContinuous",
                      "ConjecturallyNotAdmissible", True),
    "heisenberg_z":  (0, 1, "Singular", "NotAdmissible", True),
    "h5_y1y2":       (2, 2, "AbsolutelyContinuous",
                      "ConjecturallyNotAdmissible", True),
    "axb_f1":        (1, 1, "AbsolutelyContinuous", "Admissible", False),
    "axb_f0":        (0, 1, "Singular", "NotAdmissible", False),
    "diag_2d":       (1, 2, "Singular", "NotAdmissible", False),
    "grelaud":       (1, 1, "AbsolutelyContinuous", "Admissible", False),
}

FREE_NAMES = [n for n, (d, m, *_rest) in ORACLES.items() if d == m]


def load_bench_families():
    """The benchmark's generators (bench/families.py), loaded read-only;
    their answers are derived by hand."""
    path = Path(__file__).resolve().parents[1] / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("bench_families", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_problem(name: str) -> oa.ProblemFile:
    return oa.parse(cli.corpus_path(name).read_text())


def load_datum(name: str) -> oa.MonomialDatum:
    pf = load_problem(name)
    return oa.build_datum(pf.algebra, pf.subalgebra_rows, pf.functional_vals)


@pytest.fixture(scope="session")
def corpus_data():
    return {name: load_datum(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def corpus_problems():
    return {name: load_problem(name) for name in CORPUS_NAMES}


# ---------------------------------------------------------------------------
# algebra builders (independent of the corpus files)

def make_h3() -> oa.LieAlgebra:
    return oa.from_brackets("h3", ("X", "Y", "Z"), {("X", "Y"): {"Z": 1}})


def make_axb() -> oa.LieAlgebra:
    return oa.from_brackets("axb", ("A", "X"), {("A", "X"): {"X": 1}})


def make_abelian(n: int) -> oa.LieAlgebra:
    names = tuple(f"E{i}" for i in range(1, n + 1))
    return oa.from_brackets(f"abelian{n}", names, {})


def make_motion() -> oa.LieAlgebra:
    # ad A rotates the XY-plane: eigenvalues +/- i, not exponential
    return oa.from_brackets("motion", ("A", "X", "Y"),
                            {("A", "X"): {"Y": 1}, ("A", "Y"): {"X": -1}})


def make_sl2() -> oa.LieAlgebra:
    # [H,E]=2E, [H,F]=-2F, [E,F]=H: simple, hence not solvable
    return oa.from_brackets("sl2", ("H", "E", "F"),
                            {("H", "E"): {"E": 2}, ("H", "F"): {"F": -2},
                             ("E", "F"): {"H": 1}})


def make_skew3() -> oa.LieAlgebra:
    # [Y_i, X_j] = e_ij Z_ij with e skew: with h = span{Y_i} and f = 0, M(l)
    # is the generic 3 x 3 skew matrix in l(Z_12), l(Z_13), l(Z_23), of
    # rank 2 where its non-commutative rank is 3
    pairs = ((0, 1), (0, 2), (1, 2))
    brackets = {}
    for i, j in pairs:
        brackets[(f"Y{i}", f"X{j}")] = {f"Z{i}{j}": 1}
        brackets[(f"Y{j}", f"X{i}")] = {f"Z{i}{j}": -1}
    return oa.from_brackets(
        "skew3", [f"Y{i}" for i in range(3)] + [f"X{i}" for i in range(3)]
        + [f"Z{i}{j}" for i, j in pairs], brackets)


@pytest.fixture
def h3():
    return make_h3()


@pytest.fixture
def axb():
    return make_axb()


# ---------------------------------------------------------------------------
# randomness helpers

def random_rational(rng: random.Random, num_bound: int = 12,
                    den_bound: int = 5) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound),
                    rng.randint(1, den_bound))


def random_vector(rng: random.Random, n: int, **kw) -> tuple:
    return tuple(random_rational(rng, **kw) for _ in range(n))


def random_dyadic(rng: random.Random, scale: int = 16,
                  span: int = 48) -> Fraction:
    """Rational with a power-of-two denominator: converts to float exactly."""
    return Fraction(rng.randint(-span, span), scale)


def random_dyadic_vector(rng: random.Random, n: int) -> tuple:
    return tuple(random_dyadic(rng) for _ in range(n))


def random_invertible(rng: random.Random, n: int):
    """Invertible rational n x n matrix via random elementary operations."""
    mat = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        coeff = random_rational(rng, 3, 2)
        mat[i] = [a + coeff * b for a, b in zip(mat[i], mat[j])]
    order = list(range(n))
    rng.shuffle(order)
    return [mat[i] for i in order]


def algebra_from_table(name: str, names, c) -> oa.LieAlgebra:
    """The algebra whose dense table is c[i][j][k], read entry by entry, so a
    table that breaks antisymmetry keeps its fault."""
    return algebra.from_constants(name, names, {
        (i, j): dict(enumerate(w)) for i, plane in enumerate(c)
        for j, w in enumerate(plane)})


def dense_table(L: oa.LieAlgebra) -> tuple:
    """The dense table c[i][j][k] of L: [Z_i, Z_j] = sum_k c[i][j][k] Z_k."""
    return tuple(tuple(dense_vector(pairs, L.dim) for pairs in plane)
                 for plane in L.nonzero)


def transform_algebra(L: oa.LieAlgebra, Q) -> oa.LieAlgebra:
    """Structure constants in the basis whose rows (in old coords) are Q:
    [Q_i, Q_j] Q^-1, with Q^-1 = inv / d for an integer matrix inv, so each
    constant is one integer sum over one denominator."""
    Qinv = invert(Q)
    d = lcm(*(x.denominator for row in Qinv for x in row))
    inv = [[x.numerator * (d // x.denominator) for x in row] for row in Qinv]
    n = L.dim
    table = []
    for i in range(n):
        plane = []
        for j in range(n):
            w = oa.bracket(L, Q[i], Q[j])
            dw = lcm(*(x.denominator for x in w))
            terms = [(inv[k], x.numerator * (dw // x.denominator))
                     for k, x in enumerate(w) if x]
            plane.append(tuple(
                Fraction(sum(row[c] * x for row, x in terms), d * dw)
                for c in range(n)))
        table.append(tuple(plane))
    return algebra_from_table(L.name + "_chg", L.basis_names, table)


def moment_reference(D: oa.MonomialDatum, l) -> tuple:
    """M(l)[i][j] = l([Y_i, B_j]) straight from the definition, for any l in
    g*; the reference the datum's pencil is checked against."""
    L = D.algebra
    return tuple(tuple(dot(l, oa.bracket(L, y, b)) for b in D.adapted_rows)
                 for y in D.generators)


def moment_float(D: oa.MonomialDatum, l_float) -> np.ndarray:
    """Moment matrix from a floating functional (for transported points)."""
    return np.array(moment_reference(D, l_float),
                    dtype=float).reshape(D.m, D.n)


# ---------------------------------------------------------------------------
# CLI helper

def run_cli(*argv, env_seed=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if env_seed is not None:
        assert monkeypatch is not None
        monkeypatch.setenv(cli.SEED_ENV_VAR, str(env_seed))
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


ROUNDTRIP_ALGEBRAS = ([make_h3(), make_axb(), make_motion(), make_sl2()]
                      + [load_problem(name).algebra for name in CORPUS_NAMES])

small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def problem_texts(draw):
    """A problem file over a Lie algebra in a random rational basis, and its
    text: serialized, or with a `bracket X Y = 0 * Z` line for a pair whose
    bracket is zero."""
    L = draw(st.sampled_from(ROUNDTRIP_ALGEBRAS))
    seed = draw(st.integers(0, 10 ** 6))
    L = transform_algebra(L, random_invertible(random.Random(seed), L.dim))
    vector = st.lists(small_rationals, min_size=L.dim, max_size=L.dim)
    m = draw(st.integers(0, L.dim))
    rows = tuple(tuple(draw(vector)) for _ in range(m))
    vals = tuple(draw(st.lists(small_rationals, min_size=m, max_size=m)))
    config = {}
    for key in draw(st.sets(st.sampled_from(sorted(CONFIG_KEYS)))):
        config[key] = draw(st.integers(-5, 500))
    pf = oa.ProblemFile(name=L.name, algebra=L, subalgebra_rows=rows,
                        functional_vals=vals, config=config)
    lines = oa.serialize(pf).splitlines(keepends=True)
    names = L.basis_names
    zero_pairs = [(i, j) for i in range(L.dim) for j in range(i + 1, L.dim)
                  if not L.nonzero[i][j]]
    if zero_pairs and draw(st.booleans()):
        i, j = draw(st.sampled_from(zero_pairs))
        k = draw(st.integers(0, L.dim - 1))
        lines.insert(3, f"bracket {names[i]} {names[j]} = 0 * {names[k]}\n")
    return pf, "".join(lines)


CORPUS_TEXTS = [cli.corpus_path(name).read_text() for name in CORPUS_NAMES]
# a form feed, NEL, a byte order mark and an Arabic-Indic digit are no line
# break, blank or digit of the format
FUZZ_CHARS = "AXYZabz019/-*+;,=# \t\n@_\f\x85\ufeff\u0661"
# digit runs past Python's 4300-digit limit for int()
FUZZ_LITERALS = ["9" * 4301, "1" * 5000]


@st.composite
def mutated_corpus_texts(draw):
    """A corpus text after one to four random edits of lines, characters
    or numbers."""
    lines = draw(st.sampled_from(CORPUS_TEXTS)).splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(
            ["delete_line", "repeat_line", "swap_lines", "delete_char",
             "insert_char", "replace_char", "huge_number"]))
        if not lines:
            break
        r = draw(st.integers(0, len(lines) - 1))
        if op == "delete_line":
            del lines[r]
        elif op == "repeat_line":
            lines.insert(r, lines[r])
        elif op == "swap_lines":
            s = draw(st.integers(0, len(lines) - 1))
            lines[r], lines[s] = lines[s], lines[r]
        elif op == "huge_number":
            spans = [m.span() for m in re.finditer(r"\d+", lines[r])]
            if spans:
                a, b = draw(st.sampled_from(spans))
                lines[r] = (lines[r][:a] + draw(
                    st.sampled_from(FUZZ_LITERALS)) + lines[r][b:])
        else:
            text = lines[r]
            c = draw(st.integers(0, len(text)))
            char = draw(st.sampled_from(FUZZ_CHARS))
            if op == "delete_char":
                text = text[:c] + text[c + 1:]
            elif op == "insert_char":
                text = text[:c] + char + text[c:]
            else:
                text = text[:c] + char + text[c + 1:]
            lines[r] = text
    return "".join(lines)
