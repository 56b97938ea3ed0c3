"""Acceptance gate: seven end-to-end criteria, one test (and one
pass/fail line) each.  Everything here runs against the bundled corpus
through the public API only, with hand-derived expected values."""

import random
from fractions import Fraction

import numpy as np

import orbitadm as oa

from conftest import (CORPUS_NAMES, FREE_NAMES, ORACLES, load_datum,
                      load_problem, moment_reference, random_dyadic,
                      random_dyadic_vector, random_invertible, random_vector,
                      run_cli, transform_algebra)
from exact import dot, invert, rank
from orbitadm.cli import corpus_path
from orbitadm.geometry import coadjoint_apply_factors

CONFIG = oa.AnalysisConfig(trials=20, bound=10 ** 6, seed=0)


def full(name: str) -> oa.FullReport:
    pf = load_problem(name)
    return oa.full_report(pf.algebra, pf.subalgebra_rows, pf.functional_vals,
                          CONFIG)


def test_criterion_1_classical_axb_wavelet():
    # f(X) = 1: free generic action, nonunimodular group -> admissible
    rep = full("axb_f1")
    assert rep.spectral == "AbsolutelyContinuous"
    assert rep.generic.d_tau == 1 == rep.datum.m
    assert rep.admissibility == "Admissible"

    # f(X) = 0: the moment row vanishes identically on A_tau
    rep0 = full("axb_f0")
    assert rep0.spectral == "Singular"
    assert rep0.generic.d_tau == 0
    assert rep0.admissibility == "NotAdmissible"

    # hand-derived moment row (0, -l(X)) at every point of both varieties
    for name, fval in (("axb_f1", Fraction(1)), ("axb_f0", Fraction(0))):
        D = load_datum(name)
        for x in (Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(1, 3)):
            assert oa.moment_matrix(D, (x,)) == ((Fraction(0), -fval),)
    print("ACCEPTANCE 1 (classical ax+b instance): PASS")


def test_criterion_2_heisenberg_triple():
    expected = {
        "heisenberg_yz": ("Singular", 1, 2, "NotAdmissible"),
        "heisenberg_x": ("AbsolutelyContinuous", 1, 1,
                         "ConjecturallyNotAdmissible"),
        "heisenberg_z": ("Singular", 0, 1, "NotAdmissible"),
    }
    for name, (spectral, d_tau, m, adm) in expected.items():
        rep = full(name)
        assert rep.spectral == spectral, name
        assert rep.generic.d_tau == d_tau, name
        assert rep.datum.m == m, name
        assert rep.admissibility == adm, name
        assert rep.structure.is_unimodular
    print("ACCEPTANCE 2 (Heisenberg triple): PASS")


def test_criterion_3_derivative_block_structure():
    rng = random.Random(1848)
    for name in CORPUS_NAMES:
        D = load_datum(name)
        for _ in range(20):
            # dyadic coordinates in [-3, 3]: exact as floats
            x = tuple(random_dyadic(rng, scale=16, span=48)
                      for _ in range(D.n - D.m))
            jr = oa.fd_jacobian(D, x, h=1e-4, rel_tol=1e-8)
            assert jr.max_dev_topleft < 1e-6, name
            assert jr.max_dev_topright < 1e-6, name
            assert jr.max_dev_bottomright < 1e-9, name
            # independent exact route for the expected rank
            l = oa.point_on_variety(D, x)
            exact = rank(moment_reference(D, l))
            assert jr.numerical_rank_J == exact + D.n - D.m, name
    print("ACCEPTANCE 3 (derivative block structure, 20 points/datum): PASS")


def test_criterion_4_probabilistic_equals_symbolic():
    disagreements = 0
    for name in CORPUS_NAMES:
        D = load_datum(name)
        certified = oa.symbolic_generic_rank(D)
        for seed in range(100):
            got = oa.generic_h_orbit_dim(D, trials=20, bound=10 ** 6,
                                         seed=seed).d_tau
            if got != certified:
                disagreements += 1
    assert disagreements == 0
    print("ACCEPTANCE 4 (probabilistic vs symbolic rank, 100 seeds): PASS")


def test_criterion_5_invariant_suites():
    # (a) antisymmetry + Jacobi, exactly, 100 random triples per algebra
    for name in CORPUS_NAMES:
        L = load_problem(name).algebra
        rng = random.Random(900 + L.dim)
        zero = (Fraction(0),) * L.dim
        for _ in range(100):
            u, v, w = (random_vector(rng, L.dim) for _ in range(3))
            assert oa.bracket(L, u, v) == tuple(
                -t for t in oa.bracket(L, v, u))
            cyclic = [oa.bracket(L, oa.bracket(L, a, b), c)
                      for a, b, c in ((u, v, w), (v, w, u), (w, u, v))]
            assert tuple(sum(col) for col in zip(*cyclic)) == zero

    # (b) dim G.l even and (c) h-stabilizer inside g-stabilizer, >=1000 pts
    even_checked = 0
    for name in CORPUS_NAMES:
        D = load_datum(name)
        rng = random.Random(1000 + D.n)
        for _ in range(120):
            sr = oa.stabilizer_report(D, random_vector(rng, D.n - D.m))
            assert sr.dim_G_orbit % 2 == 0
            g_rows = [list(v) for v in sr.g_stab_basis]
            for v in sr.h_stab_basis:
                assert rank(g_rows + [list(v)]) == len(g_rows)
            even_checked += 1
    assert even_checked >= 1000

    # (d) the spectral variety is pointwise H-invariant: moving l by any
    # subgroup element keeps every generator value at f_j
    for name in CORPUS_NAMES:
        D = load_datum(name)
        if D.m == 0:
            continue
        L = D.algebra
        rng = random.Random(1100 + D.n)
        gen_floats = [np.array([float(c) for c in row])
                      for row in D.generators]
        f_floats = [float(v) for v in D.f_vals]
        for _ in range(100):
            l = [float(v) for v in oa.point_on_variety(
                D, random_dyadic_vector(rng, D.n - D.m))]
            factors = [(D.generators[i], float(random_dyadic(rng)))
                       for i in range(D.m)]
            moved = coadjoint_apply_factors(L, factors, l)
            for row, fj in zip(gen_floats, f_floats):
                assert abs(float(moved @ row) - fj) < 1e-8

    # (e) generic rank is basis-independent: 10 changes x 20 points each
    for name in CORPUS_NAMES:
        pf = load_problem(name)
        L, D0 = pf.algebra, load_datum(name)
        rng = random.Random(1200 + L.dim)
        for _ in range(10):
            Q = random_invertible(rng, L.dim)
            Qinv = invert(Q)
            L2 = transform_algebra(L, Q)
            rows2 = [tuple(dot(r, col) for col in zip(*Qinv))
                     for r in pf.subalgebra_rows]
            D2 = oa.build_datum(L2, rows2, pf.functional_vals)
            for _ in range(20):
                x = random_vector(rng, D0.n - D0.m, num_bound=30)
                l = oa.point_on_variety(D0, x)
                l2 = tuple(dot(l, Q[i]) for i in range(L.dim))
                x2 = oa.adapted_dual_coords(D2, l2)[D2.m:]
                assert oa.rank_at(D0, x) == oa.rank_at(D2, x2)
    print("ACCEPTANCE 5 (invariant suites): PASS")


def test_criterion_6_zariski_genericity():
    for name in FREE_NAMES:
        D = load_datum(name)
        rng = random.Random(2026)
        hits = sum(
            1 for _ in range(1000)
            if oa.rank_at(D, tuple(
                Fraction(rng.randint(-10 ** 6, 10 ** 6))
                for _ in range(D.n - D.m))) == D.m)
        assert hits >= 950, (name, hits)
    print("ACCEPTANCE 6 (>=95% of uniform samples attain the generic rank): "
          "PASS")


def test_criterion_7_byte_identical_reports():
    for name in CORPUS_NAMES:
        argv = ("verdict", str(corpus_path(name)), "--seed", "7", "--json")
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]
        assert first[1]  # nonempty report
    print("ACCEPTANCE 7 (deterministic reports, byte-identical): PASS")
