import functools
import inspect
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitadm as oa
from orbitadm import moment
from orbitadm import verdict as verdict_mod
from orbitadm.report import render_json, render_text, report_dict

from conftest import (CORPUS_NAMES, ORACLES, algebra_from_table,
                      corpus_file, load_bench_families, load_problem,
                      make_abelian, make_axb, make_h3, make_motion,
                      make_skew3, make_sl2, random_vector, run_cli,
                      transform_algebra, vector)
from exact import dense_rows, dot, invert
from test_moment import CHANGED_BASIS, sampled_oracle


def _replaced(record, **changes):
    """A copy of ``record`` made by its class's constructor, with the
    arguments named in ``changes`` replaced."""
    names = inspect.signature(type(record)).parameters
    return type(record)(**{name: getattr(record, name) for name in names}
                        | changes)


def _decided(L, rows, f, unimodular=None):
    """decide on (L, h, f), with the structure's unimodularity optionally
    flipped: the verdict table reads no other structural field."""
    structure, datum = verdict_mod.check_problem(L, rows, f)
    if unimodular is not None:
        structure = _replaced(structure, is_unimodular=unimodular)
    return verdict_mod.decide(structure, datum)


def _no_proof_at_the_witness(monkeypatch):
    """Make every rank below m unproven at its witness, so that
    generic_h_orbit_dim falls back to Bareiss."""
    monkeypatch.setattr(moment, "_proof", lambda D, columns, rank: None)


class TestSpectralVerdict:
    def test_free_is_absolutely_continuous(self, axb):
        rep = _decided(axb, [vector(axb, X=1)], [1])
        assert rep.spectral == "AbsolutelyContinuous"
        assert rep.generic.d_tau == rep.datum.m == 1
        assert report_dict(rep)["witness"] == [str(v) for v
                                               in rep.generic.witness]

    def test_stuck_rank_is_singular(self, h3):
        rep = _decided(h3, [vector(h3, Y=1), vector(h3, Z=1)], [0, 1])
        assert rep.spectral == "Singular"
        assert report_dict(rep)["witness"] is None

    def test_trivial_subalgebra_free(self, h3):
        rep = _decided(h3, [], [])
        assert rep.spectral == "AbsolutelyContinuous" and rep.datum.m == 0


class TestAdmissibilityVerdict:
    def test_ac_nonunimodular_admissible(self, h3):
        rep = _decided(h3, [vector(h3, X=1)], [0], unimodular=False)
        assert rep.admissibility == "Admissible"
        assert rep.rationale == "free_and_nonunimodular"

    def test_singular_never_admissible(self, h3):
        for unimod in (True, False):
            rep = _decided(h3, [vector(h3, Y=1), vector(h3, Z=1)], [0, 1],
                           unimodular=unimod)
            assert rep.admissibility == "NotAdmissible"
            assert rep.rationale == "singular_spectrum"

    def test_ac_unimodular_conjectural(self, axb):
        rep = _decided(axb, [vector(axb, X=1)], [1], unimodular=True)
        assert rep.admissibility == "ConjecturallyNotAdmissible"
        assert rep.rationale == "unimodular_free_conjectural"
        assert "unresolved" in verdict_mod.RATIONALE_TEXT[rep.rationale]


class TestFullReport:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_oracles(self, name, corpus_problems, monkeypatch):
        def unreachable(D):
            raise AssertionError("Bareiss ran although a proof was found")
        monkeypatch.setattr(moment, "symbolic_generic_rank", unreachable)
        pf = corpus_problems[name]
        rep = oa.decide(*oa.check_problem(pf.algebra, pf.generator_terms,
                                          pf.functional_vals))
        d_tau, m, spectral, admis, unimod = ORACLES[name]
        assert rep.generic.d_tau == d_tau
        assert rep.datum.m == m
        assert rep.spectral == spectral
        assert rep.admissibility == admis
        assert rep.structure.is_unimodular == unimod
        assert isinstance(rep.generic.proof, tuple)

    def test_invalid_algebra_short_circuits(self, h3):
        table = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        table[0][1][2] = Fraction(1)  # [X,Y]=Z but [Y,X] missing: broken
        L = algebra_from_table("broken", ("X", "Y", "Z"), table)
        with pytest.raises(oa.InvalidAlgebraError):
            oa.decide(*oa.check_problem(L, [], []))

    def test_not_solvable_rejected(self):
        with pytest.raises(oa.StructuralPreconditionError):
            oa.decide(*oa.check_problem(make_sl2(), [], []))

    def test_exponentiality_witness_rejected(self):
        with pytest.raises(oa.StructuralPreconditionError) as exc:
            oa.decide(*oa.check_problem(make_motion(), [], []))
        assert exc.value.witness == vector(make_motion(), A=1)
        assert "not exponential" in str(exc.value)
        assert "X = A" in str(exc.value)

    def test_exponentiality_override(self):
        # there is none: a group decided not exponential is always refused
        with pytest.raises(TypeError):
            oa.AnalysisConfig(assume_exponential=True)
        for seed in range(4):
            with pytest.raises(oa.StructuralPreconditionError):
                oa.decide(*oa.check_problem(make_motion(), [], []),
                          oa.AnalysisConfig(seed=seed))

    def test_large_dimension_certified_symbolically(self, monkeypatch):
        L = make_abelian(9)
        rep = oa.decide(*oa.check_problem(L, [], []))
        assert rep.generic.d_tau == 0
        assert rep.spectral == "AbsolutelyContinuous"
        # A x| R^9 with [A, X_i] = i X_i, h = span{X_i}, f = 1: d_tau = 1 < 9
        xs = [f"X{i}" for i in range(1, 10)]
        L = oa.from_brackets("diag9", ["A"] + xs,
                             {("A", x): {x: i} for i, x in enumerate(xs, 1)})
        _no_proof_at_the_witness(monkeypatch)
        rep = oa.decide(*oa.check_problem(
            L, [vector(L, **{x: 1}) for x in xs], [1] * 9))
        assert rep.generic.proof == "bareiss"
        assert rep.generic.d_tau == 1
        assert rep.spectral == "Singular"
        assert not any("threshold" in w for w in rep.warnings)

    def test_work_limit_leaves_the_sampled_route_deciding(
            self, corpus_problems, monkeypatch):
        monkeypatch.setattr(moment, "SYMBOLIC_WORK_LIMIT", 0)
        _no_proof_at_the_witness(monkeypatch)
        # Singular: d_tau < m rests on the sampled points alone
        pf = oa.parse(load_bench_families().borel(4, "nilradical").text)
        rep = oa.decide(*oa.check_problem(pf.algebra, pf.generator_terms,
                                          pf.functional_vals))
        assert rep.generic.proof is None
        assert (rep.generic.d_tau, rep.datum.m) == (3, 6)
        assert any("work limit" in w for w in rep.warnings)
        # free: the exact rank m at the witness proves d_tau = m, so an
        # unproven result there carries no warning
        sampled = moment.generic_h_orbit_dim
        monkeypatch.setattr(
            moment, "generic_h_orbit_dim",
            lambda *args, **kw: _replaced(sampled(*args, **kw), proof=None))
        pf = corpus_problems["h5_y1y2"]
        rep = oa.decide(*oa.check_problem(pf.algebra, pf.generator_terms,
                                          pf.functional_vals))
        assert rep.generic.proof is None
        assert rep.generic.d_tau == ORACLES["h5_y1y2"][0] == rep.datum.m
        assert rep.warnings == ()

    def test_disagreement_raises(self, h3, monkeypatch):
        # a sampled rank is the exact rank at a point, so it never exceeds
        # the generic rank: above the Bareiss one it is a bug
        _no_proof_at_the_witness(monkeypatch)
        monkeypatch.setattr(moment, "symbolic_generic_rank", lambda D: 0)
        with pytest.raises(oa.DisagreementError,
                           match="probabilistic 1 vs certified 0"):
            oa.decide(*oa.check_problem(
                h3, [vector(h3, Y=1), vector(h3, Z=1)], [0, 1]))

    def test_sampling_miss_raises(self, axb, monkeypatch):
        # below the Bareiss rank it only means the sample missed
        _no_proof_at_the_witness(monkeypatch)
        monkeypatch.setattr(moment, "_block_at", lambda D, x: ([{}], 1))
        with pytest.raises(oa.SamplingMissError,
                           match="trials 3 and bound 7 are too small"):
            oa.decide(*oa.check_problem(axb, [vector(axb, X=1)], [1]),
                      oa.AnalysisConfig(trials=3, bound=7))

    def test_skew_pencil_falls_back_to_bareiss(self, monkeypatch):
        # M(l) has rank 2 where its non-commutative rank is 3 (see
        # make_skew3), so no certificate closes and the elimination decides
        L = make_skew3()
        ran = []
        symbolic = moment.symbolic_generic_rank
        monkeypatch.setattr(moment, "symbolic_generic_rank",
                            lambda D: ran.append(D) or symbolic(D))
        rep = oa.decide(*oa.check_problem(
            L, [vector(L, **{f"Y{i}": 1}) for i in range(3)], [0, 0, 0]))
        assert rep.generic.proof == "bareiss" and len(ran) == 1
        assert rep.generic.d_tau == 2
        assert rep.spectral == "Singular"
        assert sampled_oracle(rep.datum) == (rep.generic.d_tau,
                                             rep.generic.witness)

    def test_checks_refuse_in_one_order(self):
        # table, then (h, f), then solvability: sl2 with h = span{E, F} is
        # not closed, since [E, F] = H
        broken = oa.parse((Path(__file__).parent / "fixtures"
                           / "broken_jacobi.alg").read_text())
        check = verdict_mod.check_problem
        with pytest.raises(oa.InvalidAlgebraError):
            check(broken.algebra, [(1, 0, 0), (0, 1, 0)], [0, 0])
        sl2 = make_sl2()
        E, F = vector(sl2, E=1), vector(sl2, F=1)
        with pytest.raises(oa.NotClosedError):
            check(sl2, [E, F], [0, 0])
        with pytest.raises(oa.StructuralPreconditionError,
                           match=r"not solvable \(derived series dims \[3\]\)"):
            check(sl2, [E], [0])

    @pytest.mark.parametrize("flags", [(), ("--json",)],
                             ids=["text", "json"])
    def test_verdict_command_is_the_check_then_decide(self, flags,
                                                      corpus_problems):
        pf = corpus_problems["grelaud"]
        cfg = oa.AnalysisConfig(**{**pf.config, "seed": 3})
        rep = oa.decide(*oa.check_problem(pf.algebra, pf.generator_terms,
                                          pf.functional_vals), cfg)
        code, out, err = run_cli("verdict", str(corpus_file("grelaud")),
                                 "--seed", "3", *flags)
        assert (code, err) == (0, "")
        assert out == (render_json(rep) if flags else render_text(rep))

    def test_deterministic_given_config(self, corpus_problems):
        pf = corpus_problems["grelaud"]
        cfg = oa.AnalysisConfig(seed=9, trials=13, bound=5000)
        checked = oa.check_problem(pf.algebra, pf.generator_terms,
                                   pf.functional_vals)
        assert oa.decide(*checked, cfg) == oa.decide(*checked, cfg)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_verdict_independent_of_seed(self, name, corpus_problems):
        pf = corpus_problems[name]
        outcomes = set()
        for seed in (0, 7, 123):
            rep = oa.decide(*oa.check_problem(pf.algebra, pf.generator_terms,
                                              pf.functional_vals),
                            oa.AnalysisConfig(seed=seed))
            outcomes.add((rep.spectral, rep.generic.d_tau,
                          rep.admissibility))
        assert len(outcomes) == 1


class TestConsistencyTable:
    """Randomized data never violate the two verdict implications."""

    def _random_data(self):
        rng = random.Random(20240815)
        algebras = [make_h3(), make_axb(), make_abelian(3),
                    load_problem("h5_y1y2").algebra,
                    load_problem("diag_2d").algebra,
                    load_problem("grelaud").algebra]
        produced = 0
        while produced < 200:
            L = algebras[rng.randrange(len(algebras))]
            style = rng.random()
            if style < 0.15:
                rows, f = [], []
            else:
                v = random_vector(rng, L.dim, num_bound=4, den_bound=2)
                if all(x == 0 for x in v):
                    continue
                rows = [v]
                f = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))]
            produced += 1
            yield L, rows, f

    def test_never_inconsistent(self):
        seen_ac = seen_sing = 0
        for L, rows, f in self._random_data():
            rep = oa.decide(*oa.check_problem(L, rows, f),
                            oa.AnalysisConfig(trials=8))
            spectral = rep.spectral
            admis = rep.admissibility
            if spectral == "Singular":
                seen_sing += 1
                assert admis == "NotAdmissible"
            else:
                seen_ac += 1
                if rep.structure.is_unimodular:
                    assert admis == "ConjecturallyNotAdmissible"
                else:
                    assert admis == "Admissible"
        # the random stream must actually exercise both branches
        assert seen_ac >= 20 and seen_sing >= 20


# name -> problem file: the corpus, and families of dimension 9..21
METAMORPHIC = {**{name: load_problem(name) for name in CORPUS_NAMES},
               **{p.name: oa.parse(p.text) for p in CHANGED_BASIS}}

nonzero_rationals = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]),
                              st.integers(1, 3))


@st.composite
def invertible_matrices(draw, n):
    """Rational GL_n: n to 2n row additions on the identity, then nonzero
    row scales and a row permutation."""
    mat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    for i, j, c in draw(st.lists(st.tuples(index, index, nonzero_rationals),
                                 min_size=n, max_size=2 * n)):
        if i != j:
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    scales = draw(st.lists(nonzero_rationals, min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    return [[s * v for v in mat[k]] for k, s in zip(order, scales)]


def _decisions(L, rows, f) -> tuple:
    rep = oa.decide(*oa.check_problem(L, rows, f))
    return (rep.generic.d_tau, rep.spectral, rep.admissibility,
            rep.structure.is_unimodular, rep.structure.exponentiality)


@functools.cache
def _decisions_of(name) -> tuple:
    pf = METAMORPHIC[name]
    return _decisions(pf.algebra, pf.generator_terms, pf.functional_vals)


def _change_basis_of_g(name, data) -> None:
    pf = METAMORPHIC[name]
    Q = data.draw(invertible_matrices(pf.algebra.dim), label="Q")
    Qinv = invert(Q)
    # the generators in the new coordinates: r' = r . Q^{-1}
    rows = [[dot(r, col) for col in zip(*Qinv)]
            for r in dense_rows(pf.generator_terms, pf.algebra.dim)]
    assert _decisions(transform_algebra(pf.algebra, Q), rows,
                      pf.functional_vals) == _decisions_of(name)


def _change_generators_of_h(name, data) -> None:
    pf = METAMORPHIC[name]
    A = data.draw(invertible_matrices(pf.m), label="A")
    rows = [[dot(a, col) for col in
             zip(*dense_rows(pf.generator_terms, pf.algebra.dim))] for a in A]
    f = [dot(a, pf.functional_vals) for a in A]
    assert _decisions(pf.algebra, rows, f) == _decisions_of(name)


LARGE = [p.name for p in CHANGED_BASIS]


class TestVerdictInvariance:
    """Every reported decision is a property of (g, h, f), not of the bases
    the file writes them in.  A change of basis makes a family's tables
    dense, so the families get fewer examples."""

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    @settings(max_examples=20, deadline=None, database=None)
    @given(data=st.data())
    def test_change_of_basis_of_g(self, name, data):
        _change_basis_of_g(name, data)

    @pytest.mark.parametrize("name", LARGE)
    @settings(max_examples=15, deadline=None, database=None)
    @given(data=st.data())
    def test_change_of_basis_of_g_large(self, name, data):
        _change_basis_of_g(name, data)

    @pytest.mark.parametrize("name",
                             [n for n in CORPUS_NAMES if ORACLES[n][1] > 0])
    @settings(max_examples=20, deadline=None, database=None)
    @given(data=st.data())
    def test_change_of_generators_of_h(self, name, data):
        _change_generators_of_h(name, data)

    @pytest.mark.parametrize("name", LARGE)
    @settings(max_examples=35, deadline=None, database=None)
    @given(data=st.data())
    def test_change_of_generators_of_h_large(self, name, data):
        _change_generators_of_h(name, data)
