import random
from fractions import Fraction

import pytest

import orbitadm as oa
from orbitadm import moment
from orbitadm import verdict as verdict_mod
from orbitadm.moment import GenericRankResult

from conftest import (CORPUS_NAMES, ORACLES, algebra_from_table, load_problem,
                      make_abelian, make_axb, make_h3, make_motion, make_sl2,
                      random_vector)


class TestSpectralVerdict:
    def test_free_is_absolutely_continuous(self, axb):
        D = oa.build_datum(axb, [axb.vector(X=1)], [1])
        G = oa.generic_h_orbit_dim(D, seed=0)
        S = oa.spectral_verdict(D, G)
        assert S.status == "AbsolutelyContinuous"
        assert S.d_tau == S.m == 1
        assert S.witness is not None

    def test_stuck_rank_is_singular(self, h3):
        D = oa.build_datum(h3, [h3.vector(Y=1), h3.vector(Z=1)], [0, 1])
        S = oa.spectral_verdict(D, oa.generic_h_orbit_dim(D, seed=0))
        assert S.status == "Singular"
        assert S.witness is None

    def test_trivial_subalgebra_free(self, h3):
        D = oa.build_datum(h3, [], [])
        S = oa.spectral_verdict(D, oa.generic_h_orbit_dim(D, seed=0))
        assert S.status == "AbsolutelyContinuous" and S.m == 0


class TestAdmissibilityVerdict:
    def _spectral(self, status, d=1, m=1):
        wit = (Fraction(1),) if status == "AbsolutelyContinuous" else None
        return verdict_mod.SpectralVerdict(status=status, d_tau=d, m=m,
                                           witness=wit)

    def test_ac_nonunimodular_admissible(self):
        A = oa.admissibility_verdict(
            self._spectral("AbsolutelyContinuous"), unimodular=False)
        assert A.status == "Admissible"
        assert A.rationale == "free_and_nonunimodular"

    def test_singular_never_admissible(self):
        for unimod in (True, False):
            A = oa.admissibility_verdict(self._spectral("Singular", d=0),
                                         unimodular=unimod)
            assert A.status == "NotAdmissible"
            assert A.rationale == "singular_spectrum"

    def test_ac_unimodular_conjectural(self):
        A = oa.admissibility_verdict(
            self._spectral("AbsolutelyContinuous"), unimodular=True)
        assert A.status == "ConjecturallyNotAdmissible"
        assert A.rationale == "unimodular_free_conjectural"
        assert "unresolved" in verdict_mod.RATIONALE_TEXT[A.rationale]


class TestFullReport:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_oracles(self, name, corpus_problems):
        pf = corpus_problems[name]
        rep = oa.full_report(pf.algebra, pf.subalgebra_rows,
                             pf.functional_vals)
        d_tau, m, spectral, admis, unimod = ORACLES[name]
        assert rep.spectral.d_tau == d_tau
        assert rep.spectral.m == m
        assert rep.spectral.status == spectral
        assert rep.admissibility.status == admis
        assert rep.structure.is_unimodular == unimod
        assert rep.generic_symbolic.d_tau == rep.generic_probabilistic.d_tau

    def test_invalid_algebra_short_circuits(self, h3):
        table = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        table[0][1][2] = Fraction(1)  # [X,Y]=Z but [Y,X] missing: broken
        L = algebra_from_table("broken", ("X", "Y", "Z"), table)
        with pytest.raises(oa.InvalidAlgebraError):
            oa.full_report(L, [], [])

    def test_not_solvable_rejected(self):
        with pytest.raises(oa.StructuralPreconditionError):
            oa.full_report(make_sl2(), [], [])

    def test_exponentiality_witness_rejected(self):
        with pytest.raises(oa.StructuralPreconditionError) as exc:
            oa.full_report(make_motion(), [], [])
        assert exc.value.witness == make_motion().vector(A=1)
        assert "not exponential" in str(exc.value)
        assert "X = A" in str(exc.value)

    def test_exponentiality_override(self):
        # there is none: a group decided not exponential is always refused
        with pytest.raises(TypeError):
            oa.AnalysisConfig(assume_exponential=True)
        for seed in range(4):
            with pytest.raises(oa.StructuralPreconditionError):
                oa.full_report(make_motion(), [], [],
                               oa.AnalysisConfig(seed=seed))

    def test_force_symbolic_reports_symbolic_route(self, axb):
        cfg = oa.AnalysisConfig(force_symbolic=True)
        rep = oa.full_report(axb, [axb.vector(X=1)], [1], cfg)
        assert rep.generic.method == "symbolic"
        assert rep.spectral.status == "AbsolutelyContinuous"

    def test_large_dimension_certified_symbolically(self):
        L = make_abelian(9)
        rep = oa.full_report(L, [], [])
        assert rep.generic_symbolic.d_tau == 0
        assert rep.spectral.status == "AbsolutelyContinuous"
        # A x| R^9 with [A, X_i] = i X_i, h = span{X_i}, f = 1: d_tau = 1 < 9
        xs = [f"X{i}" for i in range(1, 10)]
        L = oa.from_brackets("diag9", ["A"] + xs,
                             {("A", x): {x: i} for i, x in enumerate(xs, 1)})
        rep = oa.full_report(L, [L.vector(**{x: 1}) for x in xs], [1] * 9)
        assert rep.generic_symbolic.d_tau == rep.generic.d_tau == 1
        assert rep.spectral.status == "Singular"
        assert not any("threshold" in w for w in rep.warnings)

    def test_work_limit_leaves_the_sampled_route_deciding(
            self, corpus_problems, monkeypatch):
        monkeypatch.setattr(moment, "SYMBOLIC_WORK_LIMIT", 0)
        pf = corpus_problems["h5_y1y2"]
        cfg = oa.AnalysisConfig(force_symbolic=True)
        rep = oa.full_report(pf.algebra, pf.subalgebra_rows,
                             pf.functional_vals, cfg)
        assert rep.generic_symbolic is None
        assert rep.generic.method == "probabilistic"
        assert rep.spectral.d_tau == ORACLES["h5_y1y2"][0]
        assert any("work limit" in w for w in rep.warnings)

    def test_large_dimension_forced_symbolic(self):
        L = make_abelian(9)
        cfg = oa.AnalysisConfig(force_symbolic=True)
        rep = oa.full_report(L, [], [], cfg)
        assert rep.generic.method == "symbolic"

    def test_disagreement_raises(self, axb, monkeypatch):
        def lying_probabilistic(D, trials=20, bound=10 ** 6, seed=0):
            return GenericRankResult(d_tau=0, witness=(Fraction(0),),
                                     method="probabilistic", is_free=False,
                                     trials=trials, seed=seed)
        monkeypatch.setattr(verdict_mod, "generic_h_orbit_dim",
                            lying_probabilistic)
        with pytest.raises(oa.DisagreementError):
            oa.full_report(axb, [axb.vector(X=1)], [1])

    def test_deterministic_given_config(self, corpus_problems):
        pf = corpus_problems["grelaud"]
        cfg = oa.AnalysisConfig(seed=9, trials=13, bound=5000)
        a = oa.full_report(pf.algebra, pf.subalgebra_rows,
                           pf.functional_vals, cfg)
        b = oa.full_report(pf.algebra, pf.subalgebra_rows,
                           pf.functional_vals, cfg)
        assert a == b

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_verdict_independent_of_seed(self, name, corpus_problems):
        pf = corpus_problems[name]
        outcomes = set()
        for seed in (0, 7, 123):
            rep = oa.full_report(pf.algebra, pf.subalgebra_rows,
                                 pf.functional_vals,
                                 oa.AnalysisConfig(seed=seed))
            outcomes.add((rep.spectral.status, rep.spectral.d_tau,
                          rep.admissibility.status))
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
            rep = oa.full_report(L, rows, f, oa.AnalysisConfig(trials=8))
            spectral = rep.spectral.status
            admis = rep.admissibility.status
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
