"""Spectral and admissibility verdicts for the induced representation.

The decision rests on one geometric quantity: whether the generic H-orbit
dimension d_tau over the spectral variety reaches m = dim h, i.e. whether H
acts freely at some (equivalently, at Zariski-almost-every) point of A_tau.

    free somewhere      -> spectral measure absolutely continuous
    never free          -> spectral measure singular
    singular            -> no admissible vector (the representation cannot
                           embed into the regular representation)
    a.c. + nonunimodular-> admissible vectors exist
    a.c. + unimodular   -> conjectured: no admissible vector (open case)

full_report is two stages: check_problem refuses what the theorem does
not cover, and decide ranks the checked datum and reads the verdict table
into one report.  The rank is sampled, then proven: by the sampled route's
own certificate at its witness when it found one, otherwise by Bareiss
elimination over the polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (EXPONENTIAL, LieAlgebra, StructureReport, Violation,
                      structure_report)
from .linalg import WorkLimitError
from .moment import (GenericRankResult, generic_h_orbit_dim,
                     symbolic_generic_rank)
from .monomial import MonomialDatum, build_datum

ABSOLUTELY_CONTINUOUS = "AbsolutelyContinuous"
SINGULAR = "Singular"

ADMISSIBLE = "Admissible"
NOT_ADMISSIBLE = "NotAdmissible"
CONJECTURALLY_NOT_ADMISSIBLE = "ConjecturallyNotAdmissible"

RATIONALE_TEXT = {
    "free_and_nonunimodular":
        "the subgroup acts freely somewhere on the spectral variety and the "
        "group is nonunimodular, which characterizes admissibility",
    "singular_spectrum":
        "the spectral measure is singular, so the representation does not "
        "embed into the regular representation; admissibility needs that "
        "embedding regardless of unimodularity",
    "unimodular_free_conjectural":
        "unimodular case unresolved; conjectured to admit no admissible "
        "vector",
}


class InvalidAlgebraError(ValueError):
    def __init__(self, violations: tuple[Violation, ...], names):
        self.violations = violations
        lines = "; ".join(v.describe(tuple(names)) for v in violations)
        super().__init__(f"structure constants are inconsistent: {lines}")


class StructuralPreconditionError(RuntimeError):
    """Solvability or exponentiality failed; the analysis does not apply."""

    def __init__(self, reason: str, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(reason)


class DisagreementError(RuntimeError):
    """The sampled rank differs from the certified one — an internal bug."""

    def __init__(self, probabilistic: int, certified: int):
        self.probabilistic = probabilistic
        self.certified = certified
        super().__init__(
            f"generic rank mismatch: probabilistic {probabilistic} "
            f"vs certified {certified}")


class SamplingMissError(RuntimeError):
    """The sampled rank stayed below the certified one: every point drawn
    under the trials and bound settings fell where the rank drops."""


@dataclass(frozen=True)
class SpectralVerdict:
    status: str                      # ABSOLUTELY_CONTINUOUS or SINGULAR
    d_tau: int
    m: int
    witness: tuple[Fraction, ...] | None  # present iff absolutely continuous


@dataclass(frozen=True)
class AdmissibilityVerdict:
    status: str
    unimodular: bool
    rationale: str                   # key into RATIONALE_TEXT


def spectral_verdict(D: MonomialDatum, G: GenericRankResult) -> SpectralVerdict:
    if G.is_free:
        return SpectralVerdict(status=ABSOLUTELY_CONTINUOUS, d_tau=G.d_tau,
                               m=D.m, witness=G.witness)
    return SpectralVerdict(status=SINGULAR, d_tau=G.d_tau, m=D.m, witness=None)


def admissibility_verdict(S: SpectralVerdict,
                          unimodular: bool) -> AdmissibilityVerdict:
    if S.status == SINGULAR:
        return AdmissibilityVerdict(status=NOT_ADMISSIBLE,
                                    unimodular=unimodular,
                                    rationale="singular_spectrum")
    if unimodular:
        return AdmissibilityVerdict(status=CONJECTURALLY_NOT_ADMISSIBLE,
                                    unimodular=True,
                                    rationale="unimodular_free_conjectural")
    return AdmissibilityVerdict(status=ADMISSIBLE, unimodular=False,
                                rationale="free_and_nonunimodular")


@dataclass(frozen=True)
class AnalysisConfig:
    trials: int = 20
    bound: int = 10 ** 6
    seed: int = 0


@dataclass(frozen=True)
class FullReport:
    algebra: LieAlgebra
    datum: MonomialDatum
    structure: StructureReport
    generic: GenericRankResult       # the sampled route: d_tau and witness
    certified_rank: int | None       # proven d_tau; None: work limit hit
    spectral: SpectralVerdict
    admissibility: AdmissibilityVerdict
    warnings: tuple[str, ...]


def check_problem(L: LieAlgebra, h_rows, f_vals
                  ) -> tuple[StructureReport, MonomialDatum]:
    """The structure and datum of (L, h, f), refused in one order: a table
    that breaks antisymmetry or Jacobi (InvalidAlgebraError), the datum
    errors of ``build_datum``, then StructuralPreconditionError when L is
    not solvable or is decided not exponential."""
    structure = structure_report(L)
    if structure.violations:
        raise InvalidAlgebraError(structure.violations, L.basis_names)
    datum = build_datum(L, h_rows, f_vals)
    if not structure.is_solvable:
        raise StructuralPreconditionError(
            "the algebra is not solvable (derived series dims "
            f"{list(structure.derived_series_dims)}); the analysis applies "
            "only to exponential solvable groups")
    if structure.exponentiality != EXPONENTIAL:
        raise StructuralPreconditionError(
            "the algebra is not exponential, so the analysis does not apply: "
            + structure.exponentiality_reason,
            witness=structure.exponentiality_witness)
    return structure, datum


def _symbolic_rank(generic: GenericRankResult, datum: MonomialDatum,
                   config: AnalysisConfig, warnings: list) -> int | None:
    """The Bareiss rank, checked against the sampled one; None past the
    work limit."""
    try:
        symbolic_rank = symbolic_generic_rank(datum)
    except WorkLimitError:
        # at d_tau = m the exact rank at the witness already proves it
        if generic.d_tau < datum.m:
            warnings.append("symbolic elimination stopped at its work "
                            "limit; generic rank certified probabilistically "
                            "only")
        return None
    if symbolic_rank > generic.d_tau:
        raise SamplingMissError(
            f"the sampled rank {generic.d_tau} is below the certified "
            f"generic rank {symbolic_rank}: trials {config.trials} and bound "
            f"{config.bound} are too small for this problem; raise either")
    if symbolic_rank < generic.d_tau:
        raise DisagreementError(generic.d_tau, symbolic_rank)
    return symbolic_rank


def decide(structure: StructureReport, datum: MonomialDatum,
           config: AnalysisConfig = AnalysisConfig()) -> FullReport:
    """Rank a checked datum and read the verdicts.  The sampled route's
    exact rank at its witness proves d_tau >= rank; its certificate, when
    it found one, proves the rest, and a certificate for any other rank (no
    correct run gives that) raises DisagreementError.  Without one,
    Bareiss elimination certifies the rank: a sampled rank below it raises
    SamplingMissError, one above it DisagreementError, and past its work
    limit below d_tau = m a warning says the sampled rank decides."""
    warnings = []
    generic = generic_h_orbit_dim(datum, trials=config.trials,
                                  bound=config.bound, seed=config.seed)
    if generic.certificate is not None:
        dim_u, dim_w, _steps = generic.certificate
        certified_rank = datum.n - datum.m - (dim_u - dim_w)
        if certified_rank != generic.d_tau:
            raise DisagreementError(generic.d_tau, certified_rank)
    else:
        certified_rank = _symbolic_rank(generic, datum, config, warnings)

    spectral = spectral_verdict(datum, generic)
    admissibility = admissibility_verdict(spectral, structure.is_unimodular)
    return FullReport(
        algebra=datum.algebra,
        datum=datum,
        structure=structure,
        generic=generic,
        certified_rank=certified_rank,
        spectral=spectral,
        admissibility=admissibility,
        warnings=tuple(warnings),
    )


def full_report(L: LieAlgebra, h_rows, f_vals,
                config: AnalysisConfig = AnalysisConfig()) -> FullReport:
    """``check_problem``, then ``decide``: the whole analysis in one call."""
    return decide(*check_problem(L, h_rows, f_vals), config)
