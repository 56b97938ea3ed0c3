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
not cover, and decide reads the table above into one report.  d_tau and
its proof come from ``moment.generic_h_orbit_dim``; nothing here ranks.
``decide`` imports ``moment`` when it runs, so ``check_problem`` alone,
as `validate` runs it, never loads it.
"""

from __future__ import annotations

from .algebra import (EXPONENTIAL, LieAlgebra, Record, StructureReport,
                      Violation, structure_report)
from .monomial import MonomialDatum, build_datum

# typing.TYPE_CHECKING, read by type checkers; typing is not imported
TYPE_CHECKING = False
if TYPE_CHECKING:  # `validate` runs check_problem alone, without moment
    from .moment import GenericRankResult

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


class AnalysisConfig:
    """The sampling settings of ``generic_h_orbit_dim``."""

    __slots__ = ("trials", "bound", "seed")

    def __init__(self, trials: int = 20, bound: int = 10 ** 6,
                 seed: int = 0):
        self.trials = trials
        self.bound = bound
        self.seed = seed


class FullReport(Record):
    """generic: the proven d_tau and its witness.  spectral:
    ABSOLUTELY_CONTINUOUS or SINGULAR.  rationale: a key into
    RATIONALE_TEXT."""

    __slots__ = _compared = ("datum", "structure", "generic", "spectral",
                             "admissibility", "rationale", "warnings")

    def __init__(self, datum: MonomialDatum, structure: StructureReport,
                 generic: GenericRankResult, spectral: str,
                 admissibility: str, rationale: str,
                 warnings: tuple[str, ...]):
        self.datum = datum
        self.structure = structure
        self.generic = generic
        self.spectral = spectral
        self.admissibility = admissibility
        self.rationale = rationale
        self.warnings = warnings


def check_problem(L: LieAlgebra, h_rows, f_vals
                  ) -> tuple[StructureReport, MonomialDatum]:
    """The structure and datum of (L, h, f), refused in one order: a table
    that breaks antisymmetry or Jacobi (InvalidAlgebraError), the datum
    errors of ``build_datum``, then StructuralPreconditionError when L is
    not solvable or is decided not exponential.  The generators h_rows are
    handed to ``build_datum`` as they are: {k: coefficient} term sums, such
    as a ProblemFile's generator_terms, or dense rows."""
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


def decide(structure: StructureReport, datum: MonomialDatum,
           config: AnalysisConfig = AnalysisConfig()) -> FullReport:
    """Read the verdict table off a checked datum: d_tau as
    ``generic_h_orbit_dim`` proves it, against m and unimodularity.  Past
    the elimination's work limit below d_tau = m a warning says the sampled
    rank decides (at d_tau = m the exact rank at the witness proves it)."""
    from .moment import generic_h_orbit_dim
    generic = generic_h_orbit_dim(datum, trials=config.trials,
                                  bound=config.bound, seed=config.seed)
    warnings = ()
    if generic.d_tau < datum.m:
        spectral, admissibility, rationale = (
            SINGULAR, NOT_ADMISSIBLE, "singular_spectrum")
        if generic.proof is None:
            warnings = ("symbolic elimination stopped at its work limit; "
                        "generic rank certified probabilistically only",)
    elif structure.is_unimodular:
        spectral, admissibility, rationale = (
            ABSOLUTELY_CONTINUOUS, CONJECTURALLY_NOT_ADMISSIBLE,
            "unimodular_free_conjectural")
    else:
        spectral, admissibility, rationale = (
            ABSOLUTELY_CONTINUOUS, ADMISSIBLE, "free_and_nonunimodular")
    return FullReport(datum=datum, structure=structure, generic=generic,
                      spectral=spectral, admissibility=admissibility,
                      rationale=rationale, warnings=warnings)


def full_report(L: LieAlgebra, h_rows, f_vals,
                config: AnalysisConfig = AnalysisConfig()) -> FullReport:
    """``check_problem``, then ``decide``: the whole analysis in one call."""
    return decide(*check_problem(L, h_rows, f_vals), config)
