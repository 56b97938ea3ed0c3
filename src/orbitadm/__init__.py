"""orbitadm: spectral type and admissibility of induced representations.

Given an exponential solvable Lie group by rational structure constants, a
subalgebra h, and a character functional f, the induced ("monomial")
representation tau has a spectral measure that is either absolutely
continuous or singular with respect to Plancherel measure — decided by
whether the generic H-orbit dimension over the spectral variety
A_tau = f + h^perp reaches dim h — and tau admits a continuous-wavelet
admissible vector exactly in the nonunimodular absolutely continuous case
(the unimodular free case being conjecturally empty).

The computation is exact rational linear algebra end to end, including
the decision that the group is exponential.  The one floating-point part,
``geometry`` (a finite-difference cross-check of the derivative structure
of the coadjoint action map), is the only module that imports numpy; its
names below are imported on first use, so importing orbitadm does not load
numpy.  ``poly`` (the polynomials of the Bareiss fallback) and
``univariate`` (the root counts of the exponentiality decision) load on
first use too, so importing orbitadm loads neither.
"""

from .algebra import (DimensionMismatchError, LieAlgebra, StructureReport,
                      Violation, ad_matrix, bracket, from_brackets,
                      structure_report, validate)
from .linalg import WorkLimitError
from .moment import (DisagreementError, GenericRankResult, SamplingMissError,
                     StabilizerReport, generic_h_orbit_dim, moment_matrix,
                     rank_at, rank_certificate, skew_form_matrix,
                     stabilizer_report, symbolic_generic_rank)
from .monomial import (MonomialDatum, NotACharacterError, NotClosedError,
                       RankDeficientError, adapted_dual_coords, build_datum,
                       point_on_variety)
from .problemfile import ParseError, ProblemFile, parse, serialize
from .verdict import (AnalysisConfig, FullReport, InvalidAlgebraError,
                      StructuralPreconditionError, full_report)

__version__ = "0.1.0"

_GEOMETRY_NAMES = ("JacobianReport", "expm", "ad_exp", "coadjoint_apply",
                   "coadjoint_apply_factors", "phi_in_chart", "fd_jacobian",
                   "numerical_rank")


def __getattr__(name: str):
    if name in _GEOMETRY_NAMES:
        from . import geometry
        return getattr(geometry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "LieAlgebra", "Violation", "StructureReport", "DimensionMismatchError",
    "from_brackets", "validate", "bracket", "ad_matrix", "structure_report",
    "MonomialDatum", "RankDeficientError", "NotClosedError",
    "NotACharacterError", "build_datum",
    "point_on_variety", "adapted_dual_coords",
    "StabilizerReport", "GenericRankResult",
    "moment_matrix", "skew_form_matrix",
    "rank_at", "stabilizer_report", "generic_h_orbit_dim",
    "WorkLimitError",
    "rank_certificate", "symbolic_generic_rank",
    "DisagreementError", "SamplingMissError", "FullReport",
    "AnalysisConfig", "InvalidAlgebraError", "StructuralPreconditionError",
    "full_report",
    *_GEOMETRY_NAMES,
    "ProblemFile", "ParseError", "parse", "serialize",
    "__version__",
]
