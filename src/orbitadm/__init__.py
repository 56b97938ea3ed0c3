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
of the coadjoint action map), computes in plain Python floats: the package
needs nothing outside the standard library.

Importing orbitadm loads no submodule.  Each name below is imported from
its module on first use, through ``_EXPORTS``, so a program, and each
command of ``cli``, compiles only the modules it runs: ``geometry`` for
the names of the Jacobian check alone, ``pointwise`` for the readers of one
chart point.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names it exports here
_EXPORTS = {
    "algebra": "LieAlgebra Violation StructureReport DimensionMismatchError "
               "from_brackets validate structure_report DisagreementError "
               "SamplingMissError",
    "pointwise": "bracket ad_matrix point_on_variety adapted_dual_coords "
                 "StabilizerReport moment_matrix skew_form_matrix "
                 "stabilizer_report",
    "monomial": "MonomialDatum RankDeficientError NotClosedError "
                "NotACharacterError build_datum",
    "moment": "GenericRankResult rank_at generic_h_orbit_dim "
              "rank_certificate symbolic_generic_rank",
    "linalg": "WorkLimitError",
    "verdict": "FullReport AnalysisConfig InvalidAlgebraError "
               "StructuralPreconditionError full_report",
    "geometry": "JacobianReport expm ad_exp coadjoint_apply "
                "coadjoint_apply_factors phi_in_chart fd_jacobian "
                "numerical_rank",
    "problemfile": "ProblemFile ParseError parse serialize",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module("." + module, __name__), name)


__all__ = [*_MODULE_OF, "__version__"]
