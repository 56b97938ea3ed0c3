"""Deterministic report rendering.

The JSON document is the source of truth; the text rendering is the same
tree flattened to ``dotted.path: value`` lines, so the two stay in
field-for-field agreement by construction.  All ordering is fixed and all
values are rendered reproducibly, making repeated runs byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import StructureReport, format_combo
from .moment import StabilizerReport
from .problemfile import ProblemFile
from .verdict import RATIONALE_TEXT, FullReport

if TYPE_CHECKING:  # geometry imports numpy, which only `jacobian` needs
    from .geometry import JacobianReport


def _combo_strings(rows, basis_names) -> list:
    return [format_combo(enumerate(row), basis_names) for row in rows]


def report_dict(rep: FullReport) -> dict:
    L = rep.datum.algebra
    structure = {
        "algebra": L.name,
        "dim": L.dim,
        "basis": list(L.basis_names),
        "generators": [format_combo(terms, L.basis_names)
                       for terms in rep.datum.generator_terms],
        "functional": [str(v) for v in rep.datum.f_vals],
        "is_valid": not rep.structure.violations,
        "is_solvable": rep.structure.is_solvable,
        "derived_series_dims": list(rep.structure.derived_series_dims),
        "lower_central_dims": list(rep.structure.lower_central_dims),
        "is_nilpotent": rep.structure.is_nilpotent,
        "is_unimodular": rep.structure.is_unimodular,
        "exponentiality": rep.structure.exponentiality,
    }
    free = rep.generic.d_tau == rep.datum.m
    return {
        "structure": structure,
        "d_tau": rep.generic.d_tau,
        "m": rep.datum.m,
        "witness": [str(v) for v in rep.generic.witness] if free else None,
        "spectral": rep.spectral,
        "admissibility": {
            "status": rep.admissibility,
            "unimodular": rep.structure.is_unimodular,
            "rationale": rep.rationale,
            "rationale_text": RATIONALE_TEXT[rep.rationale],
        },
        "warnings": list(rep.warnings),
        "seed": rep.generic.seed,
        "trials": rep.generic.trials,
    }


def _scalar(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _flatten(prefix: str, value, lines: list) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            path = f"{prefix}.{key}" if prefix else key
            _flatten(path, item, lines)
    elif isinstance(value, list):
        lines.append(f"{prefix}: "
                     + json.dumps(value, separators=(", ", ": ")))
    else:
        lines.append(f"{prefix}: {_scalar(value)}")


def _text(tree: dict) -> str:
    lines: list = []
    _flatten("", tree, lines)
    return "\n".join(lines) + "\n"


def render_json(rep: FullReport) -> str:
    return json.dumps(report_dict(rep), indent=2) + "\n"


def render_text(rep: FullReport) -> str:
    return _text(report_dict(rep))


def render_stabilizer_text(sr: StabilizerReport, basis_names) -> str:
    return _text({
        "point": [str(v) for v in sr.point],
        "rank_M": sr.rank_M,
        "dim_H_orbit": sr.rank_M,
        "h_stab_basis": _combo_strings(sr.h_stab_basis, basis_names),
        "dim_G_orbit": sr.dim_G_orbit,
        "g_stab_basis": _combo_strings(sr.g_stab_basis, basis_names),
    })


def render_jacobian_text(jr: JacobianReport, point, h: float,
                         rel_tol: float) -> str:
    return _text({
        "point": [str(Fraction(v)) for v in point],
        "step": h,
        "rank_tolerance": rel_tol,
        "max_dev_topleft": jr.max_dev_topleft,
        "max_dev_topright": jr.max_dev_topright,
        "max_dev_bottomright": jr.max_dev_bottomright,
        "numerical_rank_J": jr.numerical_rank_J,
        "expected_rank": jr.expected_rank,
        "rank_matches": jr.numerical_rank_J == jr.expected_rank,
    })


def render_problem_summary(pf: ProblemFile,
                           structure: StructureReport) -> str:
    """The problem and its structural class, as `validate` prints them."""
    L = pf.algebra
    return _text({
        "algebra": pf.name,
        "dim": L.dim,
        "basis": " ".join(L.basis_names),
        "generators": _combo_strings(pf.subalgebra_rows, L.basis_names),
        "functional": [str(v) for v in pf.functional_vals],
        "is_solvable": structure.is_solvable,
        "is_nilpotent": structure.is_nilpotent,
        "is_unimodular": structure.is_unimodular,
        "exponentiality": structure.exponentiality,
    })
