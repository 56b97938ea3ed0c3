"""Deterministic report rendering.

The JSON document is the source of truth; the text rendering is the same
tree flattened to ``dotted.path: value`` lines, so the two stay in
field-for-field agreement by construction.  All ordering is fixed and all
values are rendered reproducibly, making repeated runs byte-identical.

Each value of a text line is printed as ``json`` encodes it, but
``_encode`` writes the ints, bools, None, lists and plain strings of a
report itself, so that a text report loads no ``json``; only
``render_json`` and the rare value it cannot write import it.  The
reports of one point, for `rank` and `jacobian`, are rendered in
``pointwise`` by ``_text``.
"""

from __future__ import annotations

from .algebra import StructureReport, format_combo
from .problemfile import ProblemFile
from .verdict import RATIONALE_TEXT, FullReport


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


def _encode(value) -> str:
    """``json.JSONEncoder(separators=(", ", ": ")).encode(value)``, the
    encoding of ``json.dumps`` with its default separators.  A string is
    quoted as it is only when every character is printable ASCII other
    than '"' and backslash, which json writes unescaped; any other string,
    and any value that is not an int, bool, None or list, goes to json."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return repr(value)
    if type(value) is list:
        return "[" + ", ".join(map(_encode, value)) + "]"
    if (type(value) is str and value.isascii() and value.isprintable()
            and '"' not in value and "\\" not in value):
        return f'"{value}"'
    import json
    return json.JSONEncoder(separators=(", ", ": ")).encode(value)


def _flatten(prefix: str, value, lines: list) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}" if prefix else key, item, lines)
    else:
        text = value if isinstance(value, str) else _encode(value)
        lines.append(f"{prefix}: {text}")


def _text(tree: dict) -> str:
    lines: list = []
    _flatten("", tree, lines)
    return "\n".join(lines) + "\n"


def render_json(rep: FullReport) -> str:
    import json
    return json.dumps(report_dict(rep), indent=2) + "\n"


def render_text(rep: FullReport) -> str:
    return _text(report_dict(rep))


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
