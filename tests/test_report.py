"""The text reports' own encoder against the ``json`` encoder it stands in for.

A text report prints each value that is not a string as
``json.JSONEncoder(separators=(", ", ": ")).encode`` writes it.
``report._encode`` writes the ints, bools, None, lists and plain strings
itself, so that a text report loads no ``json``, and hands every other
string to json.  Basis names from ``from_brackets`` may be any strings, so
a report can hold quotes, backslashes, control characters and non-ASCII
text; each must render as it did when json encoded every value.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import orbitadm as oa
from orbitadm import pointwise, report

ENCODER = json.JSONEncoder(separators=(", ", ": "))

# characters a plain string may hold, and ones json escapes: the quote,
# the backslash, control characters, DEL and beyond ASCII
SPECIAL = '"\\\x00\x07\t\n\x1f\x7f\x80\xe9Σ \U0001f600'
STRINGS = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(" -/0123456789AXYZ_ab*+" + SPECIAL)),
    st.sampled_from(["-3/4", "0", "17", "X", "E1_2", "2 * X + -1/2 * Y",
                     "Yé", 'Q"', "R\\", "T\x01"]))
HUGE = st.builds(lambda digits, low, sign: sign * (10 ** digits + low),
                 st.integers(4000, 4290), st.integers(0, 10 ** 9),
                 st.sampled_from([1, -1]))
VALUES = st.one_of(
    st.integers(), HUGE, st.sampled_from([True, False, None]),
    st.lists(st.one_of(st.integers(), HUGE)), st.lists(STRINGS))


@settings(max_examples=500, deadline=None, database=None)
@given(value=VALUES)
def test_encoder_matches_json(value):
    assert report._encode(value) == ENCODER.encode(value)


def _reference_text(tree: dict) -> str:
    """The text report as it was rendered with json encoding every value
    that is not a string."""
    lines = []

    def flatten(prefix, value):
        if isinstance(value, dict):
            for key, item in value.items():
                flatten(f"{prefix}.{key}" if prefix else key, item)
        elif isinstance(value, str):
            lines.append(f"{prefix}: {value}")
        else:
            lines.append(f"{prefix}: {ENCODER.encode(value)}")
    flatten("", tree)
    return "\n".join(lines) + "\n"


def test_basis_names_that_need_escaping_render_as_json_did():
    # ax+b with a second translation, its names holding a quote, a
    # backslash, a control character and non-ASCII text
    a, x, y = 'A"', "X\\", "Yé\x07"
    L = oa.from_brackets("axb2", (a, x, y),
                         {(a, x): {x: 1}, (a, y): {y: Fraction(1, 2)}})
    rep = oa.decide(*oa.check_problem(L, [{1: 1}, {2: 1}],
                                      [1, Fraction(-2, 3)]))
    text = report.render_text(rep)
    assert text == _reference_text(report.report_dict(rep))
    assert 'structure.basis: ["A\\"", "X\\\\", "Y\\u00e9\\u0007"]\n' in text
    pf = oa.ProblemFile(name="axb2", algebra=L,
                        generator_terms=({1: 1}, {2: 1}),
                        functional_vals=(Fraction(1), Fraction(-2, 3)))
    summary = report.render_problem_summary(pf, rep.structure)
    assert summary == _reference_text({
        "algebra": "axb2", "dim": 3, "basis": " ".join(L.basis_names),
        "generators": [x, y], "functional": ["1", "-2/3"],
        "is_solvable": True, "is_nilpotent": False, "is_unimodular": False,
        "exponentiality": "Exponential"})
    D = rep.datum
    sr = oa.stabilizer_report(D, (Fraction(5),))
    assert pointwise.render_stabilizer_text(sr, L.basis_names) \
        == _reference_text({
            "point": [str(v) for v in sr.point], "rank_M": sr.rank_M,
            "dim_H_orbit": sr.rank_M,
            "h_stab_basis": report._combo_strings(sr.h_stab_basis,
                                                  L.basis_names),
            "dim_G_orbit": sr.dim_G_orbit,
            "g_stab_basis": report._combo_strings(sr.g_stab_basis,
                                                  L.basis_names)})
