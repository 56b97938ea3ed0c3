"""The exit code and full stderr of `validate` and `verdict` on the inputs
whose refusal names a witness of the exponentiality checks, frozen.

motion.alg fails check (i).  twist(j) from bench/families.py is given in its
canonical basis and in seeded random rational bases, where the flag's
quotient actions are no longer block diagonal and check (ii) names an
E_name; every witness combination and every E_name is compared byte for
byte with fixtures/exponentiality_reasons.json, which maps CASE.COMMAND to
"exit N" and the stderr.

    PYTHONPATH=src python tests/test_frozen_reasons.py

rewrites that fixture from the program as it stands.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

import orbitadm as oa

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import (load_bench_families, problem_text_of,  # noqa: E402
                      random_invertible, run_cli, transform_algebra)
from exact import dense_rows, dot, invert  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
FROZEN = FIXTURES / "exponentiality_reasons.json"
SEEDS = range(6)
COMMANDS = ("validate", "verdict")

_families = load_bench_families()


def _in_random_basis(text: str, seed: int) -> str:
    """The problem of ``text`` in the basis whose rows are a seeded random
    rational matrix Q: the table by ``transform_algebra``, the generators
    by Q^-1."""
    pf = oa.parse(text)
    Q = random_invertible(random.Random(seed), pf.algebra.dim)
    Qinv = invert(Q)
    rows = [[dot(r, col) for col in zip(*Qinv)]
            for r in dense_rows(pf.generator_terms, pf.algebra.dim)]
    return problem_text_of(pf.name, transform_algebra(pf.algebra, Q), rows,
                           pf.functional_vals)


def cases() -> dict[str, str]:
    """Problem text by case name."""
    out = {"motion": (FIXTURES / "motion.alg").read_text()}
    for j in (1, 2, 3):
        text = _families.twist(j).text
        out[f"twist{j}"] = text
        for seed in SEEDS:
            out[f"twist{j}.seed{seed}"] = _in_random_basis(text, seed)
    return out


CASES = cases()


def outcome(text: str, command: str, directory: Path) -> str:
    path = directory / "problem.alg"
    path.write_text(text)
    code, out, err = run_cli(command, str(path))
    assert out == ""
    return f"exit {code}\n{err}"


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


def test_every_case_is_frozen(frozen):
    assert set(frozen) == {f"{name}.{command}" for name in CASES
                           for command in COMMANDS}


def test_both_checks_are_covered(frozen):
    assert any("check (i) fails" in v for v in frozen.values())
    assert any("check (ii) fails" in v and "E_" in v
               for v in frozen.values())


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", list(CASES))
def test_reason_matches_frozen_fixture(name, command, frozen, tmp_path):
    assert outcome(CASES[name], command, tmp_path) \
        == frozen[f"{name}.{command}"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        FROZEN.write_text(json.dumps(
            {f"{name}.{command}": outcome(text, command, Path(scratch))
             for name, text in CASES.items() for command in COMMANDS},
            indent=1, sort_keys=True) + "\n")
