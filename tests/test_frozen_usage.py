"""The exit code, stdout and stderr of `cli.main` on command lines that test
the reading of its arguments, frozen.

The cases are usage errors (no command, an unknown one, missing and
extra arguments, bad values, an ambiguous prefix, a flag given a value)
and accepted lines that lean on the reader: unique prefixes, negative
values, `=` forms, a repeated option and `--`.  fixtures/usage.json maps
each case name to its argv, where GRELAUD stands for the corpus file
grelaud.alg, and to the exit code, stdout and stderr.  `--help` is left
out: its layout is not part of the contract.

    PYTHONPATH=src python tests/test_frozen_usage.py

rewrites that fixture from the program as it stands.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from orbitadm import cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import run_cli  # noqa: E402

FROZEN = Path(__file__).parent / "fixtures" / "usage.json"
G = "GRELAUD"

CASES = {
    "no-arguments": (),
    "unknown-command": ("frobnicate",),
    "separator-before-command": ("--", "verdict", G),
    "missing-file": ("validate",),
    "missing-point": ("rank", G),
    "missing-file-and-point": ("rank",),
    "bad-int": ("verdict", G, "--seed", "x"),
    "bad-float": ("jacobian", G, "--point", "1,2", "--step", "x"),
    "ambiguous-prefix": ("verdict", G, "--s", "1"),
    "flag-given-a-value": ("verdict", G, "--json=1"),
    "help-given-a-value": ("verdict", G, "--help=1"),
    "missing-value": ("verdict", G, "--seed"),
    "missing-point-value": ("rank", G, "--point"),
    "extra-positional": ("verdict", G, "extra"),
    "unknown-option": ("verdict", G, "--assume-exponential"),
    "corpus-positional": ("corpus", "x"),
    "separator-after-an-option": ("verdict", G, "--json", "--"),
    "symbolic-prefix": ("verdict", G, "--sym"),
    "json-prefix": ("verdict", G, "--js"),
    "negative-seed": ("verdict", G, "--seed", "-3"),
    "repeated-seed": ("verdict", G, "--seed", "1", "--seed", "5"),
    "negative-point": ("rank", G, "--point", "-1/2,3"),
    "negative-point-bound": ("rank", G, "--point=-1/2,3"),
    "empty-point": ("rank", G, "--point", ""),
    "negative-step": ("jacobian", G, "--point", "-1,2", "--step", "-inf"),
    "separator": ("verdict", "--", G),
}


def outcome(argv) -> dict:
    path = str(cli.corpus_path("grelaud"))
    code, out, err = run_cli(*(path if word == G else word for word in argv))
    return {"argv": list(argv), "exit": code, "stdout": out, "stderr": err}


@pytest.fixture(autouse=True)
def _no_inherited_seed(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


def test_every_case_is_frozen(frozen):
    assert {name: tuple(case["argv"]) for name, case in frozen.items()} \
        == CASES


def test_errors_and_acceptances_are_both_covered(frozen):
    codes = [case["exit"] for case in frozen.values()]
    assert codes.count(0) >= 5 and codes.count(1) >= 15
    assert all(case["stderr"].startswith("error: ") and case["stdout"] == ""
               for case in frozen.values() if case["exit"])


@pytest.mark.parametrize("name", list(CASES))
def test_usage_matches_frozen_fixture(name, frozen):
    assert outcome(CASES[name]) == frozen[name]


if __name__ == "__main__":
    os.environ.pop(cli.SEED_ENV_VAR, None)
    FROZEN.write_text(json.dumps(
        {name: outcome(argv) for name, argv in CASES.items()},
        indent=1, sort_keys=True, ensure_ascii=False) + "\n")
