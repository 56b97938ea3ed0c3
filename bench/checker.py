"""Known-answer checker: does one operation's outcome match its answer?

``mismatch`` returns None when the exit code and the printed result agree
with the hand-derived answer, and otherwise a one-line reason.  Only the
deciding fields are compared (exit code, d_tau, m, spectral status,
admissibility status; the rank for the pointwise commands), so a speed-up
that changes the witness point or the wording of a warning still passes,
while one that changes an answer does not.
"""

from __future__ import annotations

import json

from workloads import Op


def _text_fields(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def verdict_fields(stdout: str, json_output: bool) -> tuple:
    """(d_tau, m, spectral, admissibility) as a verdict report prints them."""
    if json_output:
        doc = json.loads(stdout)
        return (doc["d_tau"], doc["m"], doc["spectral"],
                doc["admissibility"]["status"])
    f = _text_fields(stdout)
    return (int(f["d_tau"]), int(f["m"]), f["spectral"],
            f["admissibility.status"])


def mismatch(op: Op, code: int | None, stdout: str) -> str | None:
    """Why the outcome differs from ``op.answer``, or None if it matches."""
    want = op.answer
    if code != want.exit_code:
        return f"exit code {code}, expected {want.exit_code}"
    if code != 0:
        return None
    try:
        if op.command == "verdict":
            got = verdict_fields(stdout, op.json_output)
            expected = (want.d_tau, want.m, want.spectral, want.admissibility)
            if got != expected:
                return f"reported {got}, expected {expected}"
        elif op.command == "validate":
            if not stdout.endswith("ok\n"):
                return "validate did not end with 'ok'"
        elif op.command == "rank":
            f = _text_fields(stdout)
            if int(f["rank_M"]) != op.point_rank:
                return f"rank_M {f['rank_M']}, expected {op.point_rank}"
        elif op.command == "jacobian":
            f = _text_fields(stdout)
            expected = op.point_rank + op.n - op.m
            if (f["rank_matches"] != "true"
                    or int(f["expected_rank"]) != expected):
                return (f"expected_rank {f['expected_rank']} with "
                        f"rank_matches {f['rank_matches']}, expected "
                        f"{expected} with true")
        else:
            return f"unknown command {op.command!r}"
    except (KeyError, ValueError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
    return None


def verdict_summary(op: Op, code: int | None, stdout: str) -> tuple:
    """(d_tau, verdict) for the detail row of one operation."""
    if code != 0:
        return "-", f"exit {code}"
    if op.command == "verdict":
        try:
            d, _, _, status = verdict_fields(stdout, op.json_output)
            return d, status
        except (KeyError, ValueError):
            return "-", "unreadable"
    if op.command in ("rank", "jacobian"):
        f = _text_fields(stdout)
        return f.get("rank_M", f.get("expected_rank", "-")), "ok"
    return "-", "ok"
