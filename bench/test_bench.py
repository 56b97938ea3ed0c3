"""Self-test of the benchmark: generators, known answers, checker, tracer.

    python3 -m pytest bench

The small members of every family must match their closed forms when run
through orbitadm, the corpus operations must match the README table, and
the checker must flag a deliberately wrong answer.
"""

from __future__ import annotations

import signal
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checker  # noqa: E402
import families  # noqa: E402
import runners  # noqa: E402
import workloads  # noqa: E402
from orbitadm import algebra, cli, linalg, parse, verdict  # noqa: E402
from tracer import LayerTotals, Tracer  # noqa: E402
from workloads import Op  # noqa: E402

SMALL = [
    families.heisenberg(1, "lagrangian"), families.heisenberg(1, "centre"),
    families.heisenberg(2, "lagrangian"), families.heisenberg(2, "centre"),
    families.borel(2, "cartan"), families.borel(2, "nilradical"),
    families.borel(3, "cartan"), families.borel(3, "nilradical"),
    families.diagonal(2, 1), families.diagonal(2, 2),
    families.diagonal(3, 1), families.diagonal(3, 3),
]


def _verdict_op(problem, directory: Path, *extra) -> Op:
    path = directory / f"{problem.name}.alg"
    path.write_text(problem.text)
    return Op(problem.name, "verdict", str(path), extra, problem.answer,
              problem.n, problem.m)


def _run(op: Op):
    return runners.run_in_process(cli.main, op)


@pytest.mark.parametrize("problem", SMALL, ids=lambda p: p.name)
@pytest.mark.parametrize("extra", [("--seed", "0"), ("--json", "--seed", "5")])
def test_small_family_members_match_closed_forms(problem, extra, tmp_path):
    op = _verdict_op(problem, tmp_path, *extra)
    op = replace(op, json_output="--json" in extra)
    out = _run(op)
    assert checker.mismatch(op, out.code, out.stdout) is None, out.stdout


def test_closed_forms_follow_the_verdict_table():
    assert families.heisenberg(3, "lagrangian").answer == families.Answer(
        0, 3, 3, families.AC, families.CONJ_NOT_ADMISSIBLE)
    assert families.borel(2, "nilradical").answer.admissibility \
        == families.ADMISSIBLE
    assert families.borel(4, "nilradical").answer == families.Answer(
        0, 3, 6, families.SINGULAR, families.NOT_ADMISSIBLE)
    assert families.diagonal(20, 20).answer.d_tau == 1
    assert families.borel(6, "cartan").n == 21


@pytest.mark.parametrize("j", [1, 2, 3])
def test_twist_is_solvable_and_not_exponential(j):
    """ad(A - B) squares to -4 on the ideal: eigenvalues +-2i."""
    L = parse(families.twist(j).text).algebra
    assert algebra.validate(L) == []
    assert algebra.derived_series_dims(L)[-1] == 0
    u = tuple(Fraction(1 if k == 0 else -1 if k == 1 else 0)
              for k in range(L.dim))
    ad = algebra.ad_matrix(L, u)
    square = linalg.matmul(ad, ad)
    for r in range(L.dim):
        for c in range(L.dim):
            want = -4 if r == c and r >= 2 else 0
            assert square[r][c] == want


def test_corpus_and_rejected_inputs_match_known_answers(tmp_path):
    # passes 0..2 rotate validate/rank/jacobian through all nine files
    wl = workloads.Workload("cli-cold", 0, ROOT, tmp_path)
    wl.write_inputs()
    ops = [op for i in range(3) for op in wl.pass_ops(i)]
    assert {op.label.split()[-1] for op in ops if op.command == "jacobian"} \
        == set(families.CORPUS)
    for op in ops:
        out = _run(op)
        assert checker.mismatch(op, out.code, out.stdout) is None, op.label


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_twists_are_probed_outside_the_timed_passes(name, tmp_path):
    wl = workloads.Workload(name, 0, ROOT, tmp_path)
    assert not any("twist" in op.label for op in wl.pass_ops(0))
    probe = wl.defect_ops()
    assert len(probe) == 24
    assert {op.label for op in probe} \
        == {"verdict twist1", "verdict twist2", "verdict twist3"}
    assert all(op.answer == families.rejected(2) for op in probe)
    wl.write_inputs()
    assert all(Path(op.path).is_file() for op in probe)


def test_checker_flags_wrong_answers(tmp_path):
    good = _verdict_op(families.diagonal(3, 1), tmp_path, "--seed", "0")
    out = _run(good)
    assert checker.mismatch(good, out.code, out.stdout) is None
    wrong_d = replace(good, answer=replace(good.answer, d_tau=0))
    assert "expected" in checker.mismatch(wrong_d, out.code, out.stdout)
    wrong_status = replace(good, answer=families.decided(1, 1, True))
    assert checker.mismatch(wrong_status, out.code, out.stdout) is not None
    refused = replace(good, answer=families.rejected(2))
    assert checker.mismatch(refused, out.code, out.stdout) \
        == "exit code 0, expected 2"
    assert checker.mismatch(good, None, "") is not None
    assert checker.mismatch(good, 0, "garbage\n").startswith("unreadable")

    wl = workloads.Workload("cli-cold", 0, ROOT, tmp_path)
    rank = next(op for op in wl.pass_ops(0) if op.command == "rank")
    out = _run(rank)
    assert checker.mismatch(rank, out.code, out.stdout) is None
    off_by_one = replace(rank, point_rank=rank.point_rank + 1)
    assert checker.mismatch(off_by_one, out.code, out.stdout) is not None


def test_passes_are_seeded_shuffles_of_one_multiset(tmp_path):
    a = workloads.Workload("certify-small", 1, ROOT, tmp_path)
    b = workloads.Workload("certify-small", 1, ROOT, tmp_path)
    c = workloads.Workload("certify-small", 2, ROOT, tmp_path)
    assert a.pass_ops(1) == b.pass_ops(1)
    assert a.pass_ops(0) != c.pass_ops(0)
    assert sorted(op.label for op in a.pass_ops(0)) \
        == sorted(op.label for op in c.pass_ops(3))


def test_tracer_sees_every_binding_and_restores_them(tmp_path):
    op = _verdict_op(families.heisenberg(2, "lagrangian"), tmp_path,
                     "--seed", "3")
    originals = (verdict.validate, algebra.validate, cli.full_report)
    plain = _run(op)
    tracer, totals = Tracer(), LayerTotals()
    tracer.install()
    try:
        traced = _run(op)
    finally:
        tracer.uninstall()
    assert (verdict.validate, algebra.validate, cli.full_report) == originals
    assert {"orbitadm.verdict.validate", "orbitadm.algebra.validate",
            "orbitadm.moment.rank_exact"} <= set(tracer.bindings)
    assert traced.stdout == plain.stdout
    totals.add(tracer.take())
    m = totals.metrics()
    assert m["algebra.validate_calls"] == (2, "count")
    assert m["moment.rank_at_calls"][0] >= 20
    assert m["moment.symbolic_ran_share"] == (1.0, "share")
    assert m["verdict.self_ms"][0] > 0
    assert tracer.take() == []


def test_in_process_outcome_reports_exceptions():
    def boom(argv, out, err):
        raise RuntimeError("x")

    op = Op("x", "verdict", "missing.alg", (), families.rejected(1), 1, 0)
    out = runners.run_in_process(boom, op)
    assert out.code is None and out.error == "RuntimeError: x"


def test_speed_sampler_samples_during_work_and_restores_handler():
    previous = signal.getsignal(signal.SIGPROF)
    with calibrate.SpeedSampler(period=0.01) as sampler:
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    assert len(sampler.samples) >= 5 and sampler.overhead_s > 0
    assert signal.getsignal(signal.SIGPROF) is previous
