"""End-to-end and per-layer benchmark of orbitadm.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/orbitadm`` next to ``bench/``).
Workloads (see workloads.py):

  cli-cold        each operation is a fresh interpreter running
                  orbitadm.cli.main: verdicts, validate, rank, jacobian and
                  rejected inputs on the corpus and small generated files
  families-large  in-process `verdict` on generated families at n = 9..21
  certify-small   in-process `verdict` at n <= 10, where the symbolic route
                  runs on every accepted operation

``--trace 0`` times the workload's operations for about S seconds (whole
passes for the in-process workloads) and reports the end-to-end metrics,
calibrated against machine-speed references (calibrate.py).  ``--trace 1``
runs the same operations in this process, each once untraced and once with
spans around orbitadm's public functions, and reports the per-layer
metrics; it also checks that both runs print byte-identical stdout.  Every
answer is checked against a hand-derived known answer (families.py,
checker.py).  The non-exponential twists, which orbitadm still accepts at
most seeds, are left out of the timed operations and of ``correct``; every
run makes them once per fixed seed after its operations, untimed, and
prints how many were answered wrongly (``_defect_probe``).

Human-readable rows go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibrate
import checker
import runners
import workloads
from tracer import LayerTotals, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
CLI_PROBES = 5
COLD_REF_EVERY = 2  # cli-cold: a reference before every 2 operations


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics.  A
    pass mixes cases whose costs form clusters with gaps between them, and a
    single order statistic jumps across a gap when one sample moves; the
    weighted mean moves smoothly.  The Beta integrals use the trapezoid rule
    on 64 steps per order statistic.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64 * n

    def density(t):
        if not 0 < t < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t)
                        + (b - 1) * math.log1p(-t))

    dens = [density(k / steps) for k in range(steps + 1)]
    weights = [sum(dens[i * 64:(i + 1) * 64]) + (dens[(i + 1) * 64]
                                                  - dens[i * 64]) / 2
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _import_cli():
    sys.path.insert(0, str(SRC))
    import orbitadm
    from orbitadm import cli
    if not Path(orbitadm.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported orbitadm from {orbitadm.__file__}, "
                           f"not from {SRC}")
    return cli.main


def _passes(workload, seconds: float, run_op):
    """Operations for about ``seconds``, in whole passes where that matters.

    In-process workloads mix cases whose costs differ a hundredfold, so a
    run ends only after a whole pass and starts the next pass only if it is
    expected to end in time: every run then times the same multiset.  Cold
    operations all cost about one interpreter start and import, so cli-cold
    simply stops when the time is up.
    """
    outcomes = []
    start = perf_counter()
    done = 0
    while True:
        for op in workload.pass_ops(done):
            if not workload.whole_passes and outcomes \
                    and perf_counter() - start >= seconds:
                return outcomes, perf_counter() - start, done
            outcomes.append(run_op(op))
        done += 1
        elapsed = perf_counter() - start
        if workload.whole_passes and elapsed + elapsed / done > seconds:
            return outcomes, elapsed, done


def _setup_seconds(name: str, seed: int, workdir: Path):
    """Set-up time of SETUP_PROBES fresh interpreters, each on its own inputs.

    Returns the raw times and their calibrated median: the median raw time
    scaled by the median of cold references, one taken after each probe.
    """
    env = runners.child_env(SRC)
    probe = str(Path(__file__).resolve().parent / "setup_probe.py")
    raw, refs = [], []
    for i in range(SETUP_PROBES):
        target = workdir / f"probe{i}"
        target.mkdir(parents=True)
        code, stdout, _, _ = runners.run_fresh(
            [probe, name, str(seed), str(target)], env, ROOT,
            workdir / "probe.out")
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        raw.append(float(stdout.strip().splitlines()[-1]))
        refs.append(calibrate.cold_ref_ms(env, ROOT, workdir / "ref.out"))
        shutil.rmtree(target)
    calibrated = (statistics.median(raw) * calibrate.COLD_REF_MS
                  / statistics.median(refs))
    return raw, calibrated


def _why_failed(o) -> str | None:
    return o.error or checker.mismatch(o.op, o.code, o.stdout)


def _detail_rows(outcomes) -> list[str]:
    """One row per case: n, m, d_tau, verdict, median time, runs, failed."""
    rows = {}
    for o in outcomes:
        rows.setdefault(o.op.label, []).append(o)
    lines = [f"{'case':<36} {'n':>3} {'m':>3} {'d_tau':>5}  "
             f"{'verdict':<27} {'median_ms':>10} {'runs':>4} {'failed':>6}"]
    for label in sorted(rows, key=lambda k: (rows[k][0].op.n, k)):
        group = rows[label]
        op = group[0].op
        d, verdict = checker.verdict_summary(op, group[0].code,
                                             group[0].stdout)
        bad = sum(_why_failed(o) is not None for o in group)
        ms = statistics.median(o.calibrated_ms for o in group)
        lines.append(f"{label:<36} {op.n:>3} {op.m:>3} {d!s:>5}  "
                     f"{verdict:<27} {ms:>10.1f} {len(group):>4} {bad:>6}")
    return lines


def _failures(outcomes) -> tuple[int, list[str]]:
    """The number of failed operations and one line per distinct reason."""
    reasons = Counter(f"{o.op.label}: {why}" for o in outcomes
                      if (why := _why_failed(o)) is not None)
    return sum(reasons.values()), [f"failed x{count} {text}"
                                   for text, count in sorted(reasons.items())]


def _defect_probe(cli_main, workload) -> list[str]:
    """The known defect: twists at fixed seeds, untimed, outside ``correct``.

    `verdict` must exit 2 on a twist, since it is not exponential; the
    exponentiality screen samples directions and mostly misses the witness.
    The lines say at which seeds each twist got which answer.
    """
    answers, wrong = {}, 0
    ops = workload.defect_ops()
    for op in ops:
        o = runners.run_in_process(cli_main, op)
        _, verdict = checker.verdict_summary(op, o.code, o.stdout)
        wrong += _why_failed(o) is not None
        seed = op.extra[op.extra.index("--seed") + 1]
        answers.setdefault(op.label.split()[-1], {}).setdefault(
            verdict, []).append(seed)
    lines = [f"known defect, untimed and not in correct/failed: "
             f"{wrong} of {len(ops)} twist verdicts wrong (expected exit 2)"]
    for name, by_verdict in answers.items():
        lines.append(f"  {name}: " + "; ".join(
            f"{v} at seeds {','.join(seeds)}"
            for v, seeds in sorted(by_verdict.items())))
    return lines


def timed_run(workload, seconds: float, workdir: Path):
    setups, setup_cal = _setup_seconds(workload.name, workload.seed, workdir)
    workload.write_inputs()
    env = runners.child_env(SRC)
    refs = []  # machine-speed references, interleaved with the operations
    if workload.name == "cli-cold":
        def run_op(op):
            if run_op.count % COLD_REF_EVERY == 0:
                refs.append(calibrate.cold_ref_ms(env, ROOT,
                                                  workdir / "ref.out"))
            run_op.count += 1
            return runners.run_cold(op, env, ROOT, workdir / "op.out")
        run_op.count = 0
        warm = runners.run_cold(workload.warmup_op(), env, ROOT,
                                workdir / "op.out")
    else:
        cli_main = _import_cli()
        during = []  # probe times sampled while each operation ran

        def run_op(op):
            gc.collect()
            refs.append(calibrate.probes_ms())
            with calibrate.SpeedSampler() as sampler:
                outcome = runners.run_in_process(cli_main, op)
            outcome.wall_s -= sampler.overhead_s
            during.append(sampler.samples)
            return outcome
        warm = runners.run_in_process(cli_main, workload.warmup_op())
    if warm.code != 0:
        raise RuntimeError(f"warm-up operation failed: {warm.error}")

    outcomes, elapsed, passes = _passes(workload, seconds, run_op)
    if workload.name == "cli-cold":
        # each operation is scaled by the two references around it
        refs.append(calibrate.cold_ref_ms(env, ROOT, workdir / "ref.out"))
        for i, o in enumerate(outcomes):
            r = i // COLD_REF_EVERY
            o.scale = calibrate.COLD_REF_MS / ((refs[r] + refs[r + 1]) / 2)
    else:
        refs.append(calibrate.probes_ms())  # after the last operation
        for i, o in enumerate(outcomes):
            speed = statistics.median(refs[i] + refs[i + 1] + during[i])
            o.scale = calibrate.PROBE_REF_MS / speed
    failed, reasons = _failures(outcomes)
    times = sorted(o.calibrated_ms for o in outcomes)
    walls = sorted(o.wall_s * 1000 for o in outcomes)
    if workload.name == "cli-cold":
        peak_kb = max(o.rss_kb for o in outcomes)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "time_to_verdict_ms.p50": (_quantile(times, 0.5), "ms"),
        "time_to_verdict_ms.p90": (_quantile(times, 0.9), "ms"),
        "verdicts_per_s": (len(times) / (sum(times) / 1000), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup_cal, "s"),
    }
    lines = _detail_rows(outcomes) + reasons
    lines.append(f"operations {len(outcomes)} in {passes} passes, "
                 f"{elapsed:.3f} s")
    lines.append(f"raw wall: p50 {_quantile(walls, 0.5):.3f} ms, "
                 f"p90 {_quantile(walls, 0.9):.3f} ms, "
                 f"{len(walls) / (sum(walls) / 1000):.4f} verdicts/s; "
                 f"set-up " + ", ".join(f"{x:.3f}" for x in setups) + " s")
    lines.append(f"calibration scale median "
                 f"{statistics.median(o.scale for o in outcomes):.4f}")
    lines.append(f"failed_share {failed / len(outcomes):.6f} share "
                 f"({failed} of {len(outcomes)})")
    if workload.name == "cli-cold":
        cpu = statistics.median(o.cpu_s for o in outcomes)
        wall = statistics.median(o.wall_s for o in outcomes)
        lines.append(f"child cpu/wall median {cpu:.3f}/{wall:.3f} s")
        cli_main = _import_cli()
    lines += _defect_probe(cli_main, workload)
    return lines, len(outcomes), failed, metrics


def _fresh_ms(code: str, env: dict, workdir: Path) -> float:
    times = []
    for _ in range(CLI_PROBES):
        status, _, wall, _ = runners.run_fresh(["-c", code], env, ROOT,
                                               workdir / "fresh.out")
        if status != 0:
            raise RuntimeError(f"python -c {code!r} exited with {status}")
        times.append(wall * 1000)
    return statistics.median(times)


def traced_run(workload, seconds: float, workdir: Path):
    env = runners.child_env(SRC)
    interpreter_ms = _fresh_ms("pass", env, workdir)
    import_ms = _fresh_ms("import orbitadm.cli", env, workdir) - interpreter_ms
    workload.write_inputs()
    cli_main = _import_cli()
    runners.run_in_process(cli_main, workload.warmup_op())

    tracer, totals = Tracer(), LayerTotals()

    def run_traced(op):
        tracer.install()
        try:
            return runners.run_in_process(cli_main, op)
        finally:
            tracer.uninstall()

    plain_s = traced_s = 0.0
    outcomes, differing = [], []
    start = perf_counter()
    index = 0
    while perf_counter() - start < seconds:
        for op in workload.pass_ops(index):
            if outcomes and perf_counter() - start >= seconds:
                break
            if len(outcomes) % 2 == 0:  # alternate which runs first
                u = runners.run_in_process(cli_main, op)
                t = run_traced(op)
            else:
                t = run_traced(op)
                u = runners.run_in_process(cli_main, op)
            totals.add(tracer.take())
            plain_s += u.wall_s
            traced_s += t.wall_s
            outcomes.append(t)
            if (u.code, u.stdout) != (t.code, t.stdout):
                differing.append(op.label)
        index += 1

    failed, reasons = _failures(outcomes)
    failed += len(differing)
    metrics = {"cli.interpreter_ms": (interpreter_ms, "ms"),
               "cli.import_ms": (import_ms, "ms")}
    metrics.update(totals.metrics())
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1, "share")
    lines = _detail_rows(outcomes) + reasons
    lines += [f"traced stdout differs from untraced: {label}"
              for label in differing]
    lines.append(f"traced operations {len(outcomes)}, untraced "
                 f"{plain_s:.3f} s, traced {traced_s:.3f} s; stdout "
                 + ("byte-identical" if not differing else "DIFFERS"))
    lines.append("traced bindings: " + " ".join(tracer.bindings))
    lines += _defect_probe(cli_main, workload)
    return lines, len(outcomes), failed, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "orbitadm" / "cli.py").is_file():
        print(f"error: no orbitadm sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ORBITADM_SEED", None)
    workdir = ROOT / ".bench_work" / (
        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    workload = workloads.Workload(args.workload, args.seed, ROOT, workdir)
    workdir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        lines, attempted, failed, metrics = run(workload, args.seconds,
                                                workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
