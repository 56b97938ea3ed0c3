"""Running one operation: in a fresh interpreter, or in this process."""

from __future__ import annotations

import io
import os
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import Op

# The package has no __main__ and the console script need not be installed,
# so a cold operation starts orbitadm.cli.main itself, with src on the path.
LAUNCH = "import sys; from orbitadm.cli import main; sys.exit(main())"

OP_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    op: Op
    code: int | None        # None: raised or timed out
    stdout: str
    wall_s: float
    error: str | None = None
    rss_kb: int = 0         # cold operations only: the child's peak RSS
    cpu_s: float = 0.0      # cold operations only: the child's user + sys
    scale: float = 1.0      # reference speed / speed next to it (calibrate)

    @property
    def calibrated_ms(self) -> float:
        return self.wall_s * self.scale * 1000.0


def child_env(src: Path) -> dict:
    """This environment without ORBITADM_SEED, with ``src`` on the path."""
    env = dict(os.environ)
    env.pop("ORBITADM_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_fresh(args: list[str], env: dict, cwd: Path, capture: Path,
              timeout: float = OP_TIMEOUT_S):
    """Run ``python3 ARGS`` to completion; (exit code, stdout, wall, usage).

    Output goes through a file so that the child can be reaped with wait4,
    which returns its own resource usage.  A child still running after
    ``timeout`` seconds is killed and reported with exit code None.
    """
    with open(capture, "w+b") as out:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=subprocess.DEVNULL, env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
    return (code if code >= 0 else None), stdout, wall, usage


def run_cold(op: Op, env: dict, cwd: Path, capture: Path) -> Outcome:
    code, stdout, wall, usage = run_fresh(["-c", LAUNCH, *op.argv()], env,
                                          cwd, capture)
    return Outcome(op, code, stdout, wall,
                   None if code is not None else "killed or timed out",
                   usage.ru_maxrss, usage.ru_utime + usage.ru_stime)


class OpTimeout(Exception):
    pass


@contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"no result after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_in_process(cli_main, op: Op) -> Outcome:
    """``orbitadm.cli.main(argv, out, err)`` on string buffers, timed."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with _deadline(OP_TIMEOUT_S):
            code = cli_main(op.argv(), out, err)
    except Exception as exc:  # an operation that raises counts as failed
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - start
    return Outcome(op, code, out.getvalue(), wall, error)
