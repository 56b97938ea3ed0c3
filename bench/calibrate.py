"""Machine-speed references that calibrate the end-to-end times.

The shared machines this benchmark runs on drift: the same pure-Python loop
takes anywhere from 17 to 29 ms within one minute, changing within a
second, and a fresh interpreter importing numpy from 135 to 260 ms.  Raw
wall times of two runs of the same code therefore differ by far more than a
useful regression bound.  Each timing is paired with references taken
next to it, and reported scaled to a fixed reference speed:

    calibrated = wall * REF_MS / reference measured next to it

In-process operations are CPU-bound Fraction arithmetic.  Their reference
is ``probe_ms``, a fixed Fraction elimination of about 1 ms, timed eight
times before and eight times after each operation and, through
``SpeedSampler``, once per 50 ms of CPU time during it, so that a
two-second operation is calibrated by the speed it actually ran at.  The
sampler's own time is taken out of the operation's time.  Cold operations
and set-ups are dominated by interpreter start and imports; their
reference is ``cold_ref_ms``, the sum of a fresh ``python -c pass`` and a
fresh ``python -c "import numpy"``.  Neither alone tracks them: between
two states of the same machine ten minutes apart, the cold operations
calibrated by the numpy import alone moved by +9 %, by interpreter start
alone by -20 %, and by their sum by under 1 %.

No reference runs orbitadm code, so a change to orbitadm moves the
calibrated times as it moves the wall times at a fixed machine speed.  Raw
wall times are printed alongside.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import runners

PROBE_REF_MS = 1.0
COLD_REF_MS = 270.0
COLD_REF_CODES = ("pass", "import numpy")


def probe_ms(size: int = 7) -> float:
    """Wall time of Fraction elimination on a fixed 7 x 7 matrix, ~1 ms."""
    start = perf_counter()
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 4 + 1)
             for j in range(size)] for i in range(size)]
    for c in range(size):
        pivot = next((r for r in range(c, size) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(c + 1, size):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return (perf_counter() - start) * 1000.0


def probes_ms(count: int = 8) -> list[float]:
    return [probe_ms() for _ in range(count)]


class SpeedSampler:
    """Times ``probe_ms`` every ``period`` seconds of CPU time while active.

    The samples come from a SIGPROF handler, which runs between bytecodes of
    whatever the main thread is executing.  ``overhead_s`` is the time spent
    in the handler, to be taken out of the timed operation.
    """

    def __init__(self, period: float = 0.05):
        self.period = period
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(probe_ms())
        self.overhead_s += perf_counter() - start


def cold_ref_ms(env: dict, cwd: Path, capture: Path) -> float:
    """Wall time of ``python -c pass`` plus ``python -c "import numpy"``,
    each in a fresh interpreter."""
    total = 0.0
    for code_text in COLD_REF_CODES:
        code, _, wall, _ = runners.run_fresh(["-c", code_text], env, cwd,
                                             capture)
        if code != 0:
            raise RuntimeError(f"reference {code_text!r} exited with {code}")
        total += wall
    return total * 1000.0
