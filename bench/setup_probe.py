"""One timed set-up of a benchmark run, in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Generates the workload's inputs into WORKDIR, imports orbitadm and runs one
warm-up operation, then prints the elapsed seconds.  For ``cli-cold`` the
import and the warm-up happen in the fresh child process a CLI user starts.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import runners  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    workload = workloads.Workload(name, seed, root, workdir)
    workload.write_inputs()
    warmup = workload.warmup_op()
    if name == "cli-cold":
        outcome = runners.run_cold(warmup, runners.child_env(src), root,
                                   workdir / "probe.out")
    else:
        sys.path.insert(0, str(src))
        from orbitadm.cli import main as cli_main
        outcome = runners.run_in_process(cli_main, warmup)
    if outcome.code != warmup.answer.exit_code:
        print(f"warm-up {warmup.label} failed: exit {outcome.code}",
              file=sys.stderr)
        return 1
    print(f"{perf_counter() - START:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
