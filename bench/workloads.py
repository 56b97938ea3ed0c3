"""The benchmark's workloads: which operations a run makes, on which inputs.

Every workload is a closed loop with one client, and a run is a sequence
of whole passes.  Each pass holds the same multiset of operations, so the
latency percentiles of two runs describe the same mix; the workload seed
only shuffles the order inside each pass and draws the ``--seed`` handed
to each `verdict` and `validate` operation.

The non-exponential twists are not in any pass: orbitadm's
exponentiality screen samples directions and accepts them at most seeds,
and a timed operation must not fail.  They form the known-defect probe
instead (``defect_ops``), which every run makes untimed and reports on its
own lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

import families
from families import Answer, Problem

WORKLOADS = ("cli-cold", "families-large", "certify-small")

CORPUS_NAMES = tuple(families.CORPUS)

DEFECT_TWISTS = (1, 2, 3)
DEFECT_SEEDS = tuple(range(8))


@dataclass(frozen=True)
class Op:
    """One operation: `orbitadm <command> FILE <extra...>`, with its answer.

    ``label`` names the row of the per-case detail output.  ``point_rank``
    is the exact rank of M(l) at ``--point`` for `rank` and `jacobian`.
    """

    label: str
    command: str            # verdict | validate | rank | jacobian
    path: str
    extra: tuple[str, ...]
    answer: Answer
    n: int
    m: int
    json_output: bool = False
    point_rank: int | None = None

    def argv(self) -> list[str]:
        return [self.command, self.path, *self.extra]


class Workload:
    """The inputs of one run: problem files on disk and the pass sequence."""

    def __init__(self, name: str, seed: int, root: Path, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.whole_passes = name != "cli-cold"  # see run._passes
        self.workdir = workdir
        self._rng = random.Random(f"{name}:{seed}")
        self._passes: list[list[Op]] = []
        self.entries = _entries(name)
        self.defects = [families.twist(j) for j in DEFECT_TWISTS]
        self.corpus_dir = root / "src" / "orbitadm" / "corpus"

    def write_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for p in [p for p, _ in self.entries] + self.defects:
            (self.workdir / f"{p.name}.alg").write_text(p.text)

    def pass_ops(self, index: int) -> list[Op]:
        """Operations of pass ``index``, the same for every caller."""
        while len(self._passes) <= index:
            ops = self._unshuffled(len(self._passes))
            self._rng.shuffle(ops)
            self._passes.append([self._seeded(op) for op in ops])
        return self._passes[index]

    def warmup_op(self) -> Op:
        """The smallest accepted verdict of the workload, unseeded."""
        ops = [op for op in self._unshuffled(0)
               if op.command == "verdict" and op.answer.exit_code == 0]
        return min(ops, key=lambda op: (op.n, op.label))

    def defect_ops(self) -> list[Op]:
        """The twists at fixed seeds: `verdict` must exit 2 on every one."""
        return [replace(self._verdict(p), extra=("--seed", str(seed)))
                for p in self.defects for seed in DEFECT_SEEDS]

    def _seeded(self, op: Op) -> Op:
        if op.command not in ("verdict", "validate"):
            return op
        seed = str(self._rng.randrange(2 ** 16))
        return Op(op.label, op.command, op.path, (*op.extra, "--seed", seed),
                  op.answer, op.n, op.m, op.json_output, op.point_rank)

    def _file(self, p: Problem) -> str:
        return str(self.workdir / f"{p.name}.alg")

    def _verdict(self, p: Problem, *extra: str) -> Op:
        label = "verdict" + "".join(f" {x}" for x in extra) + f" {p.name}"
        return Op(label, "verdict", self._file(p), extra, p.answer, p.n, p.m)

    def _corpus(self, name: str, command: str, json_output=False) -> Op:
        _, m, _, point, rank = families.CORPUS[name]
        path = str(self.corpus_dir / f"{name}.alg")
        n = m + len(point.split(","))
        if command == "verdict":
            extra = ("--json",) if json_output else ()
            return Op(f"verdict{' --json' if json_output else ''} {name}",
                      command, path, extra, families.corpus_answer(name),
                      n, m, json_output)
        if command == "validate":
            return Op(f"validate {name}", command, path, (),
                      Answer(families.EXIT_OK), n, m)
        return Op(f"{command} {name}", command, path, ("--point", point),
                  Answer(families.EXIT_OK), n, m, point_rank=rank)

    def _unshuffled(self, index: int) -> list[Op]:
        if self.name == "cli-cold":
            ops = [self._corpus(c, "verdict") for c in CORPUS_NAMES]
            ops += [self._corpus(c, "verdict", True) for c in CORPUS_NAMES]
            # four files per pointwise command, rotating through the corpus
            # from pass to pass so the pass size stays fixed
            for offset, command in ((0, "validate"), (3, "rank"),
                                    (6, "jacobian")):
                for t in range(4):
                    name = CORPUS_NAMES[(4 * index + t + offset) % 9]
                    ops.append(self._corpus(name, command))
        elif self.name == "certify-small":
            ops = [self._corpus(c, "verdict") for c in CORPUS_NAMES]
        else:
            ops = []
        return ops + [self._verdict(p, *extra) for p, extra in self.entries]


def _entries(name: str) -> list[tuple[Problem, tuple[str, ...]]]:
    """Generated problems of a workload, each with its extra arguments."""
    if name == "cli-cold":
        found = families.rejects()
    elif name == "families-large":
        found = []
        for k in range(4, 11):                      # n = 9, 11, ..., 21
            found += [families.heisenberg(k, "lagrangian"),
                      families.heisenberg(k, "centre")]
        for N in (4, 5, 6):                         # n = 10, 15, 21
            found += [families.borel(N, "cartan"),
                      families.borel(N, "nilradical")]
        for k in range(8, 21):                      # n = 9, ..., 21
            found += [families.diagonal(k, 1), families.diagonal(k, k)]
    else:
        found = []
        for k in (1, 2, 3):                         # h_3, h_5, h_7
            found += [families.heisenberg(k, "lagrangian"),
                      families.heisenberg(k, "centre")]
        for N in (2, 3):
            found += [families.borel(N, "cartan"),
                      families.borel(N, "nilradical")]
        found += [families.diagonal(k, k) for k in range(3, 8)]
        # above the default symbolic threshold (n <= 8): forced certification
        forced = [families.heisenberg(4, "lagrangian"),
                  families.heisenberg(4, "centre"),
                  families.borel(4, "cartan"), families.borel(4, "nilradical"),
                  families.diagonal(8, 8), families.diagonal(9, 9)]
        return ([(p, ()) for p in found]
                + [(p, ("--symbolic",)) for p in forced])
    return [(p, ()) for p in found]
