"""Spans around orbitadm's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function in every ``orbitadm``
module namespace that holds it, so calls through any import path are seen:
``validate`` in ``orbitadm.verdict`` and ``orbitadm.algebra``,
``rank_exact`` in ``algebra``, ``monomial``, ``moment`` and ``geometry``.
Each span records its parent, so a layer's self time is its duration minus
that of its direct children.  Spans stay in memory; ``LayerTotals`` folds
the spans of each operation into the per-layer metrics.

A function that a later version removes or renames is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

TRACED = (
    "parse", "validate", "structure_report", "exponentiality_screen",
    "ad_matrix", "build_datum", "generic_h_orbit_dim", "rank_at",
    "symbolic_generic_rank", "determinant", "rank_exact", "full_report",
    "render_text", "render_json", "stabilizer_report", "fd_jacobian",
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "result")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = perf_counter()
        self.end = self.start
        self.result = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def _orbitadm_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "orbitadm" or name.startswith("orbitadm.")]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._bound: list[tuple] = []
        self.bindings: list[str] = []  # module.function names last rebound

    def install(self) -> None:
        modules = _orbitadm_modules()
        for fname in TRACED:
            original = next(
                (getattr(mod, fname) for mod in modules
                 if getattr(getattr(mod, fname, None), "__module__", None)
                 == mod.__name__), None)
            if original is None:
                continue
            wrapper = self._wrap(fname, original)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    self._bound.append((mod, fname, original))
                    setattr(mod, fname, wrapper)
        self.bindings = [f"{mod.__name__}.{fname}"
                         for mod, fname, _ in self._bound]

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._bound):
            setattr(mod, fname, original)
        self._bound.clear()

    def take(self) -> list[Span]:
        """The spans recorded since the last call, oldest first."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                stack.pop()
                span.end = perf_counter()

        return traced


class LayerTotals:
    """Per-layer sums over the traced operations of a run."""

    def __init__(self):
        self.ops = 0
        self.ms: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.self_ms = {"structure_report": 0.0, "full_report": 0.0}
        self.trial_shares: list[float] = []
        self.rank_routes = 0      # operations that ran the probabilistic route
        self.symbolic_routes = 0  # ... of which also ran the symbolic route
        self.zero_minors = 0

    def add(self, spans: list[Span]) -> None:
        self.ops += 1
        child_ms = [0.0] * len(spans)
        trials: dict[int, list[int]] = {}
        for span in spans:
            self.ms[span.name] = self.ms.get(span.name, 0.0) + span.ms
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            if span.parent is not None:
                child_ms[span.parent] += span.ms
                parent = spans[span.parent]
                if (span.name == "rank_at"
                        and parent.name == "generic_h_orbit_dim"):
                    trials.setdefault(span.parent, []).append(span.result)
            if span.name == "determinant" and span.result is not None \
                    and span.result.is_zero:
                self.zero_minors += 1
        for index, span in enumerate(spans):
            if span.name in self.self_ms:
                self.self_ms[span.name] += span.ms - child_ms[index]
        for ranks in trials.values():
            # first trial reaching the final d_tau, as a share of all trials
            self.trial_shares.append(
                (ranks.index(max(ranks)) + 1) / len(ranks))
        names = {span.name for span in spans}
        if "generic_h_orbit_dim" in names:
            self.rank_routes += 1
            self.symbolic_routes += "symbolic_generic_rank" in names

    def metrics(self) -> dict[str, tuple[float, str]]:
        ops = max(self.ops, 1)

        def per_op_ms(*names):
            return sum(self.ms.get(n, 0.0) for n in names) / ops, "ms"

        def per_op_calls(name):
            return self.calls.get(name, 0) / ops, "count"

        def share(num, den):
            return (num / den if den else 0.0), "share"

        return {
            "problemfile.parse_ms": per_op_ms("parse"),
            "algebra.validate_ms": per_op_ms("validate"),
            "algebra.validate_calls": per_op_calls("validate"),
            "algebra.structure_self_ms":
                (self.self_ms["structure_report"] / ops, "ms"),
            "algebra.exp_screen_ms": per_op_ms("exponentiality_screen"),
            "algebra.ad_matrix_calls": per_op_calls("ad_matrix"),
            "monomial.build_datum_ms": per_op_ms("build_datum"),
            "moment.probabilistic_ms": per_op_ms("generic_h_orbit_dim"),
            "moment.rank_at_calls": per_op_calls("rank_at"),
            "moment.trials_to_best_share":
                share(sum(self.trial_shares), len(self.trial_shares)),
            "moment.symbolic_ms": per_op_ms("symbolic_generic_rank"),
            "moment.symbolic_ran_share":
                share(self.symbolic_routes, self.rank_routes),
            "poly.determinant_calls": per_op_calls("determinant"),
            "poly.zero_minor_share":
                share(self.zero_minors, self.calls.get("determinant", 0)),
            "linalg.rank_exact_calls": per_op_calls("rank_exact"),
            "linalg.rank_exact_ms": per_op_ms("rank_exact"),
            "verdict.self_ms": (self.self_ms["full_report"] / ops, "ms"),
            "report.render_ms": per_op_ms("render_text", "render_json"),
            "moment.stabilizer_ms": per_op_ms("stabilizer_report"),
            "geometry.fd_jacobian_ms": per_op_ms("fd_jacobian"),
        }
