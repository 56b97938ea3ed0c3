"""Command-line interface.

Subcommands: validate, verdict, rank, jacobian, corpus.  Exit codes:
0 success; 1 parse/validation error, bad usage, or a sample that missed
the certified rank; 2 structural precondition failed (the algebra is not
solvable, or is decided not exponential, with the check and quotient the
decision rests on); 3 the sampled rank differs from the certified one
(never expected).  `validate` and `verdict` refuse as
``verdict.check_problem`` does, then resolve their settings.

Each command compiles only the code it runs.  This module loads what
`validate`, `verdict` and `corpus` share; ``moment`` loads with the first
`verdict` or `rank`, and ``json`` only for `verdict --json`.  `rank` and
`jacobian` run from ``pointwise``, which no other command loads, and only
`jacobian` imports ``geometry``.  No command imports anything outside the
standard library.  Two more modules load on first use: ``poly``, when no
certificate proves the generic rank and Bareiss elimination runs, and
``univariate``, when a quotient action of the exponentiality decision is
not triangular.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .algebra import (DimensionMismatchError, DisagreementError,
                      SamplingMissError)
from .monomial import NotACharacterError, NotClosedError, RankDeficientError
from .problemfile import EXIT_OK, ParseError, _load, _UsageError
from .report import render_json, render_problem_summary, render_text
from .verdict import (AnalysisConfig, InvalidAlgebraError,
                      StructuralPreconditionError, check_problem, decide)

SEED_ENV_VAR = "ORBITADM_SEED"

# EXIT_OK, 0, is shared with ``pointwise`` through ``problemfile``
EXIT_INVALID = 1
EXIT_PRECONDITION = 2
EXIT_DISAGREEMENT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise _UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="orbitadm",
        description="Spectral type and wavelet admissibility of induced "
                    "representations of exponential solvable Lie groups, "
                    "from rational structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="check structure constants, subalgebra, character, "
                         "and structural preconditions")
    p_validate.add_argument("file")
    p_validate.add_argument("--seed", type=int, default=None,
                            help="accepted for symmetry with verdict; "
                                 "validate draws no random numbers")

    p_verdict = sub.add_parser(
        "verdict", help="full analysis: generic orbit rank and verdicts")
    p_verdict.add_argument("file")
    p_verdict.add_argument("--trials", type=int, default=None)
    p_verdict.add_argument("--bound", type=int, default=None)
    p_verdict.add_argument("--seed", type=int, default=None)
    p_verdict.add_argument("--symbolic", action="store_true",
                           help="accepted for compatibility; changes "
                                "nothing: the rank is proven at the sampled "
                                "witness, or by symbolic elimination when "
                                "no proof is found there")
    p_verdict.add_argument("--json", action="store_true")

    p_rank = sub.add_parser(
        "rank", help="moment-matrix rank and stabilizers at one chart point")
    p_rank.add_argument("file")
    p_rank.add_argument("--point", required=True,
                        help="comma-separated chart coordinates, "
                             "e.g. '1,-2/3'")

    p_jac = sub.add_parser(
        "jacobian", help="finite-difference Jacobian of the action map at a "
                         "chart point, with block deviations")
    p_jac.add_argument("file")
    p_jac.add_argument("--point", required=True)
    p_jac.add_argument("--step", type=float, default=1e-4)
    p_jac.add_argument("--tol", type=float, default=1e-8)

    sub.add_parser("corpus", help="list the bundled example files")
    return parser


def corpus_dir() -> Path:
    return Path(__file__).with_name("corpus")


def corpus_path(name: str) -> Path:
    path = corpus_dir() / (name + ".alg")
    if not path.exists():
        raise FileNotFoundError(f"no bundled example named {name!r}")
    return path


def _settings(args, file_config: dict) -> AnalysisConfig:
    """A flag beats the file's config line, which beats ORBITADM_SEED (the
    seed only), which beats the AnalysisConfig default."""
    flags = {key: vars(args).get(key) for key in ("trials", "bound", "seed")}
    values = {**file_config,
              **{key: v for key, v in flags.items() if v is not None}}
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None and "seed" not in values:
        try:
            values["seed"] = int(env)
        except ValueError:
            raise _UsageError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    config = AnalysisConfig(**values)
    for key in ("trials", "bound"):
        if getattr(config, key) < 1:
            source = (f"--{key}" if flags[key] is not None
                      else f"config {key} in {args.file}")
            raise _UsageError(f"{source} must be at least 1")
    return config


def _checked(args):
    """The problem file, its check and its settings, in that order: a bad
    setting must not mask an input error."""
    pf = _load(args.file)
    structure, datum = check_problem(pf.algebra, pf.generator_terms,
                                     pf.functional_vals)
    return pf, structure, datum, _settings(args, pf.config)


def _cmd_validate(args, out) -> int:
    pf, structure, _datum, _config = _checked(args)
    out.write(render_problem_summary(pf, structure) + "ok\n")
    return EXIT_OK


def _cmd_verdict(args, out) -> int:
    _pf, structure, datum, config = _checked(args)
    rep = decide(structure, datum, config)
    out.write(render_json(rep) if args.json else render_text(rep))
    return EXIT_OK


def _cmd_corpus(args, out) -> int:
    entries = sorted(p for p in corpus_dir().iterdir()
                     if p.name.endswith(".alg"))
    for entry in entries:
        pf = _load(str(entry))
        out.write(f"{entry.name[:-4]:<16} dim {pf.algebra.dim}  "
                  f"m {pf.m}  {entry}\n")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "verdict": _cmd_verdict,
    "corpus": _cmd_corpus,
}


# argparse reads a value that starts with '-' and is not a plain number,
# such as the point -1/2,2 or the step -inf, as an option, and Python 3.13
# changed which values count as numbers; bound with '=' they never do
_VALUED_OPTIONS = ("--point", "--step", "--tol")


def _bind_values(argv) -> list[str]:
    """argv with each of _VALUED_OPTIONS joined to its value by '='."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VALUED_OPTIONS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(
            _bind_values(sys.argv[1:] if argv is None else argv))
    except _UsageError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INVALID
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        command = _COMMANDS.get(args.command)
        if command is None:  # rank and jacobian read one point
            from . import pointwise
            command = getattr(pointwise, "_cmd_" + args.command)
        return command(args, out)
    except (_UsageError, SamplingMissError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INVALID
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return EXIT_INVALID
    except (InvalidAlgebraError, NotClosedError, RankDeficientError,
            NotACharacterError, DimensionMismatchError) as exc:
        print(f"invalid: {exc}", file=err)
        return EXIT_INVALID
    except StructuralPreconditionError as exc:
        print(f"precondition failed: {exc}", file=err)
        return EXIT_PRECONDITION
    except DisagreementError as exc:
        print(f"internal disagreement: {exc}", file=err)
        return EXIT_DISAGREEMENT


if __name__ == "__main__":
    sys.exit(main())
