"""Command-line interface.

Subcommands: validate, verdict, rank, jacobian, corpus.  Exit codes:
0 success; 1 parse/validation error, bad usage, or a sample that missed
the certified rank; 2 structural precondition failed (the algebra is not
solvable, or is decided not exponential, with the check and quotient the
decision rests on); 3 the sampled rank differs from the certified one
(never expected).  `validate` and `verdict` refuse as
``verdict.check_problem`` does, then resolve their settings.

The command line is read left to right against one table, ``COMMANDS``,
which gives each command its options and each option its type: ``int``,
``float``, ``str``, or none for a flag.  A valued option always takes the
next word as its value, so ``--point -1/2,3`` and ``--seed -3`` need no
'='; an option may be shortened to a unique prefix, the last of a
repeated option wins, and after ``--`` every word is positional.  ``-h``
and ``--help`` print a usage text built from the table.

Each command compiles only the code it runs.  This module loads what
`validate`, `verdict` and `corpus` share; ``moment`` loads with the first
`verdict` or `rank`, and ``json`` only for `verdict --json`.  `rank` and
`jacobian` run from ``pointwise``, which no other command loads, and only
`jacobian` imports ``geometry``.  No command imports anything outside the
standard library.  Two more modules load on first use: ``poly``, when no
certificate proves the generic rank and Bareiss elimination runs, and
``univariate``, when the exponentiality decision builds the flag of
C^inf.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

from .algebra import (DimensionMismatchError, DisagreementError,
                      SamplingMissError)
from .monomial import NotACharacterError, NotClosedError, RankDeficientError
from .problemfile import EXIT_OK, ParseError, _load, _printable, _UsageError
from .report import render_json, render_problem_summary, render_text
from .verdict import (AnalysisConfig, InvalidAlgebraError,
                      StructuralPreconditionError, check_problem, decide)

# typing.TYPE_CHECKING, read by type checkers; typing is not imported
TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path

SEED_ENV_VAR = "ORBITADM_SEED"

# EXIT_OK, 0, is shared with ``pointwise`` through ``problemfile``
EXIT_INVALID = 1
EXIT_PRECONDITION = 2
EXIT_DISAGREEMENT = 3


# each command: its help, whether it reads a file, and its options; each
# option: its type (``None`` for a flag, which takes no value), its default
# (REQUIRED if it must be given) and its help
REQUIRED = object()
COMMANDS = {
    "validate": (
        "check structure constants, subalgebra, character, and structural "
        "preconditions", True,
        {"--seed": (int, None, "accepted for symmetry with verdict; "
                               "validate draws no random numbers")}),
    "verdict": (
        "full analysis: generic orbit rank and verdicts", True,
        {"--trials": (int, None, ""),
         "--bound": (int, None, ""),
         "--seed": (int, None, ""),
         "--symbolic": (None, False,
                        "accepted for compatibility; changes nothing: the "
                        "rank is proven at the sampled witness, or by "
                        "symbolic elimination when no proof is found there"),
         "--json": (None, False, "")}),
    "rank": (
        "moment-matrix rank and stabilizers at one chart point", True,
        {"--point": (str, REQUIRED, "comma-separated chart coordinates, "
                                    "e.g. '1,-2/3'")}),
    "jacobian": (
        "finite-difference Jacobian of the action map at a chart point, "
        "with block deviations", True,
        {"--point": (str, REQUIRED, ""),
         "--step": (float, 1e-4, ""),
         "--tol": (float, 1e-8, "")}),
    "corpus": ("list the bundled example files", False, {}),
}

_DESCRIPTION = ("Spectral type and wavelet admissibility of induced "
                "representations of exponential solvable Lie groups, from "
                "rational structure constants.")

_HELP = ("-h", "--help")
# a word that starts with '-' but reads as a number is a positional word
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage(command=None) -> str:
    """The help text of ``command``, or of the program when it is None."""
    if command is None:
        return (f"usage: orbitadm [-h] {{{','.join(COMMANDS)}}} ...\n\n"
                f"{_DESCRIPTION}\n\ncommands:\n"
                + "".join(f"  {name:<10}{help_}\n"
                          for name, (help_, _, _) in COMMANDS.items()))
    help_, takes_file, options = COMMANDS[command]
    forms = {name: name if kind is None else f"{name} {name[2:].upper()}"
             for name, (kind, _, _) in options.items()}
    words = ["[-h]"] + [form if options[name][1] is REQUIRED else f"[{form}]"
                        for name, form in forms.items()]
    lines = [f"  {'-h, --help':<20}show this help message and exit"]
    lines += [f"  {forms[name]:<20}{text}".rstrip()
              for name, (_, _, text) in options.items()]
    return (f"usage: orbitadm {command} {' '.join(words)}"
            f"{' file' if takes_file else ''}\n\n{help_}\n\noptions:\n"
            + "\n".join(lines) + "\n")


def _option(word: str, names) -> tuple:
    """(name, value): the option of ``names`` that ``word`` gives, by its
    name or a unique prefix of a long name, and the value it carries after
    '=', else None ('-h' carries what follows it); ('', None) for a
    positional word and (None, None) for an unknown option."""
    if word in names:
        return word, None
    if word[:1] != "-" or word == "-":
        return "", None
    head, eq, value = word.partition("=")
    if eq and head in names:
        return head, value
    if word[1] == "-":
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {word} could match "
                              f"{', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif word.startswith("-h"):
        return "-h", word[2:]
    if _NEGATIVE_NUMBER.match(word) or " " in word:
        return "", None
    return None, None


def _check_help(name: str, value) -> None:
    """-h and --help take no value, but '-hh' is '-h' twice."""
    if name == "-h" and value:
        value = value.lstrip("h") or None
    if value is not None:
        raise _UsageError(
            f"argument -h/--help: ignored explicit argument {value!r}")


def _read(argv):
    """The help text that argv asks for, or a namespace of its command and
    its values, read left to right against COMMANDS.

    A valued option takes the next word as its value, whatever it is, or
    the text after '=' in the same word.  The last of a repeated option
    wins.  After '--' every word is positional.  Usage errors raise
    ``_UsageError``; an unknown option or an extra positional is reported
    only once the line is read, so a later -h still prints help."""
    extras = []
    i = 0
    while i < len(argv) and argv[i] != "--":
        name, value = _option(argv[i], _HELP)
        if name == "":
            break
        if name is None:
            extras.append(argv[i])
        else:
            _check_help(name, value)
            return _usage()
        i += 1
    if i == len(argv):
        raise _UsageError("the following arguments are required: command")
    command = argv[i]
    if command not in COMMANDS:
        raise _UsageError(
            f"argument command: invalid choice: {command!r} (choose from "
            f"{', '.join(map(repr, COMMANDS))})")
    _, takes_file, options = COMMANDS[command]
    names = (*_HELP, *options)
    # every word is read before any is acted on, so an ambiguous prefix
    # is an error even after -h
    tokens = []
    words = iter(argv[i + 1:])
    for word in words:
        if word == "--":
            tokens.append(("--", None))
            tokens += [("", rest) for rest in words]
            break
        name, value = _option(word, names)
        if name == "" or name is None:
            value = word
        elif value is None and options.get(name, (None,))[0] is not None:
            value = next(words, None)
        tokens.append((name, value))
    args = {"command": command}
    args.update((name[2:], default)
                for name, (_, default, _) in options.items())
    file_at = None  # the token that gave the file
    for at, (name, value) in enumerate(tokens):
        if name == "" and takes_file and file_at is None:
            args["file"], file_at = value, at
        elif name == "--":
            # '--' binds to the file positional when the file follows it or
            # is the word just before it; otherwise it is an extra word
            if not takes_file or file_at not in (None, at - 1):
                extras.append(name)
        elif name == "" or name is None:
            extras.append(value)
        elif name in _HELP:
            _check_help(name, value)
            return _usage(command)
        else:
            kind = options[name][0]
            if kind is None:
                if value is not None:
                    raise _UsageError(f"argument {name}: ignored explicit "
                                      f"argument {value!r}")
                value = True
            elif value is None:
                raise _UsageError(f"argument {name}: expected one argument")
            else:
                try:
                    value = kind(value)
                except ValueError:
                    raise _UsageError(f"argument {name}: invalid "
                                      f"{kind.__name__} value: {value!r}")
            args[name[2:]] = value
    missing = ["file"] if takes_file and file_at is None else []
    missing += [name for name in options if args[name[2:]] is REQUIRED]
    if missing:
        raise _UsageError("the following arguments are required: "
                          + ", ".join(missing))
    if extras:
        raise _UsageError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**args)


def corpus_dir() -> Path:
    from pathlib import Path  # only the corpus readers load pathlib
    return Path(__file__).with_name("corpus")


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


_RUN = {
    "validate": _cmd_validate,
    "verdict": _cmd_verdict,
    "corpus": _cmd_corpus,
}


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _read(list(sys.argv[1:] if argv is None else argv))
    except _UsageError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INVALID
    if isinstance(args, str):  # -h or --help
        out.write(args)
        return EXIT_OK
    try:
        command = _RUN.get(args.command)
        if command is None:  # rank and jacobian read one point
            from . import pointwise
            command = getattr(pointwise, "_cmd_" + args.command)
        with _printable("the output"):
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
