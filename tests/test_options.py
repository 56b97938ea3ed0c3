"""The command-line reader against the argparse parser it replaced.

``cli._read`` reads argv left to right against the option table
``cli.COMMANDS``.  The reference below is the parser it replaced, kept here
as it was: ``build_parser`` with its ``_Parser``, and ``_bind_values``,
which joined ``--point``, ``--step`` and ``--tol`` to the next word by '='
so that argparse would not read a value such as ``-1/2,3`` as an option.

The reader takes the next word as the value of every valued option of the
command, named in full or by a unique prefix, up to ``--``.  So on any
line it reads as the reference does once ``_bind_all`` has joined each
such option to its next word: where the reference accepts, with the same
command and values (or help); where it refuses, ``cli.main`` exits 1 with
one ``error:`` line and no output.  That binding is ``_bind_values``'s on
every line but three kinds, where the old outcome changes:

- an int option or a prefix such as ``--poi`` whose value starts with '-'
  and is not a plain number, such as ``--seed -1_000`` or
  ``--poi -1,2``: the old parser read the value as an option and refused
  the line; now it is the value, as the '=' form always was;
- ``--point``, ``--step`` or ``--tol`` on a command that has no such
  option: the old binding still swallowed the next word;
- the same three after ``--``: the old binding joined two positional
  words into one.

The reference is argparse as of Python 3.11, the version the reader was
written against; later versions read ``--`` and refuse an unknown command
differently, so the comparison runs on 3.10 and 3.11 alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitadm import cli
from orbitadm.problemfile import _UsageError

from conftest import run_cli

# --- the reference: argparse, as cli.py built it ----------------------------


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


# --- the reference run, and the reader run, as comparable outcomes --------


def _subparser(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


# argparse drops a value '--' (as in --point=--) and leaves [], on which
# the old command failed with a traceback; the reader keeps the '--', so
# the bound line carries it as this word, which argparse keeps
_DASHES = "<-->"


def _bind_all(command, words) -> list[str]:
    """The words after ``command`` with each valued option, named in full
    or by a unique prefix, joined by '=' to the next word, up to '--'."""
    actions = _subparser(command)._option_string_actions
    out = []
    words = iter(words)
    for word in words:
        if word == "--":
            out += [word, *words]
            break
        head, eq, value = word.partition("=")
        names = [name for name in actions if name.startswith(head)] \
            if head.startswith("--") else []
        name = head if head in actions else (
            names[0] if len(names) == 1 else None)
        if name and actions[name].nargs is None:
            value = value if eq else next(words, None)
            if value is not None:
                word = f"{head}={_DASHES if value == '--' else value}"
        out.append(word)
    return out


def reference(argv) -> tuple:
    """("ok", values), ("help", {}) or ("error", message)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            values = vars(build_parser().parse_args(argv))
    except _UsageError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        assert exc.code == 0
        return "help", {}
    return "ok", {key: "--" if value == _DASHES else value
                  for key, value in values.items()}


def read(argv) -> tuple:
    try:
        args = cli._read(list(argv))
    except _UsageError as exc:
        return "error", str(exc)
    return ("help", {}) if isinstance(args, str) else ("ok", vars(args))


# --- argv drawn from the options, their prefixes and awkward values -------

COMMANDS = list(cli.COMMANDS)
LONG = sorted({name for _, _, options in cli.COMMANDS.values()
               for name in options} | {"--help"})
VALUES = ["1", "0", "-3", "-0", "5", "1_000", "-1_000", "-1/2,3", "1,2",
          "-1,2", "", " ", "-", "--", "-inf", "1e-4", "-1e-3", "-.5", "nan",
          "x", "-x", "--x", "-3 ", " -3", "2.5"]
STRAYS = ["F", "-", "--", "---", "--x", "-x", "-h", "--help", "-hh", "-h3",
          "--assume-exponential", "x y", "--x y", "-3"]


def _prefixes(names) -> list[str]:
    return sorted({name[:k] for name in names for k in range(3, len(name))})


@st.composite
def option_words(draw, names):
    """An option, or a prefix of one, bare, with its value after '=' or
    in the next word, or given twice."""
    name = draw(st.sampled_from(names))
    value = draw(st.sampled_from(VALUES))
    form = draw(st.sampled_from(["bare", "next", "equals", "twice"]))
    if form == "bare":
        return [name]
    if form == "equals":
        return [f"{name}={value}"]
    if form == "twice":
        return [name, value, name, draw(st.sampled_from(VALUES))]
    return [name, value]


ANY_OPTION = option_words(["-h", *LONG, *_prefixes(LONG)])


@st.composite
def argvs(draw) -> tuple:
    """(words before the command, the command, the words after it)."""
    before = draw(st.lists(st.sampled_from(["--bogus", "-h", "--he", "-x",
                                            "-hh", "--help=1"]),
                           max_size=2)) \
        if draw(st.integers(0, 9)) == 0 else []
    command = draw(st.sampled_from(COMMANDS + ["frobnicate", "--", "-3",
                                               "x y", ""]))
    own = list(cli.COMMANDS.get(command, ("", False, {}))[2])
    parts = draw(st.lists(st.one_of(
        option_words(own + _prefixes(own)) if own else ANY_OPTION,
        ANY_OPTION, st.just(["FILE"]),
        st.sampled_from(STRAYS).map(lambda w: [w]),
        st.sampled_from(VALUES).map(lambda w: [w])), max_size=6))
    return before, command, [word for part in parts for word in part]


_PINNED_TO = (3, 10), (3, 11)
on_the_reference_python = pytest.mark.skipif(
    sys.version_info[:2] not in _PINNED_TO,
    reason="the reference is argparse as the reader was written against")


@on_the_reference_python
@settings(max_examples=1000, deadline=None, database=None)
@given(argvs())
def test_reader_matches_the_reference(line):
    before, command, after = line
    argv = [*before, command, *after]
    got = read(argv)
    bound = [*before, command, *_bind_all(command, after)] \
        if command in cli.COMMANDS else argv
    expected = reference(bound)
    assert got[0] == expected[0]
    if got[0] == "error":
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    else:  # by repr, so that a step or tol of nan compares equal
        assert repr(sorted(got[1].items())) \
            == repr(sorted(expected[1].items()))


@pytest.mark.parametrize("argv, values", [
    (["verdict", "F", "--seed", "-1_000"], {"seed": -1000}),
    (["rank", "F", "--poi", "-1,2"], {"point": "-1,2"}),
    (["jacobian", "F", "--point", "1", "--st", "-inf"],
     {"step": float("-inf")}),
])
def test_a_value_that_looks_like_an_option(argv, values):
    # the old parser read such a word as an option and refused the line;
    # the reader takes it as the value, as the '=' form always did
    command, *after = argv
    kind, args = read(argv)
    assert (kind, args) == reference([command, *_bind_all(command, after)])
    assert values.items() <= args.items()


@pytest.mark.parametrize("argv, old, new", [
    # --point swallowed '--' on validate, so -h was read as an option
    (["validate", "F", "--point", "--", "-h"], ("help", {}),
     ("error", "unrecognized arguments: --point -- -h")),
    # two words after '--' were joined into one positional
    (["jacobian", "--point", "1", "--", "--point", "2"],
     ("ok", {"command": "jacobian", "file": "--point=2", "point": "1",
             "step": 1e-4, "tol": 1e-8}),
     ("error", "unrecognized arguments: 2")),
])
def test_the_old_binding_outside_the_options(argv, old, new):
    assert reference(_bind_values(argv)) == old
    assert read(argv) == new


@pytest.mark.parametrize("argv", [
    ["verdict", "F", "--js"], ["verdict", "F", "--sym"],
    ["verdict", "F", "--seed", "-3"], ["verdict", "F", "--seed=-3"],
    ["verdict", "F", "--seed", "1", "--seed", "5", "--tri", "2"],
    ["rank", "F", "--point", "-1/2,3"], ["rank", "F", "--point=-1/2,3"],
    ["rank", "F", "--point", ""], ["rank", "--point=", "--", "F"],
    ["verdict", "--", "F"], ["verdict", "F", "--"],
    ["jacobian", "F", "--point", "-1,2", "--step", "-inf", "--tol=1e-3"],
    ["corpus"], ["validate", "--seed", "2", "F"],
])
def test_accepted_lines_give_the_reference_values(argv):
    # argparse accepts these alike on every Python from 3.10 to 3.13
    assert read(argv) == reference(_bind_values(argv))


def test_help_goes_to_out():
    for argv in (["-h"], ["--he"], ["--bogus", "--help"], ["rank", "-hh"],
                 ["verdict", "--help", "--seed", "x"],
                 ["verdict", "extra", "--frob", "-h"]):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: orbitadm")
