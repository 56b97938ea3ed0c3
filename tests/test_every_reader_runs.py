"""Every public function and method of the package runs under a command.

A function that no command runs is a second reader beside the one the
commands use, kept alive only by the docs and the tests.  This test runs
``cli.main`` in-process under ``sys.setprofile``: `validate`, `verdict`,
`verdict --json`, and `rank` and `jacobian` at the chart origin, on every
corpus file and every ``tests/fixtures`` ``.alg``, then `corpus`, and
``decide`` on the skew pencil of ``make_skew3`` (h = span{Y_i}, f = 0),
where no certificate closes and Bareiss elimination runs; that datum is
built there by ``from_brackets``.  Every public module-level function and
public method, property or cached property defined under ``orbitadm``
must have been called, or be on ALLOWED with its reason.
"""

import importlib
import inspect
import io
import pkgutil
import sys
from functools import cached_property
from pathlib import Path

import orbitadm
from orbitadm import cli, verdict
from orbitadm.problemfile import ParseError

from conftest import make_skew3

FIXTURES = Path(__file__).parent / "fixtures"

ALLOWED = {
    "orbitadm.algebra.derived_series_dims":
        "the benchmark's self-test reads it; structure_report forms the "
        "series itself",
    "orbitadm.geometry.expm":
        "jacobian runs it only for a step past the Taylor series' range",
    "orbitadm.geometry.coadjoint_apply_factors":
        "the tested unit of the coadjoint action, which jacobian runs "
        "through _coadjoint_apply_acts",
}


def _public_code():
    """{qualified name: code object} of every public function, method,
    property and cached property defined in a module of the package."""
    found = {}
    for info in pkgutil.iter_modules(orbitadm.__path__):
        module = importlib.import_module(f"orbitadm.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if inspect.isfunction(obj):
                found[f"{module.__name__}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, cached_property):
                        member = member.func
                    member = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[f"{module.__name__}.{name}.{attr}"] = \
                            member.__code__
    return found


def _argvs():
    """The command lines of the sweep, each chart origin read off the
    file's n - m (one coordinate for a file that does not parse)."""
    files = (sorted(cli.corpus_dir().glob("*.alg"))
             + sorted(FIXTURES.rglob("*.alg")))
    argvs = [["corpus"]]
    for path in files:
        try:
            pf = orbitadm.parse(path.read_text())
            k = pf.algebra.dim - pf.m
        except ParseError:
            k = 1
        origin = "--point=" + ",".join(["0"] * k)
        argvs += [["validate", str(path)], ["verdict", str(path)],
                  ["verdict", "--json", str(path)],
                  ["rank", str(path), origin],
                  ["jacobian", str(path), origin]]
    return argvs


def _called(argvs) -> set:
    """The code objects called while the command lines and the skew pencil's
    ``decide`` run."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for argv in argvs:
            cli.main(argv, out=io.StringIO(), err=io.StringIO())
        rep = verdict.decide(*verdict.check_problem(
            make_skew3(), [{i: 1} for i in range(3)], [0, 0, 0]))
    finally:
        sys.setprofile(previous)
    assert rep.generic.proof == "bareiss"
    return seen


def test_every_public_function_runs_or_is_allowed():
    code = _public_code()
    seen = _called(_argvs())
    never = sorted(name for name, c in code.items() if c not in seen)
    assert never == sorted(ALLOWED)
