"""Every name a module exports exists, so a stale export fails here and
not at a user's `from orbitadm import *`."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import orbitadm
from orbitadm import cli, linalg, poly, problemfile
from orbitadm.verdict import AnalysisConfig

MODULES = ["orbitadm"] + [f"orbitadm.{info.name}"
                          for info in pkgutil.iter_modules(orbitadm.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing


def test_star_import_resolves_every_name():
    # the package imports each name from its module on first use
    namespace = {}
    exec("from orbitadm import *", namespace)
    assert set(orbitadm.__all__) <= namespace.keys()
    for name in orbitadm.__all__:
        assert namespace[name] is getattr(orbitadm, name)


def test_package_surface_is_pinned():
    # what the commands, the README's Library block, the demos and the
    # benchmark use; a name that only tests call must not creep back in
    assert set(orbitadm.__all__) == {
        "LieAlgebra", "Violation", "StructureReport",
        "DimensionMismatchError", "from_brackets", "validate",
        "structure_report", "DisagreementError", "SamplingMissError",
        "ad_matrix", "point_on_variety", "StabilizerReport",
        "stabilizer_report",
        "MonomialDatum", "RankDeficientError", "NotClosedError",
        "NotACharacterError", "build_datum",
        "GenericRankResult", "generic_h_orbit_dim", "symbolic_generic_rank",
        "WorkLimitError",
        "FullReport", "AnalysisConfig", "InvalidAlgebraError",
        "StructuralPreconditionError", "check_problem", "decide",
        "JacobianReport", "fd_jacobian", "numerical_rank",
        "ProblemFile", "ParseError", "parse",
        "__version__",
    }


def test_readme_library_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    rep = namespace["rep"]
    assert (rep.generic.d_tau, rep.spectral, rep.admissibility) == (
        1, "Singular", "NotAdmissible")


def test_the_exporting_modules_are_checked():
    exporting = {m for m in MODULES
                 if hasattr(importlib.import_module(m), "__all__")}
    assert {"orbitadm", "orbitadm.moment"} <= exporting


def test_option_surface_is_pinned():
    # an option that only changes what is printed must not creep back in
    assert tuple(inspect.signature(AnalysisConfig).parameters) == (
        "trials", "bound", "seed")
    assert problemfile.CONFIG_KEYS == {"seed", "trials", "bound"}
    # --symbolic changes nothing, and validate draws no random numbers, but
    # scripts pass both, so they stay accepted
    surface = {command: {name: kind for name, (kind, _, _) in options.items()}
               for command, (_, _, options) in cli.COMMANDS.items()}
    assert surface == {
        "validate": {"--seed": int},
        "verdict": {"--trials": int, "--bound": int, "--seed": int,
                    "--symbolic": None, "--json": None},
        "rank": {"--point": str},
        "jacobian": {"--point": str, "--step": float, "--tol": float},
        "corpus": {},
    }
    assert {command: takes_file for command, (_, takes_file, _)
            in cli.COMMANDS.items()} == {"validate": True, "verdict": True,
                                         "rank": True, "jacobian": True,
                                         "corpus": False}
    assert [(command, name) for command, (_, _, options)
            in cli.COMMANDS.items() for name, (_, default, _)
            in options.items() if default is cli.REQUIRED] \
        == [("rank", "--point"), ("jacobian", "--point")]


def test_linalg_is_the_integer_kernel():
    # one elimination, its back-substitution, kernel, residue and
    # coordinates, the one clearing of rationals to integers and a dense
    # product; no Fraction layer.  bareiss, for
    # the polynomial pencil, is defined in poly, which loads only when it
    # runs
    public = {name for name, obj in vars(linalg).items()
              if not name.startswith("_")
              and getattr(obj, "__module__", linalg.__name__)
              == linalg.__name__}
    assert public == {"echelon", "integer_rref", "integer_kernel",
                      "residue", "coordinates", "cleared", "matmul",
                      "WorkLimitError"}
    assert poly.bareiss.__module__ == poly.__name__
    tree = ast.parse(inspect.getsource(linalg))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in imported
    assert not hasattr(linalg, "Fraction")
