"""Every name a module exports exists, so a stale export fails here and
not at a user's `from orbitadm import *`."""

import importlib
import pkgutil
from dataclasses import fields

import pytest

import orbitadm
from orbitadm import problemfile
from orbitadm.verdict import AnalysisConfig

MODULES = ["orbitadm"] + [f"orbitadm.{info.name}"
                          for info in pkgutil.iter_modules(orbitadm.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing


def test_the_exporting_modules_are_checked():
    exporting = {m for m in MODULES
                 if hasattr(importlib.import_module(m), "__all__")}
    assert {"orbitadm", "orbitadm.moment"} <= exporting


def test_option_surface_is_pinned():
    # an option that only changes what is printed must not creep back in
    assert tuple(f.name for f in fields(AnalysisConfig)) == (
        "trials", "bound", "seed")
    assert problemfile.CONFIG_KEYS == {"seed", "trials", "bound"}
