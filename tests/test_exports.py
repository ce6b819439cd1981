"""Every name a module of the package lists in __all__ is defined in it,
so a deleted function cannot stay exported (`from ostrocube.x import *`
would fail)."""

import importlib
import pkgutil

import pytest

import ostrocube

MODULES = [f"ostrocube.{info.name}" for info in pkgutil.iter_modules(ostrocube.__path__)
           if info.name != "__main__"]


def test_every_module_lists_its_exports():
    assert {"ostrocube.core", "ostrocube.enclosure", "ostrocube.cli"} <= set(MODULES)
    missing = [name for name in MODULES
               if not getattr(importlib.import_module(name), "__all__", None)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
