"""The public surface: what the package exports is what its modules declare."""

import importlib
import pkgutil
import types

import pytest

import qhahn

MODULES = [importlib.import_module(f"qhahn.{info.name}")
           for info in pkgutil.iter_modules(qhahn.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_declared_name_resolves(module):
    assert sorted(set(module.__all__)) == sorted(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_reexport_is_declared_by_its_home_module():
    undeclared = []
    for name in dir(qhahn):
        obj = getattr(qhahn, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        home = importlib.import_module(obj.__module__)
        if name not in getattr(home, "__all__", ()):
            undeclared.append(f"{home.__name__}.{name}")
    assert undeclared == []
