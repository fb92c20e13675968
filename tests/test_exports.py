"""Public names resolve: each module's ``__all__`` lists only names the
module defines, and every name the package imports from a module exists
there and is in that module's ``__all__`` when it has one."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import multiscreen

MODULES = sorted(m.name for m in pkgutil.iter_modules(multiscreen.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    mod = importlib.import_module(f"multiscreen.{name}")
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if not hasattr(mod, n)] == []
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from multiscreen.{name} import *", namespace)


def test_package_imports_resolve():
    tree = ast.parse(Path(multiscreen.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports
    for module, name in imports:
        mod = importlib.import_module(f"multiscreen.{module}")
        assert hasattr(mod, name), f"{module}.{name}"
        assert name in getattr(mod, "__all__", [name]), f"{module}.{name}"
        assert getattr(multiscreen, name) is getattr(mod, name)
