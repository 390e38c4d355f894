"""Every exported name resolves, so deleting a function cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sphglass

MODULES = sorted(m.name for m in pkgutil.iter_modules(sphglass.__path__, "sphglass."))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} declares no __all__"
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(sphglass.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
        assert hasattr(sphglass, name), name
