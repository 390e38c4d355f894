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


def test_cli_reaches_no_private_name_of_another_module():
    # the CLI enters the library through public functions only, each of which
    # checks what it takes
    tree = ast.parse(Path(sphglass.__file__).with_name("cli.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("sphglass"):
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, f"sphglass.cli imports {private} from {node.module}"
            if node.module == "sphglass":
                modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name.startswith("sphglass"))
    assert {"cascade_mod", "mc_mod", "verify_mod"} <= modules
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    assert not private, f"sphglass.cli reads {private}"
