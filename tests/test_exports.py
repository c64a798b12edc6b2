import ast
import importlib
import sys
from pathlib import Path

import pytest

import mfcov

LAYERS = ("tensor", "kernel", "data", "solver", "spectral", "simulate", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    # tracing wraps each layer's __all__ by name, so a stale entry breaks it
    module = importlib.import_module(f"mfcov.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_no_module_imports_another_modules_private_name():
    # a rule two modules share lives in a public name of one of them
    found = []
    for path in sorted(Path(mfcov.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "mfcov"):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert not found


def test_package_imports_only_numpy_and_the_standard_library():
    # every import statement, lazy ones inside functions included
    allowed = {"numpy", "mfcov"} | set(sys.stdlib_module_names)
    found = []
    for path in sorted(Path(mfcov.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not found
