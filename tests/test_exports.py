import ast
import importlib
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
