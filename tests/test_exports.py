import importlib

import pytest

LAYERS = ("tensor", "kernel", "data", "solver", "spectral", "simulate", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    # tracing wraps each layer's __all__ by name, so a stale entry breaks it
    module = importlib.import_module(f"mfcov.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
