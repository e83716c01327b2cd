import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["gaincap", "gaincap.capacity", "gaincap.lp", "gaincap.linalg"]
)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
