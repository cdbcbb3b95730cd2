"""Public re-exports: every name a package lists in __all__ resolves, so
a star import cannot break on a stale entry."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["smartran", "smartran.learning"])
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names undefined: {missing}"
