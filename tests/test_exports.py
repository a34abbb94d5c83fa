"""Every exported name of the package resolves."""

import importlib

import pytest

MODULES = [
    "assembly",
    "bspline",
    "experiments",
    "geometry",
    "linalg",
    "solver",
    "stabilization",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # No test star-imports, so a deleted name left in __all__ would go unseen.
    module = importlib.import_module("monoiga." + name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
