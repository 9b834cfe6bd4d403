"""Every name a module of the package exports resolves.

Tools that walk ``__all__`` (tracers, ``from relurec.x import *``) call
``getattr`` on each name, so a stale entry would fail there first.
"""

import importlib

import pytest

MODULES = ("bias", "cli", "generate", "harness", "lasso", "replearn", "subspace")


@pytest.mark.parametrize("name", ["relurec", *(f"relurec.{m}" for m in MODULES)])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
