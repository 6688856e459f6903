"""Every name a dsaa module exports through __all__ is defined there."""

import importlib
import pkgutil

import pytest

import dsaa

MODULES = ["dsaa"] + sorted(
    m.name for m in pkgutil.walk_packages(dsaa.__path__, "dsaa."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_subpackages_declare_all():
    packages = [m.name for m in pkgutil.iter_modules(dsaa.__path__, "dsaa.")
                if m.ispkg]
    assert packages
    for name in packages:
        assert hasattr(importlib.import_module(name), "__all__"), name
