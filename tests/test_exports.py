"""Every name a module lists in __all__ resolves to an attribute."""

import importlib
import pkgutil

import pytest

import rigidkit

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(rigidkit.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"rigidkit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

