"""Every name a module exports through __all__ exists, so `import *` works."""

import importlib
import pkgutil

import pytest

import approxsym

MODULES = ["approxsym"] + sorted(f"approxsym.{m.name}"
                                 for m in pkgutil.iter_modules(approxsym.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
