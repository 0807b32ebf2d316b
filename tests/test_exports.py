"""Every name a module exports through __all__ exists, so `import *` works,
and every function the benchmark's layer trace wraps still exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import approxsym

MODULES = ["approxsym"] + sorted(f"approxsym.{m.name}"
                                 for m in pkgutil.iter_modules(approxsym.__path__))
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_traced_functions_resolve():
    # bench/tracing.py imports only the standard library; load it by path
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, qualname in tracing.TARGETS:
        obj = importlib.import_module(f"approxsym.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{qualname}")
    assert not missing, f"traced functions missing: {missing}"
