"""Every name a module exports through __all__ exists, so `import *` works,
every function the benchmark's layer trace wraps still exists, and every
function in src/ is reached by the program or the benchmark."""

import ast
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


# ---------------------------------------------------------------------------
# every function in src/ is reached by the program, or is public API

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "approxsym").glob("*.py"))
# the observability API that the in-program tracer and cache bounds build on
# (ROADMAP direction 6); no command calls them yet
UNREACHED_API = {"cache_stats", "clear_caches"}


def _definitions(tree):
    """(name, node) of every module-level function and non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def test_every_function_in_src_is_reached():
    trees = {path: ast.parse(path.read_text()) for path in
             SOURCES + sorted((ROOT / "bench").glob("*.py"))}
    references = {}   # name -> ids of the Name and Attribute nodes naming it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.setdefault(name, []).append(id(node))
    unreached = []
    for path in SOURCES:
        for qualname, node in _definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            if name in approxsym.__all__ or name in UNREACHED_API:
                continue
            own = {id(n) for n in ast.walk(node)}   # recursion does not count
            if all(ref in own for ref in references.get(name, ())):
                unreached.append(f"{path.stem}.{qualname}")
    assert not unreached, f"no command or benchmark reaches: {unreached}"
