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


def _module_aliases(tree, stems) -> set[str]:
    """The names a file's imports bind to modules: ``import json``,
    ``from . import expr as ex``, ``from approxsym import models``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            out |= {a.asname or a.name for a in node.names if a.name in stems}
    return out


def test_every_function_in_src_is_reached():
    trees = {path: ast.parse(path.read_text()) for path in
             SOURCES + sorted((ROOT / "bench").glob("*.py"))}
    stems = {path.stem for path in trees}
    # name -> ids of the nodes naming it that can reach a module-level
    # function, or a method: an attribute of a module alias (``ex.jet``)
    # reaches only the former, any other attribute only the latter
    functions, methods = {}, {}
    for tree in trees.values():
        aliases = _module_aliases(tree, stems)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name, reaches = node.id, (functions, methods)
            elif isinstance(node, ast.Attribute):
                on_module = isinstance(node.value, ast.Name) and node.value.id in aliases
                name, reaches = node.attr, (functions,) if on_module else (methods,)
            else:
                continue
            for references in reaches:
                references.setdefault(name, []).append(id(node))
    unreached = []
    for path in SOURCES:
        for qualname, node in _definitions(trees[path]):
            method = "." in qualname
            name = qualname.rsplit(".", 1)[-1]
            if name in UNREACHED_API or not method and name in approxsym.__all__:
                continue
            own = {id(n) for n in ast.walk(node)}   # recursion does not count
            if all(ref in own for ref in (methods if method else functions).get(name, ())):
                unreached.append(f"{path.stem}.{qualname}")
    assert not unreached, f"no command or benchmark reaches: {unreached}"
