"""Outside-in layer trace: timing wrappers around approxsym's public functions.

The wrappers are installed by identity.  ``determine`` and ``models`` import
``noether`` functions by name, so patching ``noether.noether_fluxes`` alone
would miss their calls; instead every attribute of every loaded
``approxsym.*`` module (and every class in them) that *is* the original
function object is replaced.  Nothing under ``src/`` is edited.

For each wrapped function F the tracer records ``<module>.<F>.calls``,
``.s`` (inclusive time of the outermost activations, so recursion is not
counted twice) and ``.self_s`` (time minus the time of wrapped children,
kept with an explicit call stack).
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time

# (module, qualified name) of every wrapped function, in pipeline order
TARGETS = [
    ("lang", "Language.parse"),
    ("perturb", "expand_series"),
    ("symmetry", "Generator.prolong"),
    ("symmetry", "Generator.apply"),
    ("noether", "variational_residual"),
    ("noether", "noether_fluxes"),
    ("noether", "divergence_check"),
    ("noether", "el_solved_map"),
    ("noether", "classify"),
    ("expr", "is_zero"),
    ("expr", "linear_coeffs"),
    ("linalg", "nullspace"),
    ("linalg", "sparse_rref"),
    ("determine", "extract"),
    ("determine", "solve"),
    ("determine", "membership"),
    ("numverify", "compile_numeric"),
    ("numverify", "integrate"),
    ("numverify", "drift"),
    ("numverify", "eps_sweep"),
    ("numverify", "compile_full"),
    ("models", "load_builtin"),
    ("models", "golden_check"),
]

# counters recorded by the result hooks below and by garbage collection;
# run.py derives steps_per_s from the summed steps and integrate time
EXTRA = [
    "expr.is_zero.true", "expr.is_zero.false", "expr.is_zero.unknown",
    "expr.is_zero.true_s", "expr.is_zero.false_s",
    "noether.noether_fluxes.rejected",
    "determine.unknowns", "determine.equations", "determine.rank",
    "numverify.integrate.steps", "numverify.integrate.steps_per_s",
    "gc.collections", "gc.s",
]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, qual in TARGETS:
        names += [f"{module}.{qual}.{field}" for field in ("calls", "s", "self_s")]
    return names + EXTRA


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_frac"):
        return "ratio"
    return "s" if last == "s" or last.endswith("_s") else "count"


class Tracer:
    """Per-process layer statistics; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.values: dict[str, float] = dict.fromkeys(metric_names(), 0)
        self.sites: dict[str, int] = {}
        self._stack: list[list[float]] = []   # child time of each open call
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = None

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target; a missing one raises before anything is patched."""
        originals = {}
        for module, qual in TARGETS:
            obj = importlib.import_module(f"approxsym.{module}")
            for part in qual.split("."):
                obj = getattr(obj, part, None)
                if obj is None:
                    raise LookupError(f"approxsym.{module}.{qual} does not exist")
            originals[f"{module}.{qual}"] = obj
        for name, original in originals.items():
            self.sites[name] = self._replace(original, self._wrap(name, original))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _replace(self, original, wrapper) -> int:
        holders = []
        for name, mod in list(sys.modules.items()):
            if name != "approxsym" and not name.startswith("approxsym."):
                continue
            holders.append(mod)
            holders += [v for v in vars(mod).values()
                        if isinstance(v, type) and v.__module__ == mod.__name__]
        count = 0
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._patched.append((holder, attr, original))
                    count += 1
        return count

    # -- timing -----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        values, stack, depth = self.values, self._stack, self._depth
        calls_key, s_key, self_key = f"{name}.calls", f"{name}.s", f"{name}.self_s"
        hook = _HOOKS.get(name)
        depth[name] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += dt
                values[calls_key] += 1
                values[self_key] += dt - frame[0]
                if depth[name] == 0:
                    values[s_key] += dt
                if hook is not None:
                    hook(values, args, result, error, dt)

        return wrapper

    def _on_gc(self, phase: str, info: dict):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.values["gc.s"] += time.perf_counter() - self._gc_start
            self.values["gc.collections"] += 1
            self._gc_start = None


# -- result hooks: counters that need the arguments or the result ------------


def _is_zero_hook(values, args, result, error, dt):
    if result is True:
        values["expr.is_zero.true"] += 1
        values["expr.is_zero.true_s"] += dt
    elif result is False:
        values["expr.is_zero.false"] += 1
        values["expr.is_zero.false_s"] += dt
    elif error is None:
        values["expr.is_zero.unknown"] += 1


def _fluxes_hook(values, args, result, error, dt):
    from approxsym.errors import NotAVariationalSymmetry
    if isinstance(error, NotAVariationalSymmetry):
        values["noether.noether_fluxes.rejected"] += 1


def _extract_hook(values, args, result, error, dt):
    if result is not None:
        values["determine.unknowns"] += result.n_unknowns
        values["determine.equations"] += len(result.equations)


def _solve_hook(values, args, result, error, dt):
    if result is not None:
        values["determine.rank"] += args[0].n_unknowns - len(result)


def _integrate_hook(values, args, result, error, dt):
    if result is not None:
        values["numverify.integrate.steps"] += len(result.ts) - 1


_HOOKS = {
    "expr.is_zero": _is_zero_hook,
    "noether.noether_fluxes": _fluxes_hook,
    "determine.extract": _extract_hook,
    "determine.solve": _solve_hook,
    "numverify.integrate": _integrate_hook,
}
