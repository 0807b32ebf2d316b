"""Run one benchmark case in this (fresh) process and print its result.

Reads a JSON case spec on stdin, pins itself to the given CPU, starts a
``speed.Sampler``, caps the address space and CPU time with
``resource.setrlimit``, times ``import approxsym`` plus ``load_builtin``
(set-up) and then the case body, and prints one JSON line: ``setup_s``,
``case_s`` and ``case_cpu_s`` at the reference speed, the raw clock times,
the case ``output`` or an ``error``, and with tracing on the layer
statistics.  Started by ``run.py``; not meant to be run by hand.
"""

import json
import os
import resource
import sys
import threading
import time

import cases
import speed
import tracing


def _limit(memory_mb: int, timeout_s: float):
    cap = memory_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    # backstop if the parent dies: the parent kills the worker at timeout_s
    cpu = int(timeout_s) + 2
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 1))


def _cpu_s() -> float:
    """User plus system CPU of this process and of any it waited for."""
    own, kids = (resource.getrusage(who) for who in
                 (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    spec = json.loads(sys.stdin.read())
    os.sched_setaffinity(0, {spec["cpu"]})   # the sampler must see the case's CPU
    threading.stack_size(256 * 1024)
    sampler = speed.Sampler().start()
    _limit(spec["memory_mb"], spec["timeout_s"])
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from approxsym import models
    if not os.path.realpath(models.__file__).startswith(os.path.realpath(spec["src"])):
        print(f"approxsym imported from {models.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 3
    tracer = tracing.Tracer().install() if spec["trace"] else None
    loaded = [models.load_builtin(name) for name in spec["models"]]
    t1 = time.perf_counter()
    inputs = cases.case_inputs(spec["kind"], loaded[0], spec["seed"])
    result = {}
    t2, cpu2 = time.perf_counter(), _cpu_s()
    try:
        result["output"] = cases.CASE_KINDS[spec["kind"]](loaded[0], inputs)
    except Exception as err:  # a failed operation is reported, not raised
        result["error"] = f"{type(err).__name__}: {err}"
    t3, cpu3 = time.perf_counter(), _cpu_s()
    sampler.stop()
    setup, case = sampler.factor(t0, t1), sampler.factor(t2, t3)
    result.update(setup_s=(t1 - t0) * setup, case_s=(t3 - t2) * case,
                  case_cpu_s=(cpu3 - cpu2) * case, raw_setup_s=t1 - t0,
                  raw_case_s=t3 - t2, speed_samples=len(sampler.samples))
    if tracer is not None:
        tracer.uninstall()
        whole = sampler.factor(t0, t3)   # layer times, like case_s, at the reference speed
        result["trace"] = {k: v * whole if tracing.unit(k) == "s" else v
                           for k, v in tracer.values.items()}
        result["sites"] = tracer.sites
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
