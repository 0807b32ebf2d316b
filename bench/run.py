"""approxsym benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload discover --seed 1 --seconds 25 --trace 0

Load model: closed loop, one client, one case at a time, each case in a
fresh worker process (one CLI invocation with cold caches).  A round runs
every case of the workload once; rounds repeat while another fits in
``--seconds``, which also covers set-up.  Set-up is measured apart, by
workers that only import ``approxsym`` and load the workload's models.
Every worker runs pinned to one CPU and reports its times at the reference
speed that ``speed.py`` samples beside it, so that other tenants of a shared
host do not move them; the raw clock times are printed too.
Every answer is checked against ``reference.py``; a wrong answer, an
exception, a timeout or the memory cap is a failed operation, and the
timings are still reported.

With ``--trace 0`` the last line carries the end-to-end metrics (medians
over rounds).  With ``--trace 1`` untraced and traced rounds alternate: the
last line carries the per-layer metrics (medians over traced rounds), every
traced output must equal the untraced one, and the tracing overhead is
printed.  The last line of standard output is always one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import cases
import reference
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# set-up is timed by SETUP_PROBES workers before the rounds and as many after
# them, so that both ends of the run are sampled; setup_s is their median
SETUP_PROBES = 4
# every worker runs on this one CPU, so its speed samples see the case's core
CPU = max(os.sched_getaffinity(0))
MEMORY_MB = 1024        # address-space cap of every worker
HARD_LIMIT_S = 150.0    # no case starts, and every case is killed, past this

UNITS = {"wall_s": "s", "cpu_s": "s", "slowest_case_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB"}


def run_case(kind: str, models: list[str], seed: int = 0, trace: bool = False,
             timeout_s: float | None = None, memory_mb: int = MEMORY_MB) -> dict:
    """Run one case in a fresh worker; return its timings, output and verdicts."""
    timeout_s = cases.TIMEOUT_S[kind] if timeout_s is None else timeout_s
    spec = {"kind": kind, "models": models, "seed": seed, "trace": trace,
            "timeout_s": timeout_s, "memory_mb": memory_mb, "src": SRC, "cpu": CPU}
    env = dict(os.environ, PYTHONHASHSEED="0")   # set order, hence work, is fixed
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    error = None
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        error = f"timeout after {timeout_s:g} s"
    elapsed = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {"kind": kind, "model": models[0], "elapsed_s": elapsed,
              "cpu_s": (after.ru_utime - before.ru_utime)
              + (after.ru_stime - before.ru_stime)}
    lines = out.strip().splitlines()
    if error is None and proc.returncode == 0 and lines:
        result.update(json.loads(lines[-1]))
    elif error is None:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        error = f"worker exited with {proc.returncode}: {tail[0]}"
    if error is not None:
        result["error"] = error
    if "case_s" not in result:   # killed or crashed: the time until then, as measured
        result["case_s"] = result["raw_case_s"] = elapsed
    result["cpu_s"] = result.pop("case_cpu_s", result["cpu_s"])
    if "error" in result:
        result["verdicts"] = dict.fromkeys(_operations(kind, models[0]), result["error"])
    else:
        result["verdicts"] = reference.check(kind, models[0], result["output"],
                                             cases.SCREEN_CANDIDATES)
        result["digest"] = hashlib.sha256(
            json.dumps(result["output"], sort_keys=True).encode()).hexdigest()
    return result


def _operations(kind: str, model: str) -> list[str]:
    return reference.operations(kind, model, cases.SCREEN_CANDIDATES)


def run_round(workload: str, seed: int, trace: bool, hard_deadline: float) -> list[dict]:
    results = []
    for kind, model in cases.WORKLOADS[workload]:
        left = hard_deadline - time.perf_counter()
        if left <= 1.0:
            reason = "not started: run time limit reached"
            results.append({"kind": kind, "model": model, "elapsed_s": 0.0,
                            "case_s": 0.0, "raw_case_s": 0.0, "cpu_s": 0.0,
                            "error": reason,
                            "verdicts": dict.fromkeys(_operations(kind, model), reason)})
            continue
        timeout = min(cases.TIMEOUT_S[kind], left)
        results.append(run_case(kind, [model], seed, trace, timeout))
    return results


def measure_setup(workload: str) -> list[float]:
    """Set-up times of SETUP_PROBES workers that only load the workload's models."""
    names = list(dict.fromkeys(m for _, m in cases.WORKLOADS[workload]))
    samples = []
    for _ in range(SETUP_PROBES):
        probe = run_case("setup", names)
        if "error" in probe:
            raise RuntimeError(f"set-up failed: {probe['error']}")
        samples.append(probe["setup_s"])
    return samples


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run the workload; return (metrics, attempted, failed, report lines)."""
    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    setup = measure_setup(workload)
    setup_s = time.perf_counter() - start
    rounds: list[tuple[bool, list[dict], float]] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        rounds.append((traced, run_round(workload, seed, traced, hard_deadline),
                       time.perf_counter() - t0))
        if len(rounds) < (2 if trace else 1):
            continue
        # stop unless another round of the last rounds' length and the
        # closing set-up probes still fit
        need = max(r[2] for r in rounds[-2:]) + setup_s
        now = time.perf_counter()
        if now - start + need > seconds or now + need > hard_deadline:
            break
    setup += measure_setup(workload)

    lines = []
    attempted = failed = 0
    for traced, results, _ in rounds:
        for res in results:
            for op, why in res["verdicts"].items():
                attempted += 1
                if why:
                    failed += 1
                    lines.append(f"FAILED {res['kind']} {res['model']} {op}: {why}")
    plain = [r for t, r, _ in rounds if not t]
    per_round = {
        "wall_s": [sum(c["case_s"] for c in r) for r in plain],
        "cpu_s": [sum(c["cpu_s"] for c in r) for r in plain],
        "slowest_case_s": [max(c["case_s"] for c in r) for r in plain],
    }
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {}
    lines.append(f"workload {workload}: seed {seed}, {len(plain)} untraced round(s) "
                 f"of {len(cases.WORKLOADS[workload])} case(s), "
                 f"{attempted} operations, {failed} failed "
                 f"(failed_frac {failed / max(attempted, 1):.4f})")
    lines.append("  times at the reference speed of speed.py; raw: as the clock read")
    for name, values in per_round.items():
        q1, q2, q3 = _quartiles(values)
        metrics[name] = q2
        lines.append(f"  {name:15s} median {q2:.4f} s  quartiles {q1:.4f}..{q3:.4f}"
                     f"  n={len(values)}")
    raw = statistics.median(sum(c["raw_case_s"] for c in r) for r in plain)
    lines.append(f"  {'raw wall_s':15s} median {raw:.4f} s")
    q1, q2, q3 = _quartiles(setup)
    metrics["setup_s"] = q2
    lines.append(f"  {'setup_s':15s} median {q2:.4f} s  quartiles {q1:.4f}..{q3:.4f}"
                 f"  n={len(setup)}")
    metrics["peak_rss_mb"] = peak_kb / 1024
    lines.append(f"  {'peak_rss_mb':15s} {peak_kb / 1024:.1f} MB (largest worker)")
    for res in plain[0]:
        lines.append(f"  case {res['kind']} {res['model']}: {res['case_s']:.3f} s "
                     f"(raw {res['raw_case_s']:.3f} s)")
    if not trace:
        return ({k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
                attempted, failed, lines)

    traced_rounds = [r for t, r, _ in rounds if t]
    mismatched = _compare_outputs(plain, traced_rounds)
    for key in mismatched:
        lines.append(f"FAILED traced output differs from untraced: {key}")
    failed += len(mismatched)
    attempted += len(mismatched)
    layer = _layer_metrics(traced_rounds)
    traced_wall = statistics.median(sum(c["case_s"] for c in r) for r in traced_rounds)
    overhead = traced_wall / metrics["wall_s"] - 1.0
    lines.append(f"tracing overhead: {overhead:+.2%} of wall_s "
                 f"({traced_wall:.3f} s traced vs {metrics['wall_s']:.3f} s untraced); "
                 f"traced outputs identical: {not mismatched}")
    sites = next((c["sites"] for r in traced_rounds for c in r if "sites" in c), {})
    lines.append("wrapper sites: " + ", ".join(f"{k}={v}" for k, v in sites.items()))
    layer["tracing.overhead_frac"] = overhead
    return ({k: {"value": v, "unit": tracing.unit(k)} for k, v in layer.items()},
            attempted, failed, lines)


def _compare_outputs(plain, traced_rounds) -> list[str]:
    """Cases whose traced output differs from the first untraced output."""
    base = {(c["kind"], c["model"]): c.get("digest") for c in plain[0]}
    bad = []
    for r in traced_rounds:
        for c in r:
            key = (c["kind"], c["model"])
            if c.get("digest") is not None and c["digest"] != base.get(key):
                bad.append(f"{key[0]} {key[1]}")
    return bad


def _layer_metrics(traced_rounds) -> dict[str, float]:
    """Per-layer values summed over a round's cases, median over rounds."""
    sums = []
    for r in traced_rounds:
        total = dict.fromkeys(tracing.metric_names(), 0.0)
        for c in r:
            for k, v in c.get("trace", {}).items():
                total[k] += v
        s = total["numverify.integrate.s"]
        total["numverify.integrate.steps_per_s"] = (
            total["numverify.integrate.steps"] / s if s > 0 else 0.0)
        sums.append(total)
    return {k: statistics.median(t[k] for t in sums) for k in tracing.metric_names()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "approxsym", "__init__.py")):
        print(f"no approxsym sources under {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failed, lines = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
