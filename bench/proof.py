"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/proof.py --runs 10 [--workload screen ...] [--out FILE]

Runs ``BENCHMARK.json``'s command once per seed (1..runs) for each workload,
untraced, and prints for every end-to-end metric the median, the quartiles
and the spread (third minus first quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them) against the metric's bound.
With ``--out`` the raw result lines and the summary are written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in range(1, args.runs + 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180, check=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(line)
            print(workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in line["metrics"].items()}),
                f"failed {line['failed']}/{line['attempted']}", flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {"median": q2, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / q2,
                                       "bound": metric["bound"]}
            print(f"  {workload:13s} {metric['name']:15s} median {q2:10.4f} "
                  f"{metric['unit']:3s} spread {(q3 - q1) / q2:7.2%} "
                  f"(bound {metric['bound']:.0%})", flush=True)
        report["workloads"][workload] = {
            "summary": summary, "runs": results,
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results)}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
