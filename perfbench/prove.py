"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/prove.py [--out FILE]

For each workload, runs run.py once per seed 1..RUNS with tracing off and
prints, per end-to-end metric, the median of the runs and the spread
(third minus first quartile, statistics.quantiles(n=4), over the median)
against the metric's bound in BENCHMARK.json.  Then it makes TRACED traced
runs and checks that every count repeats exactly.  With --out it writes
everything, environment included, as JSON: a baseline to compare against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
TRACED = 2


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result line, env line) of one run.py invocation."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True, timeout=300).stdout.splitlines()
    env = json.loads(next(ln for ln in out if ln.startswith("env "))[4:])
    return json.loads(out[-1]), env


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default=None)
    ns = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {"runs": RUNS, "workloads": {}}
    ok = True
    for name in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            res, env = bench(name, seed, 0)
            runs.append({"seed": seed, "result": res, "env": env})
            ok &= res["correct"]
            print(name, seed, {m: round(v["value"], 4)
                               for m, v in res["metrics"].items()}, flush=True)
        metrics = {}
        for m, bound in bounds.items():
            values = [r["result"]["metrics"][m]["value"] for r in runs]
            med, spr = spread(values)
            metrics[m] = {"median": med, "spread": spr, "bound": bound,
                          "values": values}
            mark = "ok" if spr < bound / 3 else ("WIDE" if spr > bound else "over 1/3")
            print(f"{name:15s} {m:12s} median {med:.4f} spread {spr:.3f} "
                  f"bound {bound} {mark}", flush=True)
        traced = [bench(name, 1, 1)[0] for _ in range(TRACED)]
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if v["unit"] != "s"} for t in traced]
        repeat = all(c == counts[0] for c in counts)
        ok &= repeat and all(t["correct"] for t in traced)
        print(f"{name:15s} counters repeat exactly across {len(traced)} traced "
              f"runs: {repeat}", flush=True)
        summary["workloads"][name] = {
            "end_to_end": metrics, "runs": runs,
            "per_layer": traced[0]["metrics"] if traced else None,
            "counters_repeat": repeat}
    if ns.out:
        Path(ns.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
