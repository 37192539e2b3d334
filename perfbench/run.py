"""heckequot benchmark: fixed workloads, run as a closed loop.

    python3 perfbench/run.py --workload NAME|all --seed N [--seconds S] --trace 0|1

Each pass over a workload runs in a fresh child process (child.py), one at
a time, with a fresh cache directory under .perfbench-tmp/ that is passed
as --cache-dir and HECKEQUOT_CACHE and removed afterwards.  Passes repeat
while the next one is expected to end within S seconds (BENCHMARK.json's
run_seconds by default), and there are at least three.  Every item's
output is checked against its gate; a failed item is counted and the run
goes on.

End-to-end metrics (tracing off), medians over the passes:
  wall_s       time of one pass over the items, at the quiet core's speed
  setup_s      child start to the first timed item (interpreter, imports
               and the workload's own set-up), at the quiet core's speed
  peak_rss_mb  ru_maxrss of the child at the end of its pass
fail_frac (failed / attempted items) is printed and is carried by the
`failed` and `attempted` fields of the result line.

Speed correction.  On a shared 2-core machine the core a pass runs on is
at times shared with another tenant, and then runs the pass up to twice
as slowly; the share changes over seconds to minutes, so raw times of
unchanged code drift by more than the bounds between sets of runs.  So
each pass is pinned to one CPU and a separate meter process (meter.py)
on the same CPU times a small fixed kernel every 10 ms, with its caches
refilled first so that what the pass left in them does not count.  A
time is scaled by REF_S over the mean reading taken while it was
measured.  The meter never imports the program.  The raw medians are
printed beside the scaled ones as raw_wall_s and raw_setup_s.

With --trace 1 the run makes one untraced pass and then one more child
runs the pass with the layer wrappers of tracing.py installed; its
per-layer counts and self times are reported, plus trace.overhead_s, the
traced pass minus the untraced one.

Compare medians of ten runs (prove.py does this), never single runs.  A
metric whose passes in one run spread wider than its bound (third minus
first quartile over the median) is marked `unsteady`: that run met the
machine in a changing state, and is better run again.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics, or with --trace 1 the per-layer
ones).  Before it come one line per metric with its unit and one `env`
line recording the machine, the interpreter and the code measured.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench-tmp"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MIN_PASSES = 3
CHILD_TIMEOUT_S = 50  # three passes end well within 180 s

CPU = min(os.sched_getaffinity(0))   # every pass and its meter run here
REF_S = 4.0e-5        # meter.kernel on a quiet core of the baseline machine

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SHOWN = {**END_TO_END, "raw_wall_s": "s", "raw_setup_s": "s"}
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"


# ---- environment ---------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over src/, which names the measured code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ---- passes ------------------------------------------------------------------------
def pin() -> None:
    os.sched_setaffinity(0, {CPU})


def speed_scale(samples: list, start: float, end: float) -> float:
    """REF_S over the mean meter reading between `start` and `end`: the
    factor that turns a time measured then into one at the quiet core's
    speed.  Outside any reading it falls back to all of them."""
    inside = [s for t, s in samples if start <= t <= end] or [s for _, s in samples]
    return REF_S / statistics.mean(inside)


def run_child(workload: str, seed: int, trace: bool) -> dict:
    """One pass in a fresh process with its own cache directory, pinned to
    CPU beside a speed meter (meter.py)."""
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=TMP))
    meter = subprocess.Popen([sys.executable, str(HERE / "meter.py")], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True, preexec_fn=pin)
    try:
        meter.stdout.readline()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONHASHSEED="0", HECKEQUOT_CACHE=str(tmp / "cache"),
                   HOME=str(tmp))
        out = tmp / "result.json"
        argv = [sys.executable, str(HERE / "child.py"), workload,
                "--seed", str(seed), "--cache-dir", str(tmp / "cache"),
                "--out", str(out)] + (["--trace"] if trace else [])
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=CHILD_TIMEOUT_S, preexec_fn=pin)
            error = None if proc.returncode == 0 else (
                f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        except subprocess.TimeoutExpired:
            error = f"child timed out after {CHILD_TIMEOUT_S} s"
        elapsed = time.monotonic() - t0
        meter.terminate()
        samples = json.loads(meter.communicate(timeout=10)[0] or "[]")
        if error is None and not samples:
            error = "the speed meter took no readings"
        if error is None:
            result = json.loads(out.read_text())
            result["raw_setup_s"], result["raw_wall_s"] = result["setup_s"], result["wall_s"]
            result["setup_s"] *= speed_scale(samples, t0, result["setup_end"])
            result["wall_s"] *= speed_scale(samples, result["setup_end"], result["pass_end"])
        else:
            items = WORKLOADS[workload].items
            result = {"items": [{"item": i.key(seed), "seconds": None,
                                 "problems": [error]} for i in items]}
        result["elapsed"] = elapsed
        return result
    finally:
        if meter.poll() is None:
            meter.kill()
            meter.wait()
        shutil.rmtree(tmp, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Untraced passes while the next is expected to end within `seconds`
    (at least three), or with `trace` one untraced and one traced pass.
    Returns metrics, the per-pass samples and item counts."""
    load_before = os.getloadavg()
    start = time.monotonic()
    passes = [run_child(name, seed, trace=False)]
    while not trace:
        used = time.monotonic() - start
        per_pass = statistics.median(p["elapsed"] for p in passes)
        if len(passes) >= MIN_PASSES and used + per_pass > seconds:
            break
        passes.append(run_child(name, seed, trace=False))
    traced = run_child(name, seed, trace=True) if trace else None

    runs = passes + ([traced] if traced else [])
    attempted = sum(len(p["items"]) for p in runs)
    failed = sum(1 for p in runs for i in p["items"] if i["problems"])
    ok = [p for p in passes if "wall_s" in p]
    samples = {m: [p[m] for p in ok] for m in SHOWN}
    metrics = {m: statistics.median(v) for m, v in samples.items() if v}
    result = {
        "workload": name, "seed": seed, "passes": len(passes),
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "samples": samples,
        "problems": sorted({f"{i['item']}: {msg}" for p in runs
                            for i in p["items"] for msg in i["problems"]}),
    }
    if traced is not None and "layers" in traced:
        layers = dict(traced["layers"])
        if "wall_s" in metrics:
            layers["trace.overhead_s"] = traced["wall_s"] - metrics["wall_s"]
        result["layers"] = layers
        result["missing"] = traced["missing"]
        if traced["leftover_wrappers"]:
            result["problems"].append(
                "wrappers left installed: " + ", ".join(traced["leftover_wrappers"]))
    elif trace:
        result["problems"].append("the traced pass produced no metrics")
    result["loadavg"] = {"before": load_before, "after": os.getloadavg()}
    return result


# ---- output ------------------------------------------------------------------------
def report(res: dict, trace: bool) -> dict:
    """Print one line per metric with its unit; return the metric record
    for the result line."""
    name = res["workload"]
    for m, unit in SHOWN.items():
        if m in res["metrics"]:
            v, med = res["samples"][m], res["metrics"][m]
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) >= 3 else (0, 0, 0)
            bound = BOUNDS[m.removeprefix("raw_")]
            steady = "" if q3 - q1 <= bound * med else " unsteady"
            print(f"{name:15s} {m:28s} {med!r:>22} {unit:6s}"
                  f" median of {len(v)} passes, range {min(v):.4g}..{max(v):.4g}"
                  f"{steady}")
    frac = res["failed"] / res["attempted"]
    print(f"{name:15s} {'fail_frac':28s} {frac!r:>22} ratio "
          f" {res['failed']} of {res['attempted']} items")
    for m, v in res.get("layers", {}).items():
        print(f"{name:15s} {m:28s} {v!r:>22} {layer_unit(m)}")
    for msg in res["problems"]:
        print(f"{name:15s} FAILED {msg}")
    if trace:
        return {m: {"value": v, "unit": layer_unit(m)}
                for m, v in res.get("layers", {}).items()}
    return {m: {"value": res["metrics"][m], "unit": unit}
            for m, unit in END_TO_END.items() if m in res["metrics"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    # on SIGTERM unwind, so that the pass and its meter are stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if ns.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "heckequot" / "__init__.py").is_file():
        print(f"error: no heckequot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    env = environment()
    results = [run_workload(n, ns.seed, ns.seconds, bool(ns.trace)) for n in names]
    metrics = {}
    for res in results:
        record = report(res, bool(ns.trace))
        if ns.workload == "all":
            record = {f"{res['workload']}.{m}": v for m, v in record.items()}
        metrics.update(record)
    env["runs"] = [{k: r[k] for k in ("workload", "seed", "passes", "samples",
                                      "loadavg", "problems")}
                   for r in results]
    print("env " + json.dumps(env, sort_keys=True))
    complete = all(set(END_TO_END) <= set(r["metrics"]) for r in results) and (
        not ns.trace or all("layers" in r for r in results))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = complete and failed == 0 and not any(r["problems"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    with contextlib.suppress(OSError):
        TMP.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
