"""One pass over one workload, in a fresh process started by run.py.

    python3 perfbench/child.py WORKLOAD --seed N --cache-dir DIR --t0 T --out FILE [--trace]

T is the parent's CLOCK_MONOTONIC reading just before it started this
process, so set-up time covers interpreter start, imports and the
workload's own set-up.  The result (timings, the CLOCK_MONOTONIC ends of
set-up and of the pass, gate verdicts, peak RSS and, with --trace, the
per-layer metrics) is written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, CliItem

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---- the timed work of one item ---------------------------------------------
def run_cli(item: CliItem, seed: int, cache_dir: str):
    from heckequot import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(item.command(seed) + ["--cache-dir", cache_dir])
    return code, buf.getvalue()


def run_pgl(pres, radius: int):
    from heckequot.hecke import HeckeBall
    hb = HeckeBall(pres, radius)
    part = hb.cell_partition()
    return hb, part, hb.distinguished_involutions()


# ---- gates ---------------------------------------------------------------------
def gate_cli(item: CliItem, seed: int, obs, expected: dict) -> list[str]:
    """Problems with a CLI item's output; empty when it is correct."""
    code, text = obs
    problems = []
    if code != item.exit:
        problems.append(f"exit code {code}, expected {item.exit}")
    want = expected.get(item.key(seed))
    if want is not None:
        if sha256(text) != want:
            problems.append("report digest differs from the recorded one")
        return problems
    # no digest recorded for this seed: every check must pass or inform,
    # and the summary must agree with the expected exit code
    allowed = {"pass", "info"} | ({"discrepancy"} if item.exit == 2 else set())
    summary = None
    for line in text.splitlines():
        rec = json.loads(line)
        if rec.get("record") == "check" and rec.get("verdict") not in allowed:
            problems.append(f"check {rec.get('id')} is {rec.get('verdict')}")
        if rec.get("record") == "summary":
            summary = rec
    if summary is None or summary.get("exit") != item.exit:
        problems.append("summary record missing or with the wrong exit code")
    return problems


def gate_pgl(item, obs) -> list[str]:
    hb, part, dist = obs
    got = {
        "wprime": len(hb.wp),
        "p_entries": sum(len(hb.kl_element(z).terms) for z in hb.wp),
        "cells": tuple(sorted((len(c), c.a_value)
                              for c in part.certified_cells())),
        "distinguished": len(dist),
    }
    return [f"{k} is {v}, expected {getattr(item, k)}"
            for k, v in got.items() if v != getattr(item, k)]


# ---- one pass ---------------------------------------------------------------------
def run_pass(workload, seed: int, cache_dir: str, t0: float,
             trace: bool = False, expected: dict | None = None) -> dict:
    """Set up, run every item once, gate each, and report.  An item that
    raises or fails its gate is recorded as failed; the pass goes on."""
    if expected is None:
        expected = load_expected()
    from heckequot import asymptotic, cli, coxeter  # noqa: F401 (imported for tracing)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    try:
        # set-up: presentations with their Omega representatives
        press = {}
        for item in workload.items:
            if not isinstance(item, CliItem) and item.n not in press:
                press[item.n] = coxeter.extended_affine_pgl(item.n)
                press[item.n].omega_elements()
        setup_end = time.monotonic()

        items = []
        for item in workload.items:
            rec = {"item": item.key(seed), "seconds": None, "problems": []}
            try:
                start = time.perf_counter()
                if isinstance(item, CliItem):
                    obs = run_cli(item, seed, cache_dir)
                else:
                    obs = run_pgl(press[item.n], item.radius)
                rec["seconds"] = time.perf_counter() - start
                with quiet():
                    rec["problems"] = (gate_cli(item, seed, obs, expected)
                                       if isinstance(item, CliItem)
                                       else gate_pgl(item, obs))
                del obs
            except Exception as exc:  # a failed item is counted, never fatal
                rec["problems"] = [f"{type(exc).__name__}: {exc}"]
            items.append(rec)
        pass_end = time.monotonic()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.remove()
    result = {
        "setup_s": setup_end - t0,
        "wall_s": sum(r["seconds"] or 0.0 for r in items),
        "peak_rss_mb": peak_rss_mb,
        "setup_end": setup_end,
        "pass_end": pass_end,
        "items": items,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        result["leftover_wrappers"] = tracer.leftovers()
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    ns = p.parse_args(argv)
    import heckequot
    src = (ROOT / "src").resolve()
    if src not in Path(heckequot.__file__).resolve().parents:
        print(f"heckequot was imported from {heckequot.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 3
    result = run_pass(WORKLOADS[ns.workload], ns.seed, ns.cache_dir, ns.t0,
                      trace=ns.trace)
    Path(ns.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
