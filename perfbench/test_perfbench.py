"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
from tracing import TIMED, Tracer, self_times  # noqa: E402
from workloads import CliItem, Workload  # noqa: E402

SMALL = Workload("small", (  # a few seconds of every layer
    CliItem(("so5-cells", "--radius", "12")),
    CliItem(("so5-cells", "--radius", "12")),
    CliItem(("infdihedral-J", "--radius", "12", "--samples", "4"), seeded=True),
    CliItem(("sl2-crossprod", "--samples", "4"), seeded=True),
    CliItem(("pgl-iwahori", "--n", "4"), exit=2),
))


def run_small(tmp_path, trace, expected=None):
    return child.run_pass(SMALL, 0, str(tmp_path / "cache"), 0.0,
                          trace=trace, expected=expected or {})


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        (0, -1, "outer", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 3.0, 6.0),       # overlaps a: 1..6 is covered once
        (3, 1, "leaf", 2.0, 3.0),    # a grandchild of outer
        (4, -1, "a", 20.0, 22.0),    # a second root span of a
    ]
    got = self_times(spans)
    assert got == {"outer": 5.0, "a": 2.0 + 2.0, "b": 3.0, "leaf": 1.0}


def test_self_time_of_a_child_outside_its_parent_is_clipped():
    got = self_times([(0, -1, "p", 0.0, 2.0), (1, 0, "c", 1.0, 5.0)])
    assert got["p"] == 1.0


def test_tampered_digest_fails_that_item_only(tmp_path):
    first = run_small(tmp_path, trace=False)
    assert all(not r["problems"] for r in first["items"])   # verdict gate
    good = {i.key(0): child.sha256(child.run_cli(i, 0, str(tmp_path / "c2"))[1])
            for i in SMALL.items}
    tampered = dict(good)
    key = SMALL.items[3].key(0)
    tampered[key] = "0" * 64
    res = run_small(tmp_path / "again", trace=False, expected=tampered)
    bad = [r["item"] for r in res["items"] if r["problems"]]
    assert bad == [key]
    assert res["wall_s"] > 0


def test_expected_digests_cover_seed_zero_of_every_item():
    expected = child.load_expected()
    for w in run.WORKLOADS.values():
        for item in w.items:
            if isinstance(item, CliItem):
                assert item.key(0) in expected


def _bindings():
    """Identity of every attribute of heckequot's modules and classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("heckequot"):
            continue
        for owner in [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__ == name]:
            for key, value in vars(owner).items():
                out[(name, getattr(owner, "__name__", ""), key)] = id(value)
    return out


def test_every_wrapper_is_removed_after_the_traced_pass(tmp_path):
    run_small(tmp_path / "warm", trace=False)
    before = _bindings()
    res = run_small(tmp_path, trace=True)
    assert res["leftover_wrappers"] == []
    assert _bindings() == before
    assert res["missing"] == []


def test_leftovers_reports_a_wrapper_still_installed(tmp_path):
    run_small(tmp_path, trace=False)
    tracer = Tracer()
    tracer.install()
    try:
        assert any("multiply" in name for name in tracer.leftovers())
    finally:
        tracer.remove()
    assert tracer.leftovers() == []


def test_counters_repeat_exactly_across_traced_runs(tmp_path):
    one = run_small(tmp_path / "one", trace=True)["layers"]
    two = run_small(tmp_path / "two", trace=True)["layers"]
    counters = {k for k in one if run.layer_unit(k) != "s"}
    assert {k: one[k] for k in counters} == {k: two[k] for k in counters}
    for key in ("coxeter.multiply.calls", "hecke.stream.passes",
                "hecke.stream.pairs", "cli.cache.writes", "cli.cache.hits",
                "laurent.decompose.calls", "asymptotic.j_mul.calls"):
        assert one[key] > 0, key
    # two so5-cells r12 items share one cache: one write, then one hit
    assert one["cli.cache.writes"] == 2 and one["cli.cache.hits"] == 1


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    layers = set(Tracer().metrics()) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layers
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert {n + ".s" for n in TIMED} <= layers


def test_report_marks_metrics_whose_passes_spread_wider_than_the_bound(capsys):
    samples = {"wall_s": [4.0, 5.0, 6.0, 7.0], "setup_s": [1.0, 1.01, 1.02, 1.0],
               "peak_rss_mb": [20.0, 20.0, 20.0, 20.0]}
    res = {"workload": "w", "samples": samples, "failed": 0, "attempted": 4,
           "metrics": {m: sorted(v)[2] for m, v in samples.items()}, "problems": []}
    record = run.report(res, trace=False)
    lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["wall_s"].endswith("unsteady")
    assert not lines["setup_s"].endswith("unsteady")
    assert record["wall_s"] == {"value": 6.0, "unit": "s"}


def test_speed_scale_uses_the_readings_inside_the_window():
    samples = [[0.0, 1.0], [1.0, 2.0], [2.0, 4.0], [3.0, 4.0]]
    assert run.speed_scale(samples, 1.5, 3.5) == run.REF_S / 4.0
    assert run.speed_scale(samples, 0.0, 1.0) == run.REF_S / 1.5
    assert run.speed_scale(samples, 9.0, 10.0) == run.REF_S / 2.75


def test_meter_reads_until_it_is_stopped():
    meter = subprocess.Popen([sys.executable, str(HERE / "meter.py")],
                             stdout=subprocess.PIPE, text=True)
    try:
        assert meter.stdout.readline() == "ready\n"
        time.sleep(0.2)
        meter.terminate()
        samples = json.loads(meter.communicate(timeout=10)[0])
    finally:
        meter.kill()
        meter.wait()
    assert meter.returncode == 0 and len(samples) >= 5
    assert all(0 < s < 0.01 for _, s in samples)
    assert [t for t, _ in samples] == sorted(t for t, _ in samples)
