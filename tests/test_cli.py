"""Command line interface: exit codes, report schema, determinism, cache."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from heckequot import cli
from heckequot.asymptotic import JRing
from heckequot.coxeter import infinite_dihedral
from heckequot.hecke import HeckeBall, HeckeError


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(args)
    return rc, out.getvalue(), err.getvalue()


# ---- exit codes -------------------------------------------------------------


def test_pass_exit_zero():
    rc, out, err = run(["run", "sl2-extquot"])
    assert rc == 0
    assert "verdict: PASS" in out
    assert err == ""


def test_discrepancy_exit_two():
    rc, out, _ = run(["run", "pgl-iwahori", "--n", "4"])
    assert rc == 2
    assert "verdict: DISCREPANCY" in out
    assert "disconnected" in out


def test_usage_exit_three():
    for args in (
        ["run", "no-such-scenario"],
        ["run"],
        ["run", "pgl-iwahori", "--n", "7"],
        ["run", "sl2-extquot", "--format", "yaml"],
        [],
        ["cache", "frobnicate"],
        ["cache", "list"],
        ["run", "gl-bernstein-point", "--torsions=0,1"],
        ["run", "gl-bernstein-point", "--torsions=-1,2"],
    ):
        rc, out, err = run(args)
        assert rc == 3, args
        assert err != ""


def test_non_square_q_is_usage_error(tmp_path):
    rc, _, err = run(["run", "infdihedral-J", "--radius", "12", "--q", "3",
                      "--cache-dir", str(tmp_path)])
    assert rc == 3
    assert "square" in err


def test_bad_q_is_rejected_before_the_ball_is_cached(tmp_path):
    rc, _, err = run(["run", "infdihedral-J", "--q", "3", "--cache-dir", str(tmp_path)])
    assert rc == 3
    assert "square" in err
    assert list(tmp_path.iterdir()) == []


def test_an_error_that_is_not_undecided_stops_the_run(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise HeckeError("boom")

    monkeypatch.setattr(JRing, "star_action", boom)
    rc, out, err = run(["run", "infdihedral-J", "--cache-dir", str(tmp_path)])
    assert rc == 3
    assert "error: boom" in err
    assert "base-point" not in out


@pytest.mark.parametrize("args", [
    ["so5-cells", "--margin", "-1"],
    ["so5-cells", "--margin", "0"],
    ["so5-jc1", "--radius", "0"],
    ["infdihedral-cells", "--radius", "0"],
], ids=["negative-margin", "zero-margin", "so5-jc1-radius-0", "infdihedral-cells-radius-0"])
def test_bad_margin_is_rejected_before_the_ball_is_built(args, tmp_path):
    rc, out, err = run(["run", *args, "--cache-dir", str(tmp_path)])
    assert rc == 3
    assert err.startswith("error: the margin must lie in 1..radius")
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["so5-cells", "--margin", "0", "--radius", "2"],
    ["so5-cells", "--margin", "0", "--radius", "6"],
    ["so5-cells", "--margin", "0", "--radius", "10"],
    ["so5-cells", "--margin", "0"],
    ["infdihedral-cells", "--radius", "3"],
    ["infdihedral-cells", "--radius", "6"],
    ["infdihedral-cells", "--margin", "0"],
    ["infdihedral-J", "--radius", "3"],
    ["infdihedral-J", "--radius", "6"],
    ["infdihedral-J", "--radius", "10", "--margin", "5"],
])
def test_uncertified_cells_and_empty_sample_pools_end_in_a_verdict(args, tmp_path):
    # a cell whose certified a-values are mixed has a_value None, and a
    # radius below 2*margin + 1 leaves infdihedral-J nothing to sample
    rc = cli.main(["run", *args, "--format", "records", "--cache-dir", str(tmp_path)])
    assert isinstance(rc, int) and rc in (1, 3)


def test_so5_cells_below_the_certified_radius_fails_with_the_hint(tmp_path):
    rc, out, _ = run(["run", "so5-cells", "--radius", "10", "--format", "records",
                      "--cache-dir", str(tmp_path)])
    assert rc == 1
    cells = next(r for r in map(json.loads, out.splitlines()) if r.get("id") == "cells")
    assert cells["verdict"] == "fail"
    assert "raise --radius" in cells["witness"]["hint"]


def test_ball_refuses_a_margin_outside_the_radius():
    with pytest.raises(HeckeError, match="margin"):
        HeckeBall(infinite_dihedral(), 2, margin=3)
    with pytest.raises(HeckeError, match="margin"):
        HeckeBall(infinite_dihedral(), 2, margin=-1)
    with pytest.raises(HeckeError, match="margin"):
        HeckeBall(infinite_dihedral(), 2, margin=0)
    assert HeckeBall(infinite_dihedral(), 2, margin=2).margin == 2


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_samples_below_one_is_usage_error(samples, tmp_path):
    rc, out, err = run(["run", "infdihedral-J", "--samples", samples,
                        "--cache-dir", str(tmp_path)])
    assert rc == 3
    assert "usage error" in err and "at least 1" in err
    assert out == ""


def test_samples_default_and_smallest_value_parse():
    parse = cli.build_parser().parse_args
    assert parse(["run", "infdihedral-J"]).samples is None
    assert parse(["run", "infdihedral-J", "--samples", "1"]).samples == 1


def test_infdihedral_j_computes_each_phi_image_once(tmp_path, monkeypatch):
    # phi images are Laurent, so the scenario computes one per distinct
    # sampled pair (38 at seed 0), one per pool element (at most 17) and one
    # for the central element, and only specializes them per q; computed
    # per q and per sample, as before, it made 302 calls
    calls = []
    phi = JRing.phi
    monkeypatch.setattr(JRing, "phi", lambda self, h: calls.append(h) or phi(self, h))
    rc, out, _ = run(["run", "infdihedral-J", "--seed", "0", "--format", "records",
                      "--cache-dir", str(tmp_path)])
    assert rc == 0
    hom = [json.loads(ln)["witness"] for ln in out.splitlines() if '"phi-hom-q=' in ln]
    assert [(w["checked"], w["skipped"]) for w in hom] == [(50, 0), (50, 0)]
    assert 0 < len(calls) <= 38 + 17 + 1


# ---- report formats ----------------------------------------------------------


def test_records_format_is_json_lines():
    rc, out, _ = run(["run", "sl2-extquot", "--format", "records"])
    assert rc == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert lines[0]["record"] == "header"
    assert lines[0]["schema"] == "heckequot-report/1"
    assert lines[0]["scenario"] == "sl2-extquot"
    checks = [ln for ln in lines if ln["record"] == "check"]
    assert checks and all(
        set(c) >= {"id", "claim", "verdict"} for c in checks
    )
    summary = lines[-1]
    assert summary["record"] == "summary"
    assert summary["verdict"] == "PASS"
    assert summary["exit"] == 0


def test_reports_are_byte_identical():
    for fmt in ("table", "records"):
        a = run(["run", "sl2-crossprod", "--samples", "25", "--seed", "3", "--format", fmt])
        b = run(["run", "sl2-crossprod", "--samples", "25", "--seed", "3", "--format", fmt])
        assert a == b
        assert a[0] == 0


def test_seed_changes_sampled_witnesses_but_not_verdict():
    _, out_a, _ = run(["run", "sl2-crossprod", "--samples", "25", "--seed", "1", "--format", "records"])
    rc, out_b, _ = run(["run", "sl2-crossprod", "--samples", "25", "--seed", "2", "--format", "records"])
    assert rc == 0
    header_a = json.loads(out_a.splitlines()[0])
    header_b = json.loads(out_b.splitlines()[0])
    assert header_a["parameters"]["seed"] == 1
    assert header_b["parameters"]["seed"] == 2


def test_scenarios_listing_complete():
    rc, out, _ = run(["scenarios"])
    assert rc == 0
    names = [ln.split()[0] for ln in out.splitlines() if ln.strip()]
    assert names == sorted(cli.SCENARIOS)
    assert len(names) == 13


# ---- scenario spot checks ------------------------------------------------------


def test_so5_match_scenario():
    rc, out, _ = run(["run", "so5-match", "--format", "records"])
    assert rc == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    cells = {ln["id"]: ln for ln in lines if ln["record"] == "check" and ln["id"].startswith("cell[")}
    assert set(cells) == {"cell[c_e]", "cell[c_1]", "cell[c_2]", "cell[c_0]", "cell[total]"}
    assert cells["cell[total]"]["verdict"] == "pass"


def test_gl_bernstein_point_scenario():
    rc, out, _ = run(
        ["run", "gl-bernstein-point", "--blocks", "2,1", "--torsions", "1,2", "--format", "records"]
    )
    assert rc == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    census = next(ln for ln in lines if ln["record"] == "check" and ln["id"] == "census")
    assert census["witness"]["census"] == ["sym(1,1)", "sym(2,1)"]


def test_lowest_cell_scenario():
    for group, n in (("so5", None), ("gl", "3"), ("pgl", "3")):
        args = ["run", "lowest-cell", "--group", group]
        if n:
            args += ["--n", n]
        rc, out, _ = run(args)
        assert rc == 0, (group, n)


@pytest.mark.parametrize("args, message", [
    (("--group", "sl2", "--n", "5"), "lowest-cell --group sl2 takes no --n"),
    (("--group", "so5", "--n", "3"), "lowest-cell --group so5 takes no --n"),
    (("--n", "3"), "lowest-cell --group so5 takes no --n"),
    (("--group", "gl", "--n", "0"), "lowest-cell --group gl needs 1 <= n <= 6"),
    (("--group", "gl", "--n", "7"), "lowest-cell --group gl needs 1 <= n <= 6"),
    (("--group", "pgl", "--n", "1"), "lowest-cell --group pgl needs 2 <= n <= 6"),
    (("--group", "pgl", "--n", "7"), "lowest-cell --group pgl needs 2 <= n <= 6"),
], ids=["sl2-n5", "so5-n3", "default-n3", "gl-n0", "gl-n7", "pgl-n1", "pgl-n7"])
def test_lowest_cell_refuses_a_rank_it_cannot_use(args, message):
    # a stray --n is not dropped, and the rank is checked, with its bound
    # named, before any action is built
    rc, out, err = run(["run", "lowest-cell", *args])
    assert (rc, out, err) == (3, "", f"usage error: {message}\n")


def test_infdihedral_cells_scenario(tmp_path):
    rc, out, _ = run(
        ["run", "infdihedral-cells", "--radius", "10", "--cache-dir", str(tmp_path), "--format", "records"]
    )
    assert rc == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    byid = {ln["id"]: ln for ln in lines if ln["record"] == "check"}
    assert byid["closed-form"]["witness"]["checked"] == 21
    assert byid["closed-form"]["witness"]["failures"] == []
    assert byid["cells"]["witness"]["sizes_and_a"] == [[1, 0], [20, 1]]


@pytest.mark.parametrize("scenario", ["so5-cells", "so5-extquot", "so5-jc1", "gl-match"])
def test_scenario_passes_at_defaults(scenario, tmp_path):
    rc, out, _ = run(["run", scenario, "--cache-dir", str(tmp_path), "--format", "records"])
    assert rc == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    checks = [ln for ln in lines if ln["record"] == "check"]
    assert checks
    assert {c["verdict"] for c in checks} <= {"pass", "info"}, checks
    assert lines[-1]["exit"] == 0


# sha256 of the stdout of `heckequot run <scenario> --format records` at
# default parameters with a fresh cache.  A change that alters a report on
# purpose updates this table and says so in CHANGES.md.
DEFAULT_RECORDS_SHA256 = {
    "gl-bernstein-point": "a0701fd1abb195809cddc9f211c13ddc18e651d198a31dff8fc48a1e641f3928",
    "gl-match": "82fafa012992358389e8dd5534f360f17beaf1579b08e762977f5df1ed9f3991",
    "infdihedral-J": "1b4a486fdb6bcf005f5460ac985f2aa6b182abb625ca7aff21b40635fa057d92",
    "infdihedral-P-properties": "ed8c6a760f32e33e967171cd2e09b66de5e4c09c8598a76811eb9c7a945b3b63",
    "infdihedral-cells": "47e1888550ba8939456f3956075c9f60596f327471399194e9151fab85f3f39e",
    "lowest-cell": "256bdeaf4eddab8de216841ada94a108bc7eceb1f4e8d9bd731acdead9f8691a",
    "pgl-iwahori": "2b267b81b71597741603124096e9fd9aa84658da07ce24926081c0b757eae9c2",
    "sl2-crossprod": "47c2a51e0754d9173910b6678514e5edb2fd3bce7ce17ba8827e7da508398c19",
    "sl2-extquot": "1a94dbfe9204f19a594b5ee4b2de2f6e9ee4e92bbe08e70e7b8b1a8b96343f80",
    "so5-cells": "471ba7faa459ef1391359489a0ca46513df70fa36dfcb54a1f8a6090c9bddac4",
    "so5-extquot": "c9c08db06b45bf7ef54fed0d614c85f262e7b4a5cc796b5beaab64b2ef442e7b",
    "so5-jc1": "35e99faf7da80cae2943e3eedabf78c27ea44f0af4a6a1a163fe114b7351d67e",
    "so5-match": "93852195c78c53f08b08d8c243c96d7a269fae5a056aae425d391660cbca68b0",
}


def test_every_scenario_has_a_recorded_digest():
    assert sorted(DEFAULT_RECORDS_SHA256) == sorted(cli.SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(DEFAULT_RECORDS_SHA256))
def test_default_records_are_byte_identical_to_the_recorded_ones(scenario, tmp_path):
    rc, out, _ = run(["run", scenario, "--format", "records", "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_RECORDS_SHA256[scenario]


# sha256 and exit code of `heckequot run ... --format records` with a fresh
# cache, for runs off the defaults whose output depends on the order in
# which censuses are sorted or on which centralizer rule a cell takes.
# With --blocks 10,2 sorting the shapes by (dim, text) would differ from
# the (dim, parts) order the report uses; the lowest-cell runs read the
# whole dual group's census through the cell rules of each family.
CENSUS_ORDER_RECORDS = {
    ("gl-bernstein-point", "--blocks", "10,2"):
        ("a127c36948cf41c5312615a5cd7a07f1bc3a73efe29b206f8b1fbdfae9569630", 0),
    ("gl-match", "--n", "5"):
        ("b5ec8268903a25a64284764086df8d60c491281ed653aa64477480226a7fdd30", 0),
    ("gl-match", "--n", "6"):
        ("32855b2677f8c8a8d8122ec14ef6c60aa62b898e64588f5c825285bc622979ae", 0),
    ("pgl-iwahori", "--n", "5"):
        ("1ddeed1fd13421de680e8aeb0f4edfb0a8feb38f4d03b5247940dad836d4e46c", 0),
    ("pgl-iwahori", "--n", "6"):
        ("36d83f4a765749f952b2750ecd309d53bf5ba8b0ed339be60da8800fc41c325d", 2),
    ("lowest-cell", "--group", "sl2"):
        ("52105aa209698a5f77e8d5b385d16304693250b626103698bbb585a1fffb13bd", 0),
    ("lowest-cell", "--group", "gl", "--n", "4"):
        ("dee8aaf38ba0f3ee4ee0c16a3f665133df7a0a82c4a5b811cefab393162c4a69", 0),
    ("lowest-cell", "--group", "pgl", "--n", "2"):
        ("cd0369b9198f582d0f770d4f98dd72ee9436610b7b9ae0e2a9daf949bdb0c64a", 0),
    ("lowest-cell", "--group", "pgl", "--n", "5"):
        ("4df5a6105c0048e4b16eb018dc02d6054ad0e308cfcab38408a6367ead76fc92", 0),
}


@pytest.mark.parametrize("args", sorted(CENSUS_ORDER_RECORDS))
def test_census_order_records_are_byte_identical(args, tmp_path):
    rc, out, _ = run(["run", *args, "--format", "records", "--cache-dir", str(tmp_path)])
    assert (hashlib.sha256(out.encode()).hexdigest(), rc) == CENSUS_ORDER_RECORDS[args]


# ---- cache ------------------------------------------------------------------


def cache_file(tmp_path):
    files = sorted(Path(tmp_path).glob("*.txt"))
    assert len(files) == 1
    return files[0]


def test_cache_roundtrip_and_verify(tmp_path):
    td = str(tmp_path)
    rc, _, _ = run(["run", "infdihedral-P-properties", "--radius", "6", "--cache-dir", td])
    assert rc == 0
    path = cache_file(tmp_path)
    assert path.name == "infinitedihedral_r6_v3.txt"
    lines = path.read_text().splitlines()
    assert lines[0] == "# heckequot-ball/3 family=InfiniteDihedral radius=6 elements=13"
    # one P row per orbit of w -> w^-1: 61 of the 85 nonzero p_{y,z}
    assert [ln[0] for ln in lines[1:]] == ["E"] * 13 + ["P"] * 61

    # a second identical run must be a byte-level cache hit, not a rewrite
    before = path.read_bytes()
    assert cli.cache_store(HeckeBall(infinite_dihedral(), 6), tmp_path) == (path, "hit")
    rc, _, _ = run(["run", "infdihedral-P-properties", "--radius", "6", "--cache-dir", td])
    assert rc == 0
    assert path.read_bytes() == before


def test_cache_detects_corruption(tmp_path):
    td = str(tmp_path)
    run(["run", "infdihedral-P-properties", "--radius", "6", "--cache-dir", td])
    path = cache_file(tmp_path)
    text = path.read_text()
    target = next(ln for ln in text.splitlines() if ln.startswith("P 1 1 "))
    mangled = target.rsplit(" ", 1)[0] + " v^7"
    path.write_text(text.replace(target, mangled))

    # a scenario run against the poisoned cache must fail loudly
    rc, out, _ = run(["run", "infdihedral-P-properties", "--radius", "6",
                      "--cache-dir", td, "--format", "records"])
    assert rc == 1
    checks = {rec["id"]: rec for rec in map(json.loads, out.splitlines())
              if rec["record"] == "check"}
    assert checks["cache"]["verdict"] == "fail"
    assert checks["cache"]["witness"]["file"] == path.name
    assert str(path) in checks["cache"]["witness"]["hint"]
    assert "heckequot cache" not in out


def test_cache_ignores_files_of_the_weighted_format(tmp_path):
    old = tmp_path / "infinitedihedral_r6_w1-1.txt"
    old.write_text("# heckequot-ball/1 family=InfiniteDihedral radius=6 "
                   "weights=1,1 elements=13\nH 0 0 0 v^7\n")
    rc, out, _ = run(["run", "infdihedral-P-properties", "--radius", "6",
                      "--cache-dir", str(tmp_path)])
    assert rc == 0, out
    assert old.read_text().endswith("H 0 0 0 v^7\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "infinitedihedral_r6_v3.txt", "infinitedihedral_r6_w1-1.txt"]


def test_cache_ignores_files_of_the_full_table_format(tmp_path):
    # heckequot-ball/2 wrote every row of the table under the name without
    # a schema suffix; such a file is neither read nor reported, nor touched
    old = tmp_path / "infinitedihedral_r6.txt"
    old.write_bytes(b"# heckequot-ball/2 family=InfiniteDihedral radius=6 elements=13\nP 1 1 v^7\n")
    before = old.read_bytes()
    rc, out, _ = run(["run", "infdihedral-P-properties", "--radius", "6",
                      "--cache-dir", str(tmp_path), "--format", "records"])
    assert rc == 0, out
    assert old.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "infinitedihedral_r6.txt", "infinitedihedral_r6_v3.txt"]
    assert not [rec for rec in map(json.loads, out.splitlines())
                if rec.get("id") == "cache"]


def test_cache_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("HECKEQUOT_CACHE", str(tmp_path))
    rc, _, _ = run(["run", "infdihedral-P-properties", "--radius", "6"])
    assert rc == 0
    assert len(list(tmp_path.glob("*.txt"))) == 1


def test_cache_flag_overrides_env(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    env_dir.mkdir()
    flag_dir.mkdir()
    monkeypatch.setenv("HECKEQUOT_CACHE", str(env_dir))
    rc, _, _ = run(
        ["run", "infdihedral-P-properties", "--radius", "6", "--cache-dir", str(flag_dir)]
    )
    assert rc == 0
    assert list(env_dir.glob("*.txt")) == []
    assert len(list(flag_dir.glob("*.txt"))) == 1
