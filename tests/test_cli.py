"""Command line interface: exit codes, report schema, determinism, cache."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from heckequot import cli
from heckequot.coxeter import infinite_dihedral
from heckequot.hecke import HeckeBall


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
    assert path.name == "infinitedihedral_r6.txt"
    lines = path.read_text().splitlines()
    assert lines[0] == "# heckequot-ball/2 family=InfiniteDihedral radius=6 elements=13"
    assert [ln[0] for ln in lines[1:]] == ["E"] * 13 + ["P"] * 85

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
        "infinitedihedral_r6.txt", "infinitedihedral_r6_w1-1.txt"]


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
