"""The names the benchmark's tracer wraps still exist.

perfbench/tracing.py wraps functions of the program by name from outside;
a target that disappears is skipped and its per-layer counter silently
reads 0.  This test resolves every target the way the tracer does, and
checks the ball attributes and signatures its hooks read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from heckequot import cli
from heckequot.coxeter import infinite_dihedral
from heckequot.hecke import HeckeBall

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves_to_a_callable():
    targets = load_targets()
    assert targets
    for modname, path, _name, _kind in targets:
        owner = importlib.import_module("heckequot." + modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = vars(owner)[part]
        assert callable(vars(owner).get(attr)), f"{modname}.{path}"


def test_ball_exposes_what_the_tracer_hooks_read(tmp_path):
    params = inspect.signature(HeckeBall._stream_products).parameters
    assert list(params) == ["self", "visit"]
    hb = HeckeBall(infinite_dihedral(), 6)
    assert isinstance(hb._p, list) and len(hb._p) == len(hb.wp)
    hb.a_function(hb.pres.identity())
    assert len(hb._a_cert) == len(hb.wp)
    path, status = cli.cache_store(hb, tmp_path)
    assert status == "written" and path.stat().st_size > 0
