"""The names the benchmark's tracer wraps still exist, and every name
the program defines is used by the program.

perfbench/tracing.py wraps functions of the program by name from outside;
a target that disappears is skipped and its per-layer counter silently
reads 0.  This test resolves every target the way the tracer does, and
checks the ball attributes and signatures its hooks read.

The rule for src/: it holds the program, the code a scenario, the
benchmark or the README's library examples reach; the references the
tests compare it against live in tests/oracles.py.  So a name defined in
src/ counts as used only when src/ or perfbench/ reads it, when it is part
of a tracer target's path, or when README_API lists it; a read from tests/
does not count.  README_API names the library API the README shows that
src/ never reads, and each of its names must appear in the README.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

from heckequot import asymptotic, cli
from heckequot.coxeter import GroupPresentation, infinite_dihedral
from heckequot.hecke import HeckeBall

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"

# The library API the README's examples call that no src/ code reads,
# as module.Class.attribute.
README_API = {"asymptotic.JElement.support"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    targets = load_tracing().TARGETS
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
    for name, names in (("multiply", ["self", "x", "y"]),
                        ("length_of", ["self", "trans", "fin"]),
                        ("ball", ["self", "radius"])):
        assert list(inspect.signature(getattr(GroupPresentation, name)).parameters) == names
    hb = HeckeBall(infinite_dihedral(), 6)
    assert isinstance(hb._p, list) and len(hb._p) == len(hb.wp)
    assert len(hb.ball.rm) == len(hb.ball) * len(hb.gens)
    hb.a_function(hb.pres.identity())
    assert len(hb._a_cert) == len(hb.wp)
    path, status = cli.cache_store(hb, tmp_path)
    assert status == "written" and path.stat().st_size > 0


def test_skips_and_the_decided_ratio_count_the_same_exceptions():
    # the reports' skip counts and the tracer's asymptotic.decided_ratio
    # must both treat exactly these exceptions as undecided
    names = {e.__name__ for e in asymptotic.UNDECIDED}
    assert names == set(load_tracing().UNDECIDED)


def test_the_trace_sees_the_j_layer(tmp_path):
    # phi and j_mul must stay the callables that do the J work, so the
    # per-layer side channel keeps covering it
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(["run", "infdihedral-J", "--radius", "12", "--samples", "5",
                       "--format", "records", "--cache-dir", str(tmp_path)])
    finally:
        tracer.remove()
    assert rc == 0
    assert tracer.leftovers() == []
    metrics = tracer.metrics()
    # at least one sampled pair, one pool element and the central element
    assert metrics["asymptotic.phi.calls"] >= 3
    assert metrics["asymptotic.j_mul.calls"] > 0


def test_the_trace_sees_every_product_stream_pass(tmp_path):
    # the a-value pass reads the product rows through _stream_products, so
    # the tracer's one wrapper sees it: so5-cells at its default radius 12
    # streams once, one visit per computed row of B2 r12
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(["run", "so5-cells", "--format", "records", "--cache-dir", str(tmp_path)])
    finally:
        tracer.remove()
    assert rc == 0
    assert tracer.missing == []
    metrics = tracer.metrics()
    assert metrics["hecke.stream.passes"] == 1
    assert metrics["hecke.stream.pairs"] == 3239


def test_readme_api_is_shown_in_the_readme_and_defined():
    # a README_API entry keeps its name alive only while the README's
    # examples use it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    for entry in README_API:
        modname, *path = entry.split(".")
        owner = importlib.import_module("heckequot." + modname)
        for part in path:
            owner = getattr(owner, part)
        assert callable(owner), entry
        assert any(re.search(rf"\.{path[-1]}\(", code) for code in blocks), entry


def _used_names() -> set[str]:
    """Every name read (not assigned) as a Name or an Attribute, or
    imported, in src/ and perfbench/, plus each part of the tracer's
    target paths and the attributes README_API lists."""
    used = {entry.rpartition(".")[2] for entry in README_API}
    for tree in ("src", "perfbench"):
        for path in (ROOT / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
                    continue
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
    for _mod, path, _name, _kind in load_tracing().TARGETS:
        used.update(path.split("."))
    return used


def test_every_src_definition_is_used():
    # each module-level function, class, constant and type alias and each
    # method is used by the program (see the module docstring), dunders and
    # overrides of an inherited method excepted: a deletion must not strand
    # a helper, and a reference only the tests read belongs in tests/
    used = _used_names()
    unused = []
    for path in sorted((ROOT / "src" / "heckequot").glob("*.py")):
        module = importlib.import_module("heckequot." + path.stem)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                unused.extend(
                    f"{path.stem}.{name.id}"
                    for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name) and name.id not in used
                    and not (name.id.startswith("__") and name.id.endswith("__")))
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in used:
                unused.append(f"{path.stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            bases = vars(module)[node.name].__mro__[1:]
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and item.name not in used
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                        and not any(hasattr(b, item.name) for b in bases)):
                    unused.append(f"{path.stem}.{node.name}.{item.name}")
    assert unused == []
