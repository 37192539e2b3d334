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
does not count.  A method is read as Class.method where the reader's
object resolves to a class (see _Reads), so a local, a module function or
another class's method of the same name does not keep it.  README_API
names the library API the README shows that src/ never reads, and each of
its names must appear in the README.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from heckequot import asymptotic, cli
from heckequot.coxeter import GroupPresentation, infinite_dihedral
from heckequot.hecke import HeckeBall

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"

# The library API the README's examples call that no src/ code reads,
# as module.Class.attribute.
README_API = {"asymptotic.JElement.support", "hecke.HeckeBall.gamma", "hecke.HeckeBall.gamma_row"}


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


@pytest.mark.parametrize("argv, pairs", [
    (["so5-cells"], 3239),
    (["so5-jc1"], 3239),
    (["infdihedral-J", "--seed", "21"], 913),
    (["infdihedral-P-properties"], 113),
], ids=["so5-cells", "so5-jc1", "infdihedral-J", "infdihedral-P-properties"])
def test_the_trace_sees_every_product_stream_pass(argv, pairs, tmp_path):
    # every reader of the product rows goes through _stream_products, so the
    # tracer's one wrapper sees it; a scenario streams its ball once, one
    # visit per computed row (B2 r12, dihedral r24 and r8 at their default
    # radii), whether it needs the a-values only or gamma as well
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(["run", *argv, "--format", "records", "--cache-dir", str(tmp_path)])
    finally:
        tracer.remove()
    assert rc == 0
    assert tracer.missing == []
    metrics = tracer.metrics()
    assert metrics["hecke.stream.passes"] == 1
    assert metrics["hecke.stream.pairs"] == pairs


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


class _Reads(ast.NodeVisitor):
    """What the files it visits read.  A bare name or an import is read as
    itself, in names.  An attribute read obj.attr is read in attrs as
    Class.attr when obj resolves to a class of src/: the class itself (or a
    call of it), self or cls inside its body, or a parameter annotated with
    it; any other obj is read as .attr, which counts for every method of
    that name."""

    def __init__(self, classes: dict[str, type]):
        self.classes = classes
        self.names: set[str] = set()
        self.attrs: set[str] = set()
        self.scopes: list[dict[str, str | None]] = []  # name -> class name, innermost last

    def _classes_in(self, annotation) -> list[str]:
        words = (re.findall(r"\w+", annotation.value)
                 if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str)
                 else [n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)])
        return [w for w in words if w in self.classes]

    def _class_of(self, obj) -> str | None:
        if isinstance(obj, ast.Call):
            obj = obj.func
        if not isinstance(obj, ast.Name):
            return None
        for scope in reversed(self.scopes):
            if obj.id in scope:
                return scope[obj.id]
        return obj.id if obj.id in self.classes else None

    def visit_ClassDef(self, node):
        owner = node.name if node.name in self.classes else None  # perfbench's own are not
        self.scopes.append({"self": owner, "cls": owner})
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node):
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        self.scopes.append({a.arg: c for a in args if a.annotation
                            for c in self._classes_in(a.annotation)[:1]})
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Name(self, node):
        if not isinstance(node.ctx, (ast.Store, ast.Del)):
            self.names.add(node.id)

    def visit_alias(self, node):
        self.names.add(node.name.rpartition(".")[2])

    def visit_Attribute(self, node):
        if not isinstance(node.ctx, (ast.Store, ast.Del)):
            self.names.add(node.attr)  # a module attribute is read by its name
            owner = self._class_of(node.value)
            if owner is None:
                self.attrs.add("." + node.attr)
            else:
                self.attrs.update(f"{base.__name__}.{node.attr}"
                                  for base in self.classes[owner].__mro__
                                  if base.__name__ in self.classes)
        self.generic_visit(node)


def _src_classes() -> dict[str, type]:
    return {name: cls for path in (ROOT / "src" / "heckequot").glob("*.py")
            for name, cls in vars(importlib.import_module("heckequot." + path.stem)).items()
            if isinstance(cls, type) and cls.__module__ == "heckequot." + path.stem}


def _reads() -> _Reads:
    """Every name and attribute read in src/ and perfbench/, plus each part
    of the tracer's target paths and what README_API lists, the methods
    among them as Class.attr."""
    reads = _Reads(_src_classes())
    for entry in README_API:
        reads.attrs.add(entry.partition(".")[2])
    for tree in ("src", "perfbench"):
        for path in (ROOT / tree).rglob("*.py"):
            reads.visit(ast.parse(path.read_text()))
    for _mod, path, _name, _kind in load_tracing().TARGETS:
        reads.names.update(path.split("."))
        reads.attrs.add(path)
    return reads


def test_every_src_definition_is_used():
    # each module-level function, class, constant and type alias and each
    # method is used by the program (see the module docstring), dunders and
    # overrides of an inherited method excepted: a deletion must not strand
    # a helper, and a reference only the tests read belongs in tests/
    reads = _reads()
    unused = []
    for path in sorted((ROOT / "src" / "heckequot").glob("*.py")):
        module = importlib.import_module("heckequot." + path.stem)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                unused.extend(
                    f"{path.stem}.{name.id}"
                    for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name) and name.id not in reads.names
                    and not (name.id.startswith("__") and name.id.endswith("__")))
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in reads.names:
                unused.append(f"{path.stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            bases = vars(module)[node.name].__mro__[1:]
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not {f"{node.name}.{item.name}", "." + item.name} & reads.attrs
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                        and not any(hasattr(b, item.name) for b in bases)):
                    unused.append(f"{path.stem}.{node.name}.{item.name}")
    assert unused == [], unused
