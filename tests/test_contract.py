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
its names must appear in the README.  Stored state is held to the same
rule: a self.x attribute or a dataclass field is read by src/ or
perfbench/, or KEPT_STATE names it.

A family's facts live in its duality.FAMILIES record, so neither duality
nor cli compares a value with a family's name.

Fixed loci and their centralizer orbits run on int signatures: the orbit
code of extquot names no Fraction and no Fraction point map.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import tracemalloc
from pathlib import Path

import pytest

from heckequot import asymptotic, cli, duality
from heckequot.coxeter import GroupPresentation, extended_affine_b2, extended_affine_pgl, infinite_dihedral
from heckequot.hecke import HeckeBall
from oracles import stream_rows

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"

# The library API the README's examples call that no src/ code reads,
# as module.Class.attribute.
README_API = {"asymptotic.JElement.support", "hecke.HeckeBall.gamma", "hecke.HeckeBall.gamma_row"}

# Stored state that no src/ or perfbench/ code reads, kept on purpose, as
# module.Class.attribute.
KEPT_STATE = {
    "hecke.CellRecord.fully_certified",  # the README prints it
    # the cell outputs that tier-1 checks against the preorder oracle
    "hecke.CellPartition.left", "hecke.CellPartition.right", "hecke.CellPartition.two_sided_id",
    # the tracer's laurent.decompose returns them
    "laurent.BalancedPair.balanced", "laurent.BalancedPair.antibalanced",
}


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
    # with |Omega| > 1 the table shares one row per symmetry orbit, and
    # hecke.p_entries still counts every p_{y,z} != 0 on W'
    hb = HeckeBall(extended_affine_pgl(3), 8)
    assert len(hb.omega_elems) > 1 and len({id(row) for row in hb._p}) < len(hb.wp)
    assert sum(len(col) for col in hb._p) == sum(len(hb.kl_element(z).terms) for z in hb.wp)


def test_the_cache_dump_is_streamed(tmp_path):
    # cache_chunks yields the dump a chunk at a time (one per orbit row),
    # and cache_store writes and compares the chunks as they come, holding
    # neither the list of chunks nor the text: the tracemalloc peak of a B2
    # r16 write, and of a hit, stays below half of the 372,226-byte file
    assert inspect.isgeneratorfunction(HeckeBall.cache_chunks)
    hb = HeckeBall(extended_affine_b2(), 16)
    for expected in ("written", "hit"):
        tracemalloc.start()
        try:
            path, status = cli.cache_store(hb, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == expected
        assert path.stat().st_size == 372_226
        assert peak < 372_226 / 2, (expected, peak)


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


@pytest.mark.parametrize("argv, factory, radius, pairs", [
    (["so5-cells"], extended_affine_b2, 12, 2231),
    (["so5-jc1"], extended_affine_b2, 12, 2231),
    (["infdihedral-J", "--seed", "21"], infinite_dihedral, 24, 625),
    (["infdihedral-P-properties"], infinite_dihedral, 8, 81),
], ids=["so5-cells", "so5-jc1", "infdihedral-J", "infdihedral-P-properties"])
def test_the_trace_sees_every_product_stream_pass(argv, factory, radius, pairs, tmp_path):
    # every reader of the product rows goes through _stream_products, so the
    # tracer's one wrapper sees it; a scenario streams its ball once, one
    # visit per computed row (B2 r12, dihedral r24 and r8 at their default
    # radii), whether it needs the a-values only or gamma as well; the rows
    # are those the stream's rule names
    assert len(stream_rows(HeckeBall(factory(), radius))) == pairs
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


def test_no_function_or_class_is_defined_in_two_modules():
    # one definition per top-level function, class or assigned name across
    # src/: a second copy of a helper, constant or type alias is imported
    # from the first, not written again
    where: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "heckequot").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                where.setdefault(name, []).append(path.stem)
    assert {name: mods for name, mods in where.items() if len(mods) > 1} == {}


def test_every_stored_attribute_is_read():
    # each self.x = ... attribute and each dataclass field of a src/ class
    # is read by the program (Class.x, or .x on an object _Reads does not
    # resolve), or KEPT_STATE names it: state nothing reads is only written
    reads = _reads()
    unread = []
    for path in sorted((ROOT / "src" / "heckequot").glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            stored = {item.target.id for item in cls.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
            stored |= {node.attr for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                       and isinstance(node.value, ast.Name) and node.value.id == "self"}
            unread.extend(f"{path.stem}.{cls.name}.{name}" for name in sorted(stored)
                          if not {f"{cls.name}.{name}", "." + name} & reads.attrs)
    assert sorted(set(unread) - KEPT_STATE) == []
    # an entry stays only while its attribute exists and is still unread
    assert sorted(KEPT_STATE - set(unread)) == []


FAMILY_TAGS = {"sl2", "so5", "gl", "pgl"}


def _tags_in(node) -> set[str]:
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {i.value for i in items if isinstance(i, ast.Constant)} & FAMILY_TAGS


def family_branches(source: str) -> list[int]:
    """Lines that compare a value with a family tag by ==, !=, in or not in."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            found.extend(node.lineno for op, a, b in zip(node.ops, operands, operands[1:])
                         if isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                         and (_tags_in(a) or _tags_in(b)))
    return sorted(found)


def test_no_function_in_duality_or_cli_branches_on_a_family_name():
    # what a family does differently is a field of its duality.FAMILIES
    # record; a comparison with its tag would keep a family fact elsewhere
    found = {name: family_branches((ROOT / "src" / "heckequot" / f"{name}.py").read_text())
             for name in ("duality", "cli")}
    assert found == {"duality": [], "cli": []}
    assert set(duality.FAMILIES) == FAMILY_TAGS


# the extquot functions and FixedLocus methods that run on int signatures
# only: FixedLocus.point and TorusAction.ambient_point, which print, are
# the only places a component becomes Fractions
ORBIT_CODE = {"fixed_locus", "_component_orbits", "extended_quotient",
              "torsion_orbit_census", "FixedLocus.component_count", "FixedLocus.action"}
FRACTION_NAMES = {"Fraction", "_frac_vec", "_mod1"}


def test_the_orbit_code_names_no_fraction():
    defs = {}
    for node in ast.parse((ROOT / "src" / "heckequot" / "extquot.py").read_text()).body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            defs.update((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))
    assert not FRACTION_NAMES & set(defs)
    assert {name for name in defs if name.startswith("FixedLocus.")} == {
        name for name in ORBIT_CODE if name.startswith("FixedLocus.")} | {"FixedLocus.point"}
    for name in sorted(ORBIT_CODE):
        named = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        named |= {n.attr for n in ast.walk(defs[name]) if isinstance(n, ast.Attribute)}
        assert not named & FRACTION_NAMES, name


def test_crossprod_draws_without_randint():
    # the hom checks sample through crossprod.draw, which makes randint's
    # draws without its randrange and _randbelow frames on every coefficient
    tree = ast.parse((ROOT / "src" / "heckequot" / "crossprod.py").read_text())
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not named & {"randint", "randrange"}
