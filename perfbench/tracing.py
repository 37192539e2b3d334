"""Outside-in tracing of heckequot's layers for the benchmark.

The tracer wraps functions of the installed program from here, never
from inside src/: a span wrapper records (id, parent id, name, start, end,
outcome) for each call, a count wrapper only counts.  Hot leaf functions
(group multiplication, lengths, Laurent arithmetic) get counts only,
because timing each call would distort what is measured.  Everything is
kept in memory and turned into per-layer metrics when the pass ends.

A target that no longer exists in the program (a later change may rename
or fuse a stage) is skipped and listed in `missing`; its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import weakref
from collections import Counter

SPAN, COUNT = "span", "count"

# (module, attribute path, span or counter name, kind)
TARGETS = [
    ("coxeter", "GroupPresentation.multiply", "coxeter.multiply", COUNT),
    ("coxeter", "GroupPresentation.length_of", "coxeter.length_of", COUNT),
    ("coxeter", "GroupPresentation.ball", "coxeter.ball", SPAN),
    ("coxeter", "GroupPresentation._find_omega_rep", "coxeter.omega_reps", SPAN),
    ("hecke", "HeckeBall.__init__", "hecke.kl", SPAN),
    ("hecke", "HeckeBall._cs_table", "hecke.cs", SPAN),
    ("hecke", "HeckeBall._stream_products", "hecke.stream", SPAN),
    ("hecke", "HeckeBall._ensure_a_data", "hecke.a_values", SPAN),
    ("hecke", "HeckeBall._ensure_cells", "hecke.cells", SPAN),
    ("hecke", "HeckeBall._ensure_gamma", "hecke.gamma", SPAN),
    ("hecke", "HeckeBall.mul_T", "hecke.tbasis", SPAN),
    ("hecke", "HeckeBall.dagger", "hecke.tbasis", SPAN),
    ("hecke", "HeckeBall.t_to_c", "hecke.tbasis", SPAN),
    ("hecke", "HeckeBall.kl_element", "hecke.tbasis", SPAN),
    ("asymptotic", "JRing.phi", "asymptotic.phi", SPAN),
    ("asymptotic", "JRing.j_mul", "asymptotic.j_mul", SPAN),
    ("laurent", "LaurentPoly.__mul__", "laurent.mul", COUNT),
    ("laurent", "LaurentPoly.__add__", "laurent.add", COUNT),
    ("laurent", "decompose", "laurent.decompose", COUNT),
    ("crossprod", "check_realization_hom", "crossprod.hom_checks", SPAN),
    ("crossprod", "check_spectrum_hom", "crossprod.hom_checks", SPAN),
    ("crossprod", "check_injectivity", "crossprod.hom_checks", SPAN),
    ("crossprod", "check_psi_hom", "crossprod.hom_checks", SPAN),
    ("crossprod", "check_cm4_associativity", "crossprod.hom_checks", SPAN),
    ("crossprod", "evaluate_module", "crossprod.modules", SPAN),
    ("crossprod", "evaluate_reflection_class", "crossprod.modules", SPAN),
    ("crossprod", "bottom_block_dim", "crossprod.modules", SPAN),
    ("extquot", "extended_quotient", "extquot", SPAN),
    ("extquot", "census", "extquot", SPAN),
    ("extquot", "torsion_orbit_census", "extquot", SPAN),
    ("extquot", "sl_dual_torus", "extquot", SPAN),
    ("extquot", "so5_weyl_on_torus", "extquot", SPAN),
    ("extquot", "TorusAction.conjugacy_classes", "extquot", SPAN),
    ("duality", "match_conjecture", "duality", SPAN),
    ("duality", "lowest_cell_check", "duality", SPAN),
    ("duality", "bernstein_point_gl", "duality", SPAN),
    ("duality", "rep_ring_descriptor", "duality", SPAN),
    ("duality", "partitions", "duality", SPAN),
    ("cli", "cache_store", "cli.cache", SPAN),
    ("cli", "emit_report", "cli.report", SPAN),
]

# Span names whose self time is reported as "<name>.s".
TIMED = ["coxeter.ball", "coxeter.omega_reps", "hecke.kl", "hecke.cs",
         "hecke.stream", "hecke.a_values", "hecke.cells", "hecke.gamma",
         "hecke.tbasis", "asymptotic.phi", "asymptotic.j_mul",
         "crossprod.hom_checks", "crossprod.modules", "extquot", "duality",
         "cli.cache", "cli.report"]

# Exceptions that mean "the truncated ball cannot decide this", not a bug.
UNDECIDED = ("UncertifiedError", "BallOverflowError")


def self_times(spans) -> dict[str, float]:
    """Sum per span name of duration minus the part of the span's
    interval that its direct children cover.

    `spans` holds (id, parent id or -1, name, start, end) records."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for sid, _parent, name, start, end in spans:
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


class Tracer:
    """Installs the wrappers, keeps spans and counts, and restores every
    wrapped attribute on `remove()`."""

    def __init__(self):
        self.spans: list[list] = []   # [id, parent, name, start, end, outcome]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.on = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list = []
        self._seen_balls = weakref.WeakSet()
        # certified W' elements and W' elements, over every ball whose
        # a-values were computed; Omega translation keeps certification,
        # so this is also the certified share of the whole ball
        self._certified = [0, 0]
        # hooks that read arguments or results at a span's boundary
        self._before = {"hecke.stream": self._count_pairs}
        self._after = {"hecke.kl": self._count_p_entries,
                       "hecke.a_values": self._count_certified,
                       "cli.cache": self._count_cache_outcome}

    # ---- wrappers -----------------------------------------------------------
    def _count(self, fn, name):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.on:
                counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, fn, name):
        spans, stack, tracer = self.spans, self._stack, self
        clock = time.perf_counter
        before, after = self._before.get(name), self._after.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, "ok"]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if after is not None:
                try:
                    after(args, out)
                except Exception:  # a changed result shape must not break the run
                    if name not in tracer.missing:
                        tracer.missing.append(name)
            return out
        return spanned

    # ---- hooks ----------------------------------------------------------------
    def _count_pairs(self, args):
        if len(args) < 2:
            return args
        visit, counts = args[1], self.counts

        def counted_visit(*a):
            counts["hecke.stream.pairs"] += 1
            return visit(*a)
        return (args[0], counted_visit) + tuple(args[2:])

    def _count_p_entries(self, args, _out):
        table = getattr(args[0], "_p", None)
        if table is not None:
            self.counts["hecke.p_entries"] += sum(len(col) for col in table)

    def _count_certified(self, args, _out):
        hb = args[0]
        cert = getattr(hb, "_a_cert", None)
        if cert is not None and hb not in self._seen_balls:
            self._seen_balls.add(hb)
            self._certified[0] += sum(1 for c in cert if c)
            self._certified[1] += len(cert)

    def _count_cache_outcome(self, _args, out):
        path, status = out
        if status == "written":
            self.counts["cli.cache.writes"] += 1
        elif status == "hit":
            self.counts["cli.cache.hits"] += 1
        self.counts["cli.cache.bytes"] += path.stat().st_size

    # ---- install / remove ---------------------------------------------------
    def install(self) -> None:
        for modname, path, name, kind in TARGETS:
            module = sys.modules.get("heckequot." + modname)
            owner, _, attr = path.rpartition(".")
            if module is not None and owner:
                owner = vars(module).get(owner)
            else:
                owner = module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{modname}.{path}")
                continue
            wrap = self._span if kind == SPAN else self._count
            wrapper = wrap(original, name)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
            else:
                # a module function may also be bound by name in other modules
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("heckequot"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self._wrappers.append(wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Names in heckequot's modules and classes still bound to one of
        this tracer's wrappers; empty after `remove()`."""
        wrappers = {id(w) for w in self._wrappers}
        found = []
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("heckequot"):
                continue
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__ == modname]
            for owner in owners:
                prefix = modname if owner is mod else f"{modname}.{owner.__qualname__}"
                for key, value in vars(owner).items():
                    if id(value) in wrappers:
                        found.append(f"{prefix}.{key}")
        return found

    @contextlib.contextmanager
    def paused(self):
        """Stop recording, e.g. while the benchmark checks a result."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    # ---- metrics --------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of everything recorded so far."""
        records = [r[:5] for r in self.spans]
        selfs = self_times(records)
        calls = Counter(r[2] for r in self.spans)
        out: dict[str, float] = {}
        for key in ("coxeter.multiply", "coxeter.length_of", "laurent.mul",
                    "laurent.add", "laurent.decompose"):
            out[key + ".calls"] = self.counts[key]
        for name in TIMED:
            out[name + ".s"] = selfs.get(name, 0.0)
        for name in ("hecke.tbasis", "asymptotic.phi", "asymptotic.j_mul"):
            out[name + ".calls"] = calls[name]
        out["hecke.stream.passes"] = calls["hecke.stream"]
        for key in ("hecke.stream.pairs", "hecke.p_entries", "cli.cache.writes",
                    "cli.cache.hits", "cli.cache.bytes"):
            out[key] = self.counts[key]
        cert, total = self._certified
        out["hecke.wprime_elements"] = total
        out["hecke.certified_ratio"] = cert / total if total else 0.0
        ops = [r[5] for r in self.spans
               if r[2] in ("asymptotic.phi", "asymptotic.j_mul")]
        undecided = sum(1 for o in ops if o in UNDECIDED)
        out["asymptotic.ops"] = len(ops)
        out["asymptotic.decided_ratio"] = ((len(ops) - undecided) / len(ops)
                                           if ops else 0.0)
        return out
