"""Dual-side bookkeeping: partitions, reductive centralizer catalogs,
their representation-ring censuses, and the matcher that compares those
censuses against the torus-quotient censuses computed exactly.

Every centralizer is one `Centralizer` value: name, component-group
order, census.  Three constructors build those of the linear families
(products of general linear groups, the same cut down by a weighted
determinant condition, finite cyclic groups) and carry the census rules;
the rank-two symplectic catalog lists its four values literally.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

from . import crossprod, extquot
from .extquot import (
    LINE,
    LINE_INV,
    POINT,
    Descriptor,
    TorusAction,
    census,
    extended_quotient,
    sl_dual_torus,
    so5_weyl_on_torus,
    sym_product,
    symmetric_on_torus,
    torus_mod,
)


class DualityError(Exception):
    pass


class DisconnectedCentralizer(DualityError):
    """Raised when a census is requested for a centralizer whose
    component group is not trivial; the census is not forced then."""

    def __init__(self, order: int):
        super().__init__(f"component group has order {order}")
        self.order = order


# ---------------- partitions ---------------------------------------------------

def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, parts decreasing, in reverse lexicographic
    order starting from (n,)."""
    if n < 0:
        raise DualityError("partitions of a negative number")
    out: list[tuple[int, ...]] = []

    def walk(rest: int, cap: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(cap, rest), 0, -1):
            walk(rest - part, part, acc + (part,))

    walk(n, n, ())
    return out


def dual_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise DualityError("parts must be listed in decreasing order")
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part >= j)
                 for j in range(1, lam[0] + 1))


# ---------------- centralizers -------------------------------------------------

@dataclass(frozen=True)
class Centralizer:
    """Reductive part of a dual-side centralizer: its name, the order of
    its component group, and the census of the spectrum of its
    representation ring, or None when that census is not forced."""

    name: str
    components: int
    census: tuple[Descriptor, ...] | None

    def __str__(self) -> str:
        return self.name


def gl_product(parts: tuple[int, ...]) -> Centralizer:
    """GL(parts[0]) x GL(parts[1]) x ..., one factor per distinct
    weight, listed by decreasing weight.  Each general linear factor
    contributes a symmetric power of the punctured line."""
    name = "GL(" + ")xGL(".join(str(p) for p in parts) + ")"
    return Centralizer(name, 1, (sym_product(parts),))


def gl_product_in_sl(parts: tuple[int, ...], powers: tuple[int, ...]) -> Centralizer:
    """The same product cut down by det(g_1)^w_1 ... det(g_k)^w_k = 1,
    with the exponents w_i in `powers`.  The component group has order
    gcd(powers); a disconnected one gets no census, because its census is
    not determined by the identity component."""
    inner = "x".join(f"GL({p})" for p in parts)
    w = ",".join(str(w) for w in powers)
    g = gcd(*powers)
    rank = sum(parts) - 1
    if g > 1:
        census = None
    elif parts == (rank + 1,):
        # the full special linear group; R(SL2) is a polynomial ring on
        # the standard character, whose spectrum is the inversion
        # quotient of the torus
        census = (LINE_INV,) if rank == 1 else (torus_mod(rank, f"S{rank + 1}"),)
    elif rank == 1:
        # a one dimensional torus with trivial symmetry
        census = (LINE,)
    else:
        census = (torus_mod(rank, "symbolic"),)
    return Centralizer(f"({inner})_det[{w}]", g, census)


def cyclic(n: int) -> Centralizer:
    """A finite cyclic group: n isolated points."""
    return Centralizer(f"Z/{n}", n, (POINT,) * n)


SO5_CATALOG: list[tuple[str, Centralizer]] = [
    ("c_e", cyclic(2)),
    # one point for the extra central summand, then the census of the
    # crossed product of the Laurent ring by inversion
    ("c_1", Centralizer("Gm : Z/2", 2, (POINT, *crossprod.prim_census()))),
    # R(SL2) gives the inversion quotient of the torus; the two-group
    # doubles it
    ("c_2", Centralizer("Z/2 x SL(2)", 2, (LINE_INV, LINE_INV))),
    ("c_0", Centralizer("Sp(4)", 1, (torus_mod(2, "W(B2)"),))),
]


def centralizer_reductive(family: str, key) -> Centralizer:
    """Reductive part of the dual-side centralizer attached to a cell of
    a linear family (SO5_CATALOG holds those of so5).

    The key is the partition labelling the cell; the centralizer is read
    off the transpose partition: one general linear factor per distinct
    part, of size its multiplicity."""
    if family not in ("gl", "pgl"):
        raise DualityError(f"unknown family {family!r}")
    lam = tuple(key)
    n = sum(lam)
    mu = dual_partition(lam)
    mults = extquot._sym_parts(mu)  # distinct parts taken largest first
    if family == "gl":
        return gl_product(mults)
    if lam == (1,) * n:
        # regular case: the centralizer is exactly the center
        return cyclic(n)
    return gl_product_in_sl(mults, tuple(sorted(set(mu), reverse=True)))


def rep_ring_descriptor(rd: Centralizer) -> list[Descriptor]:
    """Component census of the spectrum of the representation ring;
    disconnected centralizers without a forced census are refused."""
    if rd.census is None:
        raise DisconnectedCentralizer(rd.components)
    return list(rd.census)


# ---------------- the matcher ---------------------------------------------------

@dataclass
class MatchRecord:
    cell: str
    dual_side: list[Descriptor] | None
    quotient_side: list[Descriptor] | None
    verdict: str
    note: str = ""


@dataclass
class MatchReport:
    records: list[MatchRecord]
    verdict: str
    dual_census: list[tuple[int, str, int]]
    quotient_census: list[tuple[int, str, int]]
    note: str = ""


def _symbolic_only(ds: list[Descriptor]) -> bool:
    return any(d == torus_mod(d.dim, "symbolic") for d in ds)


def _compare(cell: str, dual: list[Descriptor], quot: list[Descriptor]) -> MatchRecord:
    if _symbolic_only(dual) or _symbolic_only(quot):
        dd = sorted(d.dim for d in dual)
        qd = sorted(d.dim for d in quot)
        if dd == qd:
            return MatchRecord(cell, dual, quot, "pass",
                               "compared by dimension only")
        return MatchRecord(cell, dual, quot, "fail",
                           f"dimensions differ: {dd} vs {qd}")
    if Counter(dual) == Counter(quot):
        return MatchRecord(cell, dual, quot, "pass")
    return MatchRecord(cell, dual, quot, "fail", "component censuses differ")


def _dual_torus(tag: str, n: int | None) -> TorusAction:
    """The Weyl group action on the dual torus of each family."""
    if tag == "sl2":
        return sl_dual_torus(2)
    if tag == "so5":
        return so5_weyl_on_torus()
    if tag not in ("gl", "pgl"):
        raise DualityError(f"unknown family {tag!r}")
    if n is None:
        raise DualityError("the linear families need the rank")
    return symmetric_on_torus(n) if tag == "gl" else sl_dual_torus(n)


def match_conjecture(tag: str, n: int | None = None) -> MatchReport:
    """Compare the dual-side censuses with the torus-quotient censuses.

    gl: one cell per partition, matched through the transpose; the two
    sides must agree cell by cell and the total count is the number of
    partitions.  pgl: same pairing on the determinant-one subtorus; a
    disconnected centralizer is reported as a discrepancy, never forced.
    so5: the total multisets are compared; there are four cells but five
    conjugacy classes, so no cell-by-cell pairing is claimed.  sl2: the
    torus census against the crossed-product census."""
    comps = extended_quotient(_dual_torus(tag, n))
    if tag == "sl2":
        quot = [c.descriptor for c in comps]
        dual = crossprod.prim_census()
        rec = _compare("whole algebra", dual, quot)
        return MatchReport([rec],
                           "PASS" if rec.verdict == "pass" else "FAIL",
                           census(dual), census(quot))

    if tag == "so5":
        quot = [c.descriptor for c in comps]
        records = []
        dual: list[Descriptor] = []
        for cell, rd in SO5_CATALOG:
            ds = rep_ring_descriptor(rd)
            dual.extend(ds)
            records.append(MatchRecord(cell, ds, None, "info",
                                       f"centralizer {rd}"))
        agree = Counter(dual) == Counter(quot)
        records.append(MatchRecord(
            "total", dual, quot, "pass" if agree else "fail",
            "4 cells against 5 classes: only the totals are compared"))
        return MatchReport(records, "PASS" if agree else "FAIL",
                           census(dual), census(quot),
                           note="cell count 4, class count 5")

    by_cycle: dict[tuple[int, ...], list[Descriptor]] = {}
    for c in comps:
        by_cycle.setdefault(c.cycle, []).append(c.descriptor)

    records = []
    dual_all: list[Descriptor] = []
    quot_all: list[Descriptor] = []
    discrepancy = False
    seen_cycles = set()
    for lam in partitions(n):
        cell = f"lambda={lam}"
        mu = dual_partition(lam)
        quot = by_cycle.get(mu)
        if quot is None:
            records.append(MatchRecord(cell, None, None, "fail",
                                       f"no conjugacy class of cycle type {mu}"))
            continue
        seen_cycles.add(mu)
        quot_all.extend(quot)
        rd = centralizer_reductive(tag, lam)
        try:
            dual = rep_ring_descriptor(rd)
        except DisconnectedCentralizer as exc:
            discrepancy = True
            records.append(MatchRecord(
                cell, None, quot, "discrepancy",
                f"centralizer {rd} is disconnected (component group of "
                f"order {exc.order}); its census is not forced, while the "
                f"quotient side has {len(quot)} component(s)"))
            continue
        dual_all.extend(dual)
        records.append(_compare(cell, dual, quot))
    if len(seen_cycles) != len(by_cycle):
        records.append(MatchRecord("coverage", None, None, "fail",
                                   "some classes were never paired"))
    if discrepancy:
        verdict = "DISCREPANCY"
    elif all(r.verdict == "pass" for r in records):
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return MatchReport(records, verdict, census(dual_all), census(quot_all))


# ---------------- whole-group checks and parameter points ----------------------

def lowest_cell_check(family: str, n: int | None = None) -> dict:
    """The cell of the full dual group must reproduce the identity-class
    component of the extended quotient.  For the linear families that
    cell is lambda = (n); sl2 is pgl at n = 2."""
    if family == "sl2":
        family, n = "pgl", 2
    action = _dual_torus(family, n)
    if family == "so5":
        rd = dict(SO5_CATALOG)["c_0"]
    else:
        rd = centralizer_reductive(family, (n,))
    dual = rep_ring_descriptor(rd)
    ident_name = action.names[action.identity_index()]
    quot = [c.descriptor for c in extended_quotient(action)
            if c.class_tag == ident_name]
    return {"dual": dual, "quotient": quot, "agrees": Counter(dual) == Counter(quot)}


def bernstein_point_gl(exponents: tuple[int, ...],
                       torsions: tuple[int, ...] | None = None) -> dict:
    """Component census at a parameter point of a linear group: one
    symmetric-group block per exponent, censuses multiplied together by
    concatenating the symmetric-power shapes.

    The torsion numbers, each at least 1, only dress the block parameters; the census does
    not depend on them, so they are echoed and otherwise ignored."""
    exponents = tuple(exponents)
    if not exponents:
        raise DualityError("at least one block is required")
    if torsions is None:
        torsions = (1,) * len(exponents)
    torsions = tuple(torsions)
    if len(torsions) != len(exponents):
        raise DualityError("one torsion number per block is required")
    if any(r < 1 for r in torsions):
        raise DualityError("torsion numbers must be positive")
    blocks = [[extquot._sym_parts(dual_partition(lam)) for lam in partitions(e)]
              for e in exponents]
    factors = [{"size": e, "parameter": f"q^{r}",
                "census": [sym_product(parts) for parts in block]}
               for e, r, block in zip(exponents, torsions, blocks)]
    total: list[tuple[int, ...]] = []

    def cross(i: int, acc: tuple[int, ...]):
        if i == len(blocks):
            total.append(tuple(sorted(acc, reverse=True)))
            return
        for parts in blocks[i]:
            cross(i + 1, acc + parts)

    cross(0, ())
    total.sort(key=lambda parts: (sum(parts), parts))
    return {
        "factors": factors,
        "census": [sym_product(parts) for parts in total],
        "count": len(total),
    }
