"""Dual-side bookkeeping: partitions, reductive centralizer catalogs,
their representation-ring censuses, and the matcher that compares those
censuses against the torus-quotient censuses computed exactly.

The vocabulary of reductive groups is deliberately tiny: products of
general linear groups, the same cut down by a weighted determinant
condition, finite cyclic groups, and the three fixed shapes that occur
for the rank-two symplectic catalog.
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


# ---------------- reductive descriptors ----------------------------------------

@dataclass(frozen=True)
class GLProduct:
    """GL(parts[0]) x GL(parts[1]) x ..., one factor per distinct
    weight, listed by decreasing weight."""

    parts: tuple[int, ...]

    def __str__(self) -> str:
        return "GL(" + ")xGL(".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class GLProductInSL:
    """The same product cut down by det(g_1)^w_1 ... det(g_k)^w_k = 1,
    with the exponents w_i in `powers`."""

    parts: tuple[int, ...]
    powers: tuple[int, ...]

    def __str__(self) -> str:
        inner = "x".join(f"GL({p})" for p in self.parts)
        w = ",".join(str(w) for w in self.powers)
        return f"({inner})_det[{w}]"


@dataclass(frozen=True)
class FiniteCyclic:
    n: int

    def __str__(self) -> str:
        return f"Z/{self.n}"


@dataclass(frozen=True)
class TwoGroupTimesSL2:
    def __str__(self) -> str:
        return "Z/2 x SL(2)"


@dataclass(frozen=True)
class TwoGroupSemidirectGm:
    def __str__(self) -> str:
        return "Gm : Z/2"


@dataclass(frozen=True)
class SpFull:
    rank: int = 2

    def __str__(self) -> str:
        return f"Sp({2 * self.rank})"


ReductiveDescriptor = (
    GLProduct | GLProductInSL | FiniteCyclic
    | TwoGroupTimesSL2 | TwoGroupSemidirectGm | SpFull
)


def component_group_order(rd: ReductiveDescriptor) -> int:
    if isinstance(rd, GLProductInSL):
        return gcd(*rd.powers)
    if isinstance(rd, FiniteCyclic):
        return rd.n
    if isinstance(rd, (TwoGroupTimesSL2, TwoGroupSemidirectGm)):
        return 2
    return 1


# ---------------- centralizer catalogs -----------------------------------------

SO5_CATALOG: list[tuple[str, ReductiveDescriptor]] = [
    ("c_e", FiniteCyclic(2)),
    ("c_1", TwoGroupSemidirectGm()),
    ("c_2", TwoGroupTimesSL2()),
    ("c_0", SpFull(2)),
]


def centralizer_reductive(family: str, key) -> ReductiveDescriptor:
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
        return GLProduct(mults)
    if lam == (1,) * n:
        # regular case: the centralizer is exactly the center
        return FiniteCyclic(n)
    return GLProductInSL(mults, tuple(sorted(set(mu), reverse=True)))


# ---------------- representation ring censuses ---------------------------------

def rep_ring_descriptor(rd: ReductiveDescriptor) -> list[Descriptor]:
    """Component census of the spectrum of the representation ring.

    Each general linear factor contributes a symmetric power of the
    punctured line; a finite cyclic group contributes isolated points;
    the two-component shapes are taken apart by the crossed-product
    model.  Disconnected positive-dimensional centralizers are refused,
    because their census is not determined by the identity component."""
    if isinstance(rd, GLProduct):
        return [sym_product(rd.parts)]
    if isinstance(rd, FiniteCyclic):
        return [POINT] * rd.n
    if isinstance(rd, TwoGroupTimesSL2):
        # R(SL2) is a polynomial ring on the standard character, which
        # identifies its spectrum with the inversion quotient of the
        # torus; the two-group doubles it
        return [LINE_INV, LINE_INV]
    if isinstance(rd, TwoGroupSemidirectGm):
        # one point for the extra central summand, then the census of
        # the crossed product of the Laurent ring by inversion
        return [POINT] + crossprod.prim_census()
    if isinstance(rd, SpFull):
        return [torus_mod(rd.rank, "W(B2)")]
    if isinstance(rd, GLProductInSL):
        g = component_group_order(rd)
        rank = sum(rd.parts) - 1
        if rank == 0:
            return [POINT] * rd.powers[0]
        if g > 1:
            raise DisconnectedCentralizer(g)
        if rd.parts == (sum(rd.parts),):
            # the full special linear group
            n = rd.parts[0]
            if n == 2:
                return [LINE_INV]
            return [torus_mod(n - 1, f"S{n}")]
        if rank == 1:
            # a one dimensional torus with trivial symmetry
            return [LINE]
        return [torus_mod(rank, "symbolic")]
    raise DualityError(f"no census rule for {rd!r}")


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
    tag: str
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


def match_conjecture(tag: str, n: int | None = None) -> MatchReport:
    """Compare the dual-side censuses with the torus-quotient censuses.

    gl: one cell per partition, matched through the transpose; the two
    sides must agree cell by cell and the total count is the number of
    partitions.  pgl: same pairing on the determinant-one subtorus; a
    disconnected centralizer is reported as a discrepancy, never forced.
    so5: the total multisets are compared; there are four cells but five
    conjugacy classes, so no cell-by-cell pairing is claimed.  sl2: the
    torus census against the crossed-product census."""
    if tag == "sl2":
        quot = [c.descriptor for c in extended_quotient(sl_dual_torus(2))]
        dual = crossprod.prim_census()
        rec = _compare("whole algebra", dual, quot)
        return MatchReport(tag, [rec],
                           "PASS" if rec.verdict == "pass" else "FAIL",
                           census(dual), census(quot))

    if tag == "so5":
        comps = extended_quotient(so5_weyl_on_torus())
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
        return MatchReport(tag, records, "PASS" if agree else "FAIL",
                           census(dual), census(quot),
                           note="cell count 4, class count 5")

    if tag not in ("gl", "pgl"):
        raise DualityError(f"unknown matcher tag {tag!r}")
    if n is None:
        raise DualityError("the linear families need the rank")

    action = symmetric_on_torus(n) if tag == "gl" else sl_dual_torus(n)
    comps = extended_quotient(action)
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
    return MatchReport(tag if n is None else f"{tag}({n})", records, verdict,
                       census(dual_all), census(quot_all))


# ---------------- whole-group checks and parameter points ----------------------

def lowest_cell_check(family: str, n: int | None = None) -> dict:
    """The cell of the full dual group must reproduce the identity-class
    component of the extended quotient."""
    if family in ("gl", "pgl") and n is None:
        raise DualityError("the linear families need the rank")
    if family == "sl2":
        rd: ReductiveDescriptor = GLProductInSL((2,), (1,))
        action = sl_dual_torus(2)
    elif family == "so5":
        rd = SpFull(2)
        action = so5_weyl_on_torus()
    elif family == "gl":
        rd = GLProduct((n,))
        action = symmetric_on_torus(n)
    elif family == "pgl":
        rd = GLProductInSL((n,), (1,))
        action = sl_dual_torus(n)
    else:
        raise DualityError(f"unknown family {family!r}")
    dual = rep_ring_descriptor(rd)
    ident = action.identity_index()
    ident_name = action.names[ident]
    quot = [c.descriptor for c in extended_quotient(action)
            if c.class_tag == ident_name]
    return {
        "family": family,
        "dual": dual,
        "quotient": quot,
        "agrees": Counter(dual) == Counter(quot),
    }


def bernstein_point_gl(exponents: tuple[int, ...],
                       torsions: tuple[int, ...] | None = None) -> dict:
    """Component census at a parameter point of a linear group: one
    symmetric-group block per exponent, censuses multiplied together by
    concatenating the symmetric-power shapes.

    The torsion numbers only dress the block parameters; the census does
    not depend on them, so they are echoed and otherwise ignored."""
    exponents = tuple(exponents)
    if not exponents:
        raise DualityError("at least one block is required")
    if torsions is None:
        torsions = (1,) * len(exponents)
    torsions = tuple(torsions)
    if len(torsions) != len(exponents):
        raise DualityError("one torsion number per block is required")
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
