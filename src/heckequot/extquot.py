"""Fixed loci and component censuses for finite groups acting on tori.

A group element acts on an algebraic torus through a unimodular integer
matrix on the cocharacter lattice.  Its fixed locus is a disjoint union
of translates of a subtorus: the free directions span ker(M - I), the
set of components is the torsion of coker(M - I).  Components carry an
action of the centralizer, and the pieces of the quotient are recorded
as exact descriptors.  Components are int signatures, and a centralizer
element acts on them and on the kernel lattice through one integer
matrix; Fractions are built only where points are printed.  An action
holds its group law once: on perm tuples when it permutes coordinates,
else as a Cayley table of its matrices built at construction.  There
are no floating point numbers anywhere in this module.  Rational elimination
(`row_reduce`) is fraction-free: it clears its rows to ints once and
returns int rows, each a nonzero rational multiple of the reduced row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .coxeter import Matrix, mat_identity, mat_mul, perm_matrix


class ExtQuotError(Exception):
    pass


def _grid(m) -> tuple:
    return tuple(tuple(row) for row in m)


# ---------------- integer linear algebra ------------------------------------

def smith_normal_form(a: list[list[int]]) -> tuple[list[list[int]], ...]:
    """U, D, V, V^-1 with D = U a V, U and V unimodular, and the diagonal
    of D a nonnegative divisibility chain d1 | d2 | ..."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u, v, vi = ([list(row) for row in mat_identity(k)] for k in (m, n, n))

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vi[i], vi[j] = vi[j], vi[i]

    def add_row(i, j, c):
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        for r in d:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]
        # V gains c * col j in col i, so V^-1 loses c * row i from row j
        vi[j] = [x - c * y for x, y in zip(vi[j], vi[i])]

    t = 0
    while t < min(m, n):
        pivots = [
            (abs(d[i][j]), i, j)
            for i in range(t, m)
            for j in range(t, n)
            if d[i][j]
        ]
        if not pivots:
            break
        _, pi, pj = min(pivots)
        swap_rows(t, pi)
        swap_cols(t, pj)
        while any(d[i][t] for i in range(t + 1, m)) or any(
            d[t][j] for j in range(t + 1, n)
        ):
            for i in range(t + 1, m):
                if d[i][t]:
                    add_row(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t]:
                        swap_rows(i, t)
            for j in range(t + 1, n):
                if d[t][j]:
                    add_col(j, t, -(d[t][j] // d[t][t]))
                    if d[t][j]:
                        swap_cols(j, t)
        offender = next(
            (
                i
                for i in range(t + 1, m)
                if any(d[i][j] % d[t][t] for j in range(t + 1, n))
            ),
            None,
        )
        if offender is not None:
            # pull the offending row up so the pivot can absorb its gcd
            add_row(t, offender, 1)
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    if _grid(mat_mul(mat_mul(u, a), v)) != _grid(d):
        raise ExtQuotError("normal form bookkeeping broke")
    if mat_mul(v, vi) != mat_identity(n):
        raise ExtQuotError("normal form inverse broke")
    diag = [d[i][i] for i in range(min(m, n))]
    for x, y in zip(diag, diag[1:]):
        if x and y % x:
            raise ExtQuotError("divisibility chain broke")
    return u, d, v, vi


# ---------------- rational linear algebra -----------------------------------

def clear_denominators(row) -> list[int]:
    """An int or Fraction row times the lcm of its denominators, as a
    list of ints."""
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def row_reduce(rows, ncols: int | None = None) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination: the reduced rows and the
    pivot column of each leading row, with pivots sought only among the
    first ncols columns (all of them by default).

    Each input row (ints or Fractions) is cleared of denominators once,
    and a row meeting the pivot p of row r at c becomes p row - c row_r,
    divided by its content, so every entry stays an int.  The pivots are
    those of elimination over the rationals, and each returned row is a
    nonzero rational multiple of the reduced row there (a zero row stays
    zero): pivot entries are not scaled to 1."""
    work = [clear_denominators(row) for row in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        top = work[r]
        p = top[col]
        for i, row in enumerate(work):
            c = row[col]
            if c and i != r:
                row = [p * x - c * y for x, y in zip(row, top)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return work, pivots


def matrix_rank(rows) -> int:
    return len(row_reduce(rows)[1])


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen: set[int] = set()
    parts = []
    for i in range(len(perm)):
        if i in seen:
            continue
        n, j = 0, i
        while j not in seen:
            seen.add(j)
            j = perm[j]
            n += 1
        parts.append(n)
    return tuple(sorted(parts, reverse=True))


# ---------------- descriptors ------------------------------------------------

@dataclass(frozen=True, order=True)
class Descriptor:
    """One census entry: the dimension of a component and the name of its
    shape.  Censuses compare and sort by (dim, text)."""

    dim: int
    text: str

    def __str__(self) -> str:
        return self.text


POINT = Descriptor(0, "point")
LINE = Descriptor(1, "line")  # a punctured line, nothing identified
LINE_INV = Descriptor(1, "line/inv")  # z ~ 1/z: the ring of an affine line


def sym_product(parts: tuple[int, ...]) -> Descriptor:
    """Product of symmetric powers of the punctured line, one factor of
    size n per entry.  Parts are listed by decreasing attached weight."""
    return Descriptor(sum(parts), "sym(" + ",".join(str(p) for p in parts) + ")")


def torus_mod(rank: int, label: str) -> Descriptor:
    """Symbolic quotient of a torus of the given rank; the label names
    the acting group when it is known exactly."""
    return Descriptor(rank, f"torus({rank})/{label}")


@dataclass(frozen=True)
class ExtQuotComponent:
    class_tag: str
    descriptor: Descriptor
    cycle: tuple[int, ...] | None = None


def census(items: list) -> list[tuple[int, str, int]]:
    """Sorted (dim, descriptor text, multiplicity) rows over components or
    bare descriptors."""
    counts: dict[Descriptor, int] = {}
    for c in items:
        d = c.descriptor if isinstance(c, ExtQuotComponent) else c
        counts[d] = counts.get(d, 0) + 1
    return [(d.dim, d.text, n) for d, n in sorted(counts.items())]


# ---------------- torus actions ----------------------------------------------

@dataclass
class ConjClass:
    rep: int
    members: tuple[int, ...]
    name: str
    cycle: tuple[int, ...] | None = None


@dataclass
class TorusAction:
    """A finite group of unimodular matrices acting on a lattice.

    `perms` optionally models the same group as all of S_m permuting m
    coordinates, listed in the order of `matrices`; commutation is then
    tested on the tuples and the classes are the cycle types, so nothing
    is multiplied, which is what makes the order-720 cases cheap.  Without
    it, one Cayley table of the matrices, built here and so checked for
    closure, gives both.  `embed` maps lattice coordinates into ambient
    torus coordinates when the action lives on a sublattice cut out by a
    determinant condition."""

    rank: int
    matrices: list[Matrix]  # rows given as lists are made tuples
    names: list[str]
    group_label: str
    perms: list[tuple[int, ...]] | None = None
    embed: list[list[int]] | None = None

    def __post_init__(self):
        self.matrices = [tuple(map(tuple, m)) for m in self.matrices]
        if len(self.names) != len(self.matrices):
            raise ExtQuotError("names and matrices list groups of different orders")
        index = {m: i for i, m in enumerate(self.matrices)}
        if len(index) != len(self.matrices):
            raise ExtQuotError("action has repeated matrices")
        ident = mat_identity(self.rank)
        if ident not in index:
            raise ExtQuotError("action has no identity matrix")
        self._id = index[ident]
        self._table = None
        if self.perms is not None:
            if len(self.perms) != len(self.matrices):
                raise ExtQuotError("perms and matrices list groups of different orders")
            m = len(self.perms[0]) if self.perms else 0
            if sorted(self.perms) != list(itertools.permutations(range(m))):
                raise ExtQuotError("perms must list all of S_m")
        else:
            try:
                # _table[g][h] is the index of g h
                self._table = [[index[mat_mul(a, b)] for b in self.matrices]
                               for a in self.matrices]
            except KeyError:
                raise ExtQuotError("action is not closed under products") from None

    def __len__(self) -> int:
        return len(self.matrices)

    def identity_index(self) -> int:
        return self._id

    def centralizer(self, i: int) -> list[int]:
        if self.perms is not None:
            c = self.perms[i]
            # p commutes with c when p(c(x)) == c(p(x)) for every x
            return [g for g, p in enumerate(self.perms)
                    if [p[y] for y in c] == [c[y] for y in p]]
        t = self._table
        return [g for g in range(len(self)) if t[g][i] == t[i][g]]

    def conjugacy_classes(self) -> list[ConjClass]:
        if self.perms is not None:
            # full symmetric group: classes are exactly the cycle types
            by_type: dict[tuple[int, ...], list[int]] = {}
            for i, p in enumerate(self.perms):
                by_type.setdefault(cycle_type(p), []).append(i)
            classes = [ConjClass(v[0], tuple(v), self.names[v[0]], t)
                       for t, v in by_type.items()]
        else:
            t, n = self._table, len(self)
            inv = [row.index(self._id) for row in t]
            # the class of i is {g i g^-1}, its members sorted
            orbits = {tuple(sorted({t[t[g][i]][inv[g]] for g in range(n)})) for i in range(n)}
            classes = [ConjClass(c[0], c, self.names[c[0]]) for c in orbits]
        classes.sort(key=lambda c: c.members[0])
        return classes

    def ambient_point(self, q: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        if self.embed is None:
            return q
        return tuple(sum(map(mul, row, q)) % 1 for row in self.embed)


# ---------------- factories --------------------------------------------------

def so5_weyl_on_torus() -> TorusAction:
    """The order-8 signed permutation group of a rank-2 torus, numbered
    so that class representatives come out as elements 1, 2, 3, 5, 6."""
    mats = [
        [[1, 0], [0, 1]],     # identity
        [[0, 1], [1, 0]],     # swap coordinates
        [[-1, 0], [0, 1]],    # invert first
        [[1, 0], [0, -1]],    # invert second
        [[0, 1], [-1, 0]],    # quarter turn
        [[-1, 0], [0, -1]],   # invert both (central)
        [[0, -1], [1, 0]],    # opposite quarter turn
        [[0, -1], [-1, 0]],   # swap and invert both
    ]
    names = [f"gamma{i + 1}" for i in range(8)]
    return TorusAction(rank=2, matrices=mats, names=names, group_label="W(B2)")


def _perm_name(p: tuple[int, ...]) -> str:
    return "".join(str(x + 1) for x in p)


# the ranks the coordinate permutation actions below are kept to
SYMMETRIC_RANKS = range(1, 7)
SL_RANKS = range(2, 7)


def symmetric_on_torus(n: int) -> TorusAction:
    """All of S_n permuting the coordinates of a rank-n torus."""
    if n not in SYMMETRIC_RANKS:
        raise ExtQuotError("coordinate permutation actions are kept small")
    perms = sorted(itertools.permutations(range(n)))
    mats = [perm_matrix(p) for p in perms]
    return TorusAction(
        rank=n,
        matrices=mats,
        names=[_perm_name(p) for p in perms],
        group_label=f"S{n}",
        perms=perms,
    )


def sl_dual_torus(n: int) -> TorusAction:
    """S_n permuting the coordinates of the determinant-one subtorus of
    a rank-n torus.  The restriction to the rank n-1 sublattice happens
    here, before any normal form is taken."""
    if n not in SL_RANKS:
        raise ExtQuotError("coordinate permutation actions are kept small")
    perms = sorted(itertools.permutations(range(n)))
    # in the basis v_j = e_j - e_{j+1} of the sum-zero sublattice, p sends
    # v_j to e_p[j] - e_p[j+1], whose coefficient against v_i is the
    # partial sum of its first i + 1 coordinates
    mats = [[[(p[j] <= i) - (p[j + 1] <= i) for j in range(n - 1)] for i in range(n - 1)]
            for p in perms]
    embed = [[(i == j) - (i == j + 1) for j in range(n - 1)] for i in range(n)]
    return TorusAction(
        rank=n - 1,
        matrices=mats,
        names=[_perm_name(p) for p in perms],
        group_label=f"S{n}",
        perms=perms,
        embed=embed,
    )


# ---------------- fixed loci --------------------------------------------------

@dataclass
class FixedLocus:
    """The fixed locus of gamma, read off one Smith form D = U (M - I) V:
    q lies on it when every d_i y_i is an integer, y = V^-1 q.  The zero
    positions (d_i = 0) span the kernel lattice; a component is its
    signature in the sum of the Z/f_i over the torsion positions
    (d_i = f_i > 1), the point y_i = sig_i / f_i there and 0 elsewhere.
    `signatures` lists them in mixed-radix order."""

    dim: int
    invariant_factors: tuple[int, ...]
    signatures: list[tuple[int, ...]]
    v: list[list[int]]
    v_inv: list[list[int]]
    torsion_positions: tuple[int, ...]
    zero_positions: tuple[int, ...]

    def component_count(self) -> int:
        return len(self.signatures)

    def point(self, sig: tuple[int, ...]) -> tuple[Fraction, ...]:
        """The component with signature sig as a point V y mod 1, the one
        place a component becomes Fractions."""
        e = max(self.invariant_factors, default=1)  # every f_i divides it
        ey = [s * (e // f) for s, f in zip(sig, self.invariant_factors)]
        return tuple(Fraction(sum(row[p] * x for p, x in zip(self.torsion_positions, ey)) % e, e)
                     for row in self.v)

    def action(self, n: Matrix) -> tuple[list[int], list[list[int]]]:
        """What n does through N = V^-1 n V: the index of each
        component's image, sig'_p = f_p sum_q N[p][q] sig_q / f_q mod f_p
        worked on ints over the exponent e of the component group, and
        N's block on the kernel lattice.  An element commuting with gamma
        keeps the kernel (N[p][q] = 0 for p not a zero position, q one)
        and the locus (each sum is integral at d_p = 1); else it raises."""
        nn = mat_mul(mat_mul(self.v_inv, n), self.v)
        zeros, tors, factors = self.zero_positions, self.torsion_positions, self.invariant_factors
        if any(nn[p][q] for p in range(len(nn)) if p not in zeros for q in zeros):
            raise ExtQuotError("element does not keep the kernel lattice")
        e = max(factors, default=1)
        d = dict(zip(tors, factors))
        # a position with d_p = 1 adds nothing to the index: k * 1 + 0
        rows = [(d.get(p, 1), [nn[p][q] * (e // g) for q, g in zip(tors, factors)])
                for p in range(len(nn)) if p not in zeros]
        images = []
        for sig in self.signatures:
            k = 0
            for f, row in rows:
                s = f * sum(map(mul, row, sig))
                if s % e:
                    raise ExtQuotError("point does not lie on the fixed locus")
                k = k * f + s // e % f
            images.append(k)
        return images, [[nn[p][q] for q in zeros] for p in zeros]


def fixed_locus(action: TorusAction, gamma: int) -> FixedLocus:
    m = action.matrices[gamma]
    r = action.rank
    a = [[m[i][j] - (i == j) for j in range(r)] for i in range(r)]
    _, d, v, v_inv = smith_normal_form(a)
    diag = [d[i][i] for i in range(r)]
    tors = tuple(i for i, x in enumerate(diag) if x > 1)
    zeros = tuple(i for i, x in enumerate(diag) if x == 0)
    factors = tuple(diag[i] for i in tors)
    return FixedLocus(dim=len(zeros), invariant_factors=factors,
                      signatures=list(itertools.product(*[range(f) for f in factors])),
                      v=v, v_inv=v_inv, torsion_positions=tors, zero_positions=zeros)


# ---------------- quotient components ----------------------------------------

def _component_orbits(action: TorusAction, fl: FixedLocus, cent: list[int]):
    """Orbits of the centralizer on the component set, each with its
    stabilizer as {element: its block on the kernel lattice}.  The
    centralizer is a group, so the images of a component are its orbit."""
    perms, blocks = {}, {}
    for g in cent:
        perms[g], blocks[g] = fl.action(action.matrices[g])
    orbits, seen = [], set()
    for start in range(fl.component_count()):
        if start not in seen:
            orbit = sorted({perms[g][start] for g in cent})
            seen.update(orbit)
            orbits.append((orbit, {g: blocks[g] for g in cent if perms[g][start] == start}))
    return orbits


def full_torus_descriptor(action: TorusAction) -> Descriptor:
    """What the whole torus looks like after dividing by the whole group."""
    r = action.rank
    if r == 0:
        return POINT
    if r == 1:
        return LINE_INV if any(m[0][0] == -1 for m in action.matrices) else LINE
    return torus_mod(r, action.group_label)


def _sym_parts(cyc: tuple[int, ...]) -> tuple[int, ...]:
    # multiplicities of the distinct cycle lengths, largest length first
    parts = []
    for val in sorted(set(cyc), reverse=True):
        parts.append(sum(1 for c in cyc if c == val))
    return tuple(parts)


def extended_quotient(action: TorusAction) -> list[ExtQuotComponent]:
    """One component record per centralizer orbit on each fixed locus,
    over one representative per conjugacy class."""
    out = []
    for cls in action.conjugacy_classes():
        fl = fixed_locus(action, cls.rep)
        if action.perms is not None and action.embed is None:
            # coordinate permutations: the quotient of each fixed locus
            # is a product of symmetric powers, one per distinct cycle
            # length; the locus itself is connected
            if fl.component_count() != 1 or fl.dim != len(cls.cycle):
                raise ExtQuotError("permutation fixed locus looks wrong")
            out.append(ExtQuotComponent(cls.name, sym_product(_sym_parts(cls.cycle)),
                                        cls.cycle))
            continue
        if cls.rep == action.identity_index():
            out.append(ExtQuotComponent(cls.name, full_torus_descriptor(action),
                                        cls.cycle))
            continue
        cent = action.centralizer(cls.rep)
        for _, stab in _component_orbits(action, fl, cent):
            if fl.dim == 0:
                descr = POINT
            elif fl.dim == 1:
                # the kernel line is inverted exactly when a block is -1
                descr = LINE_INV if [[-1]] in stab.values() else LINE
            else:
                # exact class tracking stops at curves; higher pieces
                # stay symbolic and are compared by dimension only
                descr = torus_mod(fl.dim, "symbolic")
            out.append(ExtQuotComponent(cls.name, descr, cls.cycle))
    out.sort(key=lambda c: (c.class_tag, c.descriptor))
    return out


def torsion_orbit_census(action: TorusAction, gamma: int) -> list[dict]:
    """Centralizer orbits on a zero-dimensional fixed locus, as explicit
    points with exact coordinates."""
    fl = fixed_locus(action, gamma)
    if fl.dim != 0:
        raise ExtQuotError("fixed locus is positive dimensional")
    cent = action.centralizer(gamma)
    orbits = []
    for members, _ in _component_orbits(action, fl, cent):
        pts = sorted(fl.point(fl.signatures[i]) for i in members)
        orbits.append({
            "size": len(pts),
            "points": pts,
            "ambient": [action.ambient_point(p) for p in pts],
        })
    orbits.sort(key=lambda o: o["points"][0])
    return orbits
