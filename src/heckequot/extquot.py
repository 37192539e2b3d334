"""Fixed loci and component censuses for finite groups acting on tori.

A group element acts on an algebraic torus through a unimodular integer
matrix on the cocharacter lattice.  Its fixed locus is a disjoint union
of translates of a subtorus: the free directions span ker(M - I), the
set of components is the torsion of coker(M - I).  Components carry an
action of the centralizer, and the pieces of the quotient are recorded
as exact descriptors.  All arithmetic is integer or Fraction; there are
no floating point numbers anywhere in this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .coxeter import mat_identity, mat_mul, mat_vec, perm_matrix

Matrix = list[list[int]]


class ExtQuotError(Exception):
    pass


def _grid(m) -> tuple:
    return tuple(tuple(row) for row in m)


# ---------------- integer linear algebra ------------------------------------

def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix, Matrix]:
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

def row_reduce(rows, ncols: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination over the rationals: the reduced rows and
    the pivot column of each leading row, with pivots sought only among
    the first ncols columns (all of them by default)."""
    work = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        scale = work[r][col]
        work[r] = [x / scale for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [x - c * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
    return work, pivots


def matrix_rank(rows) -> int:
    return len(row_reduce(rows)[1])


def _frac_vec(m: Matrix, q: tuple[Fraction, ...]) -> list[Fraction]:
    return [sum((Fraction(c) * x for c, x in zip(row, q)), Fraction(0))
            for row in m]


def _mod1(xs) -> tuple[Fraction, ...]:
    return tuple(x - (x.numerator // x.denominator) for x in xs)


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
    coordinates, listed in the order of `matrices`; group arithmetic then
    runs on tuples and the conjugacy classes are the cycle types, which is
    what makes the order-720 cases cheap.  `embed` maps lattice coordinates
    into ambient torus coordinates when the action lives on a sublattice
    cut out by a determinant condition."""

    rank: int
    matrices: list[Matrix]
    names: list[str]
    group_label: str
    perms: list[tuple[int, ...]] | None = None
    embed: Matrix | None = None

    def __post_init__(self):
        keys = [tuple(map(tuple, m)) for m in self.matrices]
        self._key_to_idx = {k: i for i, k in enumerate(keys)}
        if len(self._key_to_idx) != len(keys):
            raise ExtQuotError("action has repeated matrices")
        ident = tuple(map(tuple, mat_identity(self.rank)))
        if ident not in self._key_to_idx:
            raise ExtQuotError("action has no identity matrix")
        self._id = self._key_to_idx[ident]
        if self.perms is not None:
            m = len(self.perms[0]) if self.perms else 0
            if sorted(self.perms) != list(itertools.permutations(range(m))):
                raise ExtQuotError("perms must list all of S_m")
            self._perm_to_idx = {p: i for i, p in enumerate(self.perms)}
        self._mult: dict[tuple[int, int], int] = {}
        self._inv: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.matrices)

    def identity_index(self) -> int:
        return self._id

    def mult(self, i: int, j: int) -> int:
        got = self._mult.get((i, j))
        if got is not None:
            return got
        if self.perms is not None:
            a, b = self.perms[i], self.perms[j]
            k = self._perm_to_idx[tuple(a[b[x]] for x in range(len(b)))]
        else:
            prod = tuple(map(tuple, mat_mul(self.matrices[i], self.matrices[j])))
            if prod not in self._key_to_idx:
                raise ExtQuotError("action is not closed under products")
            k = self._key_to_idx[prod]
        self._mult[(i, j)] = k
        return k

    def inverse_of(self, i: int) -> int:
        if i not in self._inv:
            self._inv[i] = next(k for k in range(len(self)) if self.mult(i, k) == self._id)
        return self._inv[i]

    def centralizer(self, i: int) -> list[int]:
        return [g for g in range(len(self)) if self.mult(g, i) == self.mult(i, g)]

    def conjugacy_classes(self) -> list[ConjClass]:
        if self.perms is not None:
            # full symmetric group: classes are exactly the cycle types
            by_type: dict[tuple[int, ...], list[int]] = {}
            for i, p in enumerate(self.perms):
                by_type.setdefault(cycle_type(p), []).append(i)
            classes = [
                ConjClass(min(v), tuple(sorted(v)), self.names[min(v)], t)
                for t, v in by_type.items()
            ]
        else:
            seen: set[int] = set()
            classes = []
            for i in range(len(self)):
                if i in seen:
                    continue
                members = {
                    self.mult(self.mult(g, i), self.inverse_of(g))
                    for g in range(len(self))
                }
                seen |= members
                rep = min(members)
                classes.append(ConjClass(rep, tuple(sorted(members)), self.names[rep]))
        classes.sort(key=lambda c: c.members[0])
        return classes

    def ambient_point(self, q: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        if self.embed is None:
            return q
        return _mod1(_frac_vec(self.embed, q))


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


def symmetric_on_torus(n: int) -> TorusAction:
    """All of S_n permuting the coordinates of a rank-n torus."""
    if not 1 <= n <= 6:
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
    if not 2 <= n <= 6:
        raise ExtQuotError("coordinate permutation actions are kept small")
    perms = sorted(itertools.permutations(range(n)))
    # basis v_i = e_i - e_{i+1} of the sum-zero sublattice
    basis = []
    for i in range(n - 1):
        col = [0] * n
        col[i] = 1
        col[i + 1] = -1
        basis.append(col)
    embed = [[basis[j][i] for j in range(n - 1)] for i in range(n)]

    def restrict(p: tuple[int, ...]) -> Matrix:
        amb = perm_matrix(p)
        cols = []
        for j in range(n - 1):
            img = mat_vec(amb, basis[j])
            # coefficients against v_i are the partial sums
            coeffs, run = [], 0
            for i in range(n - 1):
                run += img[i]
                coeffs.append(run)
            if run + img[n - 1] != 0:
                raise ExtQuotError("sum-zero sublattice was not preserved")
            cols.append(coeffs)
        return [[cols[j][i] for j in range(n - 1)] for i in range(n - 1)]

    mats = [restrict(p) for p in perms]
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
    rank: int
    dim: int
    invariant_factors: tuple[int, ...]
    signatures: list[tuple[int, ...]]
    components: list[tuple[Fraction, ...]]
    kernel_basis: list[list[int]]
    v: Matrix = field(repr=False, default=None)
    v_inv: Matrix = field(repr=False, default=None)
    torsion_positions: tuple[int, ...] = field(repr=False, default=())

    def component_count(self) -> int:
        return len(self.components)

    def signature_of(self, q: tuple[Fraction, ...]) -> tuple[int, ...]:
        y = _frac_vec(self.v_inv, q)
        sig = []
        for pos, f in zip(self.torsion_positions, self.invariant_factors):
            val = y[pos] * f
            if val.denominator != 1:
                raise ExtQuotError("point does not lie on the fixed locus")
            sig.append(int(val) % f)
        return tuple(sig)


def fixed_locus(action: TorusAction, gamma: int) -> FixedLocus:
    m = action.matrices[gamma]
    r = action.rank
    a = [[m[i][j] - (i == j) for j in range(r)] for i in range(r)]
    _, d, v, v_inv = smith_normal_form(a)
    diag = [d[i][i] for i in range(r)]
    tors = tuple(i for i, x in enumerate(diag) if x > 1)
    zeros = [i for i, x in enumerate(diag) if x == 0]
    factors = tuple(diag[i] for i in tors)
    signatures = [tuple(s) for s in itertools.product(*[range(f) for f in factors])]
    components = []
    for sig in signatures:
        y = [Fraction(0)] * r
        for pos, j, f in zip(tors, sig, factors):
            y[pos] = Fraction(j, f)
        components.append(_mod1(_frac_vec(v, y)))
    kernel = [[v[i][j] for i in range(r)] for j in zeros]
    return FixedLocus(
        rank=r,
        dim=len(zeros),
        invariant_factors=factors,
        signatures=signatures,
        components=components,
        kernel_basis=kernel,
        v=v,
        v_inv=v_inv,
        torsion_positions=tors,
    )


# ---------------- quotient components ----------------------------------------

def _component_orbits(action: TorusAction, fl: FixedLocus, cent: list[int]):
    """Orbits of the centralizer on the component set, with stabilizers."""
    index = {s: i for i, s in enumerate(fl.signatures)}
    perms = {}
    for g in cent:
        n = action.matrices[g]
        images = []
        for q in fl.components:
            img = _mod1(_frac_vec(n, q))
            images.append(index[fl.signature_of(img)])
        perms[g] = images
    unseen = set(range(len(fl.components)))
    orbits = []
    while unseen:
        start = min(unseen)
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in cent:
                y = perms[g][x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        unseen -= orbit
        stab = [g for g in cent if perms[g][start] == start]
        orbits.append((sorted(orbit), stab))
    return orbits


def _line_descriptor(action: TorusAction, fl: FixedLocus, stab: list[int]) -> Descriptor:
    k = tuple(fl.kernel_basis[0])
    neg = tuple(-x for x in k)
    inverted = False
    for g in stab:
        w = tuple(mat_vec(action.matrices[g], k))
        if w == neg:
            inverted = True
        elif w != k:
            raise ExtQuotError("stabilizer does not normalize the kernel line")
    return LINE_INV if inverted else LINE


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
                descr = _line_descriptor(action, fl, stab)
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
        pts = sorted(fl.components[i] for i in members)
        orbits.append({
            "size": len(pts),
            "points": pts,
            "ambient": [action.ambient_point(p) for p in pts],
        })
    orbits.sort(key=lambda o: o["points"][0])
    return orbits
