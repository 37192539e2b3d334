"""Extended affine Weyl groups for a small fixed catalog of reductive groups.

An element is stored in normal form as a pair (translation, finite part):
``t_lambda * u`` with ``lambda`` an integer vector in the cocharacter
lattice and ``u`` in the finite Weyl group.  Multiplication is the
semidirect rule ``(t_lam u)(t_mu w) = t_{lam + u.mu} (u w)``.

Length comes from the standard alcove-walk count: for each positive root
``alpha``,

    contribution = |<lam, alpha>|      if u^-1(alpha) > 0
                   |<lam, alpha> - 1|  if u^-1(alpha) < 0

which the tests cross-validate against breadth-first search in the Cayley
graph.  The flags "u^-1(alpha) < 0" are stored once per finite Weyl
element, so a length costs one pairing per positive root.  Elements of
length zero form the subgroup Omega, cyclic for every family here; the
Omega coset of an element is read off from its translation part, and the
length-zero element of a coset is a power of the family's basic shift.

Supported families:

* ``InfiniteDihedral``      rank-1 affine Weyl group of SL(2), trivial Omega
* ``ExtendedAffineA'(n)``   PGL(n): lattice Z^n mod (1,..,1), Omega = Z/n
* ``ExtendedAffineB2``      SO(5): lattice Z^2, Omega = Z/2
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import add, mul
from typing import Callable, Sequence

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


class CoxeterError(ValueError):
    pass


class MismatchedPresentations(CoxeterError):
    pass


class UnsupportedFamily(CoxeterError):
    pass


# ---------------------------------------------------------------- matrices
def mat_identity(r: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m)))


def vec_mat(v: Vector, m: Matrix) -> Vector:
    return tuple(sum(v[k] * m[k][j] for k in range(len(v))) for j in range(len(m[0])))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_neg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def dot(a: Vector, b: Vector) -> int:
    return sum(x * y for x, y in zip(a, b))


def close_group(generators: Sequence[Matrix], rank: int, limit: int = 100000):
    """BFS closure of a finite matrix group; returns (elements, index)."""
    ident = mat_identity(rank)
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                p = mat_mul(m, g)
                if p not in index:
                    index[p] = len(elems)
                    elems.append(p)
                    nxt.append(p)
                    if len(elems) > limit:
                        raise CoxeterError("matrix group closure exceeded limit")
        frontier = nxt
    return elems, index


# ---------------------------------------------------------------- elements
class GroupElement:
    """Normal-form element t_lambda * u of an extended affine Weyl group."""

    __slots__ = ("pres", "trans", "fin", "_len", "_hash")

    def __init__(self, pres: "GroupPresentation", trans: Vector, fin: int, length: int = -1):
        self.pres = pres
        self.trans = trans
        self.fin = fin
        self._len = length  # -1 until computed
        self._hash = hash((trans, fin))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.pres is other.pres
            and self.fin == other.fin
            and self.trans == other.trans
        )

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.pres.multiply(self, other)

    def inverse(self) -> "GroupElement":
        return self.pres.inverse(self)

    @property
    def length(self) -> int:
        if self._len < 0:
            self._len = self.pres.length_of(self.trans, self.fin)
        return self._len

    def is_identity(self) -> bool:
        return self.fin == 0 and not any(self.trans)

    def key(self) -> tuple:
        return (self.length, self.trans, self.fin)

    def key_str(self) -> str:
        return ",".join(map(str, self.trans)) + ";" + str(self.fin)

    def omega_index(self) -> int:
        return self.pres.omega_index(self)

    def __repr__(self) -> str:
        return f"<{self.pres.family}: t{self.trans} f{self.fin}>"


# ------------------------------------------------------------ presentation
@dataclass(eq=False)
class GroupPresentation:
    family: str
    rank: int
    wf_elems: list[Matrix]
    wf_index: dict[Matrix, int]
    pos_roots: list[Vector]
    gen_specs: list[tuple[Vector, int]]
    gen_names: list[str]
    omega_count: int
    _coset_of: Callable[[Vector], int] = field(repr=False)
    _normalize: Callable[[Vector], Vector] = field(repr=False)
    # (translation, finite part) of a length-zero generator of Omega;
    # None when Omega is trivial
    _omega_shift: tuple[Vector, int] | None = field(default=None, repr=False)
    _omega_reps: dict[int, GroupElement] = field(default_factory=dict, repr=False)
    _wf_table: list[list[int]] = field(default_factory=list, repr=False)
    _wf_inv: list[int] = field(default_factory=list, repr=False)
    # _inv_flags[fin][k] is 1 when u^-1 sends the k-th positive root negative
    _inv_flags: list[tuple[int, ...]] = field(default_factory=list, repr=False)

    def __post_init__(self):
        # |W|*|S| matrix products: right multiplication by the generators'
        # finite parts; every other product is a lookup along a BFS tree
        # from the identity (index 0), where j = jp * s
        rights = [[self.wf_index[mat_mul(a, self.wf_elems[s])] for a in self.wf_elems]
                  for s in sorted({f for _, f in self.gen_specs})]
        order, seen, steps = [0], {0}, []
        for jp in order:  # order grows while it is read: breadth first
            for rs in rights:
                j = rs[jp]
                if j not in seen:
                    seen.add(j)
                    order.append(j)
                    steps.append((j, jp, rs))
        n = len(self.wf_elems)
        if len(seen) != n:
            raise CoxeterError("the generators' finite parts do not generate the Weyl group")
        self._wf_table = []
        for i in range(n):
            row = [i] * n
            for j, jp, rs in steps:
                row[j] = rs[row[jp]]
            self._wf_table.append(row)
        self._wf_inv = [row.index(0) for row in self._wf_table]
        neg_roots = {vec_neg(a) for a in self.pos_roots}
        if set(self.pos_roots) & neg_roots:
            raise CoxeterError("root list is not a positive system")
        # u^-1(alpha) as a covector is alpha composed with u
        self._inv_flags = [tuple(int(vec_mat(alpha, u) in neg_roots) for alpha in self.pos_roots)
                           for u in self.wf_elems]

    # ---- basic structure -------------------------------------------------
    @property
    def num_positive_roots(self) -> int:
        return len(self.pos_roots)

    def identity(self) -> GroupElement:
        return GroupElement(self, (0,) * self.rank, 0)

    def generators(self) -> list[GroupElement]:
        return [GroupElement(self, t, f) for t, f in self.gen_specs]

    def generator(self, name: str) -> GroupElement:
        if name not in self.gen_names:
            raise CoxeterError(f"{self.family}: no generator named {name!r}")
        t, f = self.gen_specs[self.gen_names.index(name)]
        return GroupElement(self, t, f)

    # ---- group law -------------------------------------------------------
    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        if x.pres is not self or y.pres is not self:
            raise MismatchedPresentations("elements live in different presentations")
        trans = self._normalize(vec_add(x.trans, mat_vec(self.wf_elems[x.fin], y.trans)))
        return GroupElement(self, trans, self._wf_table[x.fin][y.fin])

    def inverse(self, x: GroupElement) -> GroupElement:
        ui = self._wf_inv[x.fin]
        trans = self._normalize(vec_neg(mat_vec(self.wf_elems[ui], x.trans)))
        return GroupElement(self, trans, ui)

    def length_of(self, trans: Vector, fin: int) -> int:
        return sum(abs(dot(trans, alpha) - neg)
                   for alpha, neg in zip(self.pos_roots, self._inv_flags[fin]))

    # ---- Omega -----------------------------------------------------------
    def omega_index(self, x: GroupElement) -> int:
        return self._coset_of(x.trans)

    def omega_rep(self, coset: int) -> GroupElement:
        if coset in self._omega_reps:
            return self._omega_reps[coset]
        rep = self._find_omega_rep(coset)
        self._omega_reps[coset] = rep
        return rep

    def _find_omega_rep(self, coset: int) -> GroupElement:
        """The length-zero element of an Omega coset: the coset-th power of
        the basic shift (each coset holds exactly one such element)."""
        out = self.identity()
        if self._omega_shift is not None:
            step = GroupElement(self, *self._omega_shift)
            for _ in range(coset):
                out = self.multiply(out, step)
        if out.length != 0 or self.omega_index(out) != coset:
            raise CoxeterError(f"no length-zero element for Omega coset {coset}")
        return out

    def omega_elements(self) -> list[GroupElement]:
        return [self.omega_rep(c) for c in range(self.omega_count)]

    def omega_conj_generator(self, omega: GroupElement, gen_idx: int) -> int:
        """Index j with omega s_i omega^-1 = s_j; error if not a generator."""
        t, f = self.gen_specs[gen_idx]
        s = GroupElement(self, t, f)
        conj = self.multiply(self.multiply(omega, s), self.inverse(omega))
        for j, (tj, fj) in enumerate(self.gen_specs):
            if conj.trans == tj and conj.fin == fj:
                return j
        raise CoxeterError("Omega conjugation does not preserve the generator set")

    # ---- balls -------------------------------------------------------------
    def ball(self, radius: int) -> "Ball":
        if radius < 0:
            raise CoxeterError("radius must be nonnegative")
        # x * s = (t + u(t_s), u * f_s): one column per finite part u
        cols = [[(mat_vec(u, t), row[f]) for t, f in self.gen_specs]
                for u, row in zip(self.wf_elems, self._wf_table)]
        ngen, norm = len(self.gen_specs), self._normalize
        elements = sorted(self.omega_elements(), key=GroupElement.key)
        rm, start = array("i", [-1]) * (len(elements) * ngen), 0
        for k in range(1, radius + 1):
            # a product unknown here is an ascent: every descent of a shorter
            # element was recorded as the reverse edge of its own ascent
            shell: dict[tuple, list[int]] = {}
            for i in range(start, len(elements)):
                x = elements[i]
                for s, (c, f) in enumerate(cols[x.fin]):
                    if rm[i * ngen + s] < 0:
                        y = (norm(tuple(map(add, x.trans, c))), f)
                        shell.setdefault(y, []).append(i * ngen + s)
            start = len(elements)
            rm.extend([-1] * (len(shell) * ngen))
            for j, y in enumerate(sorted(shell), start):
                elements.append(GroupElement(self, *y, k))
                for edge in shell[y]:  # x * s = y and y * s = x
                    rm[edge] = j
                    rm[j * ngen + edge % ngen] = edge // ngen
        return Ball(self, radius, elements, rm)


@dataclass
class Ball:
    """All elements of length <= radius, sorted by (length, key),
    closed under inverses and multiplication by Omega."""

    pres: GroupPresentation
    radius: int
    elements: list[GroupElement]
    # rm[i * ngen + s] is the index of elements[i] * s, -1 outside the ball
    rm: array

    def __post_init__(self):
        self.index = {e: i for i, e in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: GroupElement) -> bool:
        return x in self.index

    def __iter__(self):
        return iter(self.elements)


# ---------------------------------------------------------------- catalog
def perm_matrix(perm: Sequence[int]) -> Matrix:
    n = len(perm)
    return tuple(tuple(1 if perm[j] == i else 0 for j in range(n)) for i in range(n))


def infinite_dihedral() -> GroupPresentation:
    """Affine Weyl group of SL(2): translations by the coroot lattice Z,
    generators s1 (finite reflection) and s2 = t_1 * s1.  Omega is trivial."""
    refl = ((-1,),)
    elems, index = close_group([refl], 1)
    pres = GroupPresentation(
        family="InfiniteDihedral",
        rank=1,
        wf_elems=elems,
        wf_index=index,
        pos_roots=[(2,)],
        gen_specs=[((0,), index[refl]), ((1,), index[refl])],
        gen_names=["s1", "s2"],
        omega_count=1,
        _coset_of=lambda t: 0,
        _normalize=lambda t: t,
    )
    return pres


def extended_affine_b2() -> GroupPresentation:
    """Extended affine Weyl group of SO(5): lattice Z^2 with the B2 Weyl
    group of signed permutations, Omega = Z/2."""
    s1 = ((0, 1), (1, 0))       # reflection in e1 - e2
    s2 = ((1, 0), (0, -1))      # reflection in e2
    s_theta = ((0, -1), (-1, 0))  # reflection in e1 + e2
    elems, index = close_group([s1, s2], 2)
    if len(elems) != 8:
        raise CoxeterError("B2 Weyl group should have order 8")
    pres = GroupPresentation(
        family="ExtendedAffineB2",
        rank=2,
        wf_elems=elems,
        wf_index=index,
        pos_roots=[(1, 0), (0, 1), (1, -1), (1, 1)],
        gen_specs=[((1, 1), index[s_theta]), ((0, 0), index[s1]), ((0, 0), index[s2])],
        gen_names=["s0", "s1", "s2"],
        omega_count=2,
        _coset_of=lambda t: (t[0] + t[1]) % 2,
        _normalize=lambda t: t,
        # t_{e1} times the reflection in e1: swaps s0 and s1
        _omega_shift=((1, 0), index[((-1, 0), (0, 1))]),
    )
    return pres


def _sym_group_matrices(n: int):
    if n > 7:
        raise UnsupportedFamily("symmetric groups beyond S7 are not enumerated")
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(perm_matrix(perm))
    return close_group(gens, n), gens


def _type_a_data(n: int):
    (elems, index), adj_gens = _sym_group_matrices(n)
    pos = [
        tuple(1 if k == i else (-1 if k == j else 0) for k in range(n))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    theta_perm = list(range(n))
    theta_perm[0], theta_perm[-1] = theta_perm[-1], theta_perm[0]
    s_theta = perm_matrix(theta_perm)
    theta_cov = tuple(1 if k == 0 else (-1 if k == n - 1 else 0) for k in range(n))
    return elems, index, pos, adj_gens, s_theta, theta_cov


def _type_a_shift(n: int, index) -> tuple[Vector, int]:
    """The basic shift t_{e1} * (n-cycle): length zero, Omega coset 1."""
    cyc = perm_matrix([(i + 1) % n for i in range(n)])
    return tuple(1 if k == 0 else 0 for k in range(n)), index[cyc]


def extended_affine_pgl(n: int) -> GroupPresentation:
    """PGL(n): cocharacter lattice Z^n/(1,..,1) with S_n, Omega = Z/n.
    Translation vectors are normalized so their coordinate sum lies in
    [0, n); root pairings do not see the normalization."""
    if n < 2:
        raise UnsupportedFamily("need n >= 2")
    elems, index, pos, adj_gens, s_theta, theta_cov = _type_a_data(n)

    def normalize(t: Vector) -> Vector:
        c = sum(t) // n
        if c:
            return tuple(x - c for x in t)
        return t

    gen_specs = [((0,) * n, index[g]) for g in adj_gens]
    gen_specs.append((normalize(theta_cov), index[s_theta]))
    names = [f"s{i}" for i in range(1, n)] + [f"s{n}"]
    pres = GroupPresentation(
        family=f"ExtendedAffineA'({n})",
        rank=n,
        wf_elems=elems,
        wf_index=index,
        pos_roots=pos,
        gen_specs=gen_specs,
        gen_names=names,
        omega_count=n,
        _coset_of=lambda t: sum(t) % n,
        _normalize=normalize,
        _omega_shift=_type_a_shift(n, index),
    )
    return pres
