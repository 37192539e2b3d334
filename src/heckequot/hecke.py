"""Iwahori-Hecke algebras with their canonical bases, over Z[v, v^-1].

Conventions, for a ball of radius R in an extended affine Weyl group
W = W' . Omega with equal parameters (the setting of Lusztig's cells in
affine Weyl groups, where a-values and cells are defined):

* T-basis: T_x T_y = T_{xy} when lengths add; quadratic relation
  (T_s - v)(T_s + v^-1) = 0.
* canonical basis: c_z = sum_y p_{y,z} T_y with p_{z,z} = 1, the lower
  coefficients in strictly negative degrees, the whole element fixed by
  the bar involution, and p_{y omega, z omega'} = p_{y,z} if omega=omega'
  else 0.  Products c_x c_y = sum_z h_{x,y,z} c_z.
* a(z) is the maximum v-degree of h_{x,y,z} over pairs x, y.  Inside a
  radius-R ball the product c_x c_y is exact iff l(x)+l(y) <= R, so the
  maximum ranges over that pair budget.  The value is *certified* when it
  is attained identically for budgets R-m .. R (stabilization margin m),
  stays within the positive-root bound, and l(z) <= R - 2m.
* gamma constants: the coefficient of t_z in t_x t_y is the coefficient
  of v^{a(z)} in h_{x,y,z}.

Everything reduces to the W' part: right translation by Omega and
conjugation by Omega are length-preserving symmetries, so the p-, h- and
gamma-tables are stored on W' only and extended on demand.  Products of
canonical basis elements are streamed pair by pair (one row of the table
lives in memory at a time) along right reduced words, using the expansion
of each c_z c_s, which is read off from the mu-coefficients of the
p-polynomials.

On W', conjugation g by Omega and the anti-involution T_w -> T_{w^-1} fix
both tables up to relabelling: p_{y,z} = p_{gy,gz} = p_{y^-1,z^-1} and
h_{x,y,z} = h_{gx,gy,gz} = h_{y^-1,x^-1,z^-1}.  The KL recursion runs for
one z per orbit.  Product rows are computed for one x per Omega-conjugacy
orbit with 2 l(x) <= R; the a-value pass reads only these, and the stream
delivers the other pairs relabelled.

Group arithmetic is done once per ball, by the search that builds it and
its right multiplication table.  Integer tables over ball indices, walked
from that table, hold lengths, inverses, the (W' index, Omega index) pair
of each element and Omega translation, as in du Cloux's Coxeter programs.
Every inner loop, the T-basis included, runs on these indices; group
elements appear only at the public methods.
"""
from __future__ import annotations

import functools
import itertools
from array import array
from dataclasses import dataclass, field
from typing import Callable

from .coxeter import Ball, GroupElement, GroupPresentation, dump_element
from .laurent import LaurentPoly, acc_mul, acc_scaled, nonneg_sym, sparse_add

RawPoly = dict  # exponent -> int coefficient, no zeros
XI = {1: 1, -1: -1}  # v - v^-1

CACHE_SCHEMA = "heckequot-ball/2"


class HeckeError(Exception):
    pass


class BallOverflowError(HeckeError):
    pass


class UncertifiedError(HeckeError):
    pass


# --------------------------------------------------------------- elements
@dataclass
class HeckeElement:
    """A finitely supported A-linear combination of basis elements.

    basis is one of "T", "c", "cdag"; terms maps group elements to
    Laurent polynomials."""

    basis: str
    terms: dict[GroupElement, LaurentPoly]

    def __post_init__(self):
        self.terms = {w: p for w, p in self.terms.items() if p}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeckeElement)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.basis != other.basis:
            raise HeckeError("cannot add elements in different bases")
        return HeckeElement(self.basis, sparse_add(dict(self.terms), other.terms))

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scaled(LaurentPoly.const(-1))

    def scaled(self, c: LaurentPoly) -> "HeckeElement":
        return HeckeElement(self.basis, {w: p * c for w, p in self.terms.items()})

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{w.key_str()}: {p.to_str()}" for w, p in sorted(self.terms.items(), key=lambda kv: kv[0].key())
        )
        return f"HeckeElement[{self.basis}]{{{inner}}}"


@dataclass
class CellRecord:
    """One two-sided cell of the ball.

    elements is the full strongly connected component; certified_elements
    the subset with certified a-values.  a_value is the common a over the
    certified subset (None when the subset is empty or mixed, which only
    happens for truncation-affected cells)."""

    elements: list[GroupElement]
    certified_elements: list[GroupElement]
    a_value: int | None
    fully_certified: bool

    def __len__(self):
        return len(self.elements)


@dataclass
class CellPartition:
    """Left, right and two-sided cells of a ball, with a-values."""

    two_sided: list[CellRecord]
    left: list[list[GroupElement]]
    right: list[list[GroupElement]]
    left_id: dict[GroupElement, int]
    two_sided_id: dict[GroupElement, int]
    lr_order_pairs: set[tuple[int, int]]  # (i, j) when cell i <=_LR cell j

    def certified_cells(self) -> list[CellRecord]:
        return [c for c in self.two_sided if c.certified_elements]


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    checked: int
    counterexamples: list = field(default_factory=list)


# ------------------------------------------------------------- main class
class HeckeBall:
    """All canonical-basis data for one ball of an extended affine Weyl
    group: p-polynomials, generator products, a-function with
    certification, gamma constants, distinguished involutions, cells."""

    def __init__(self, pres: GroupPresentation, radius: int, margin: int = 3):
        if not 1 <= margin <= radius:
            raise HeckeError(f"the margin must lie in 1..radius, got margin {margin} "
                             f"at radius {radius}")
        self.pres = pres
        self.radius = radius
        self.margin = margin
        self.ball: Ball = pres.ball(radius)
        ngen = len(pres.gen_specs)
        self.gens = pres.generators()
        self.omega_elems = pres.omega_elements()
        self.n_pos_roots = pres.num_positive_roots

        # W' part of the ball, sorted by (length, key); index 0 is the identity
        elems, index = self.ball.elements, self.ball.index
        self.wp: list[GroupElement] = [e for e in elems if e.omega_index() == 0]
        self.wp_index: dict[GroupElement, int] = {e: i for i, e in enumerate(self.wp)}
        self.wp_len = [e.length for e in self.wp]

        # integer tables over ball indices; -1 marks a product outside the ball
        nom = self._nom = len(self.omega_elems)
        self._len = array("i", (e.length for e in elems))
        self._rm = rm = self.ball.rm
        self._omi = omi = array("i", (e.omega_index() for e in elems))
        # sigma[k][s] = omega_k s omega_k^-1, so t omega_k = omega_k sigma[k]^-1(t).
        # In ball order, x = y s at its first right descent, y in coset k, gives
        # wb[x] = x omega_k^-1 = (y omega_k^-1) sigma[k][s], as a ball index;
        # lm[x * ngen + t] = t x = (t y) s, where t y lies in the ball;
        # inv[x] = s y^-1 = lm[inv[y] * ngen + s].
        sigma = [list(range(ngen))] + [[pres.omega_conj_generator(om, s) for s in range(ngen)]
                                       for om in self.omega_elems[1:]]
        wb = [index[pres.identity()]] * nom
        inv = [index[e.inverse()] for e in elems[:nom]]
        lm = [rm[i * ngen + sigma[omi[i]].index(t)] for i in range(nom) for t in range(ngen)]
        desc = [None] * nom + [self._right_descent(i) for i in range(nom, len(elems))]
        for j, s in desc[nom:]:
            wb.append(rm[wb[j] * ngen + sigma[omi[j]][s]])
            inv.append(lm[inv[j] * ngen + s])
            lm.extend([rm[lm[j * ngen + t] * ngen + s] for t in range(ngen)])
        self._inv = array("i", inv)
        self._wpi = array("i", (self.wp_index[elems[b]] for b in wb))
        # _rom[j * nom + k] is the ball index of wp[j] * omega_k; a list, so
        # that the cell graph's edge sets share its int objects
        self._rom = [0] * len(elems)
        for i, (j, k) in enumerate(zip(self._wpi, self._omi)):
            self._rom[j * nom + k] = i
        self._om_mul = [[pres.omega_index(pres.multiply(a, b)) for b in self.omega_elems]
                        for a in self.omega_elems]
        self._om_inv = [row.index(0) for row in self._om_mul]
        wball = self._rom[::nom]  # ball index of each W' element
        self.wp_inv = [self._wpi[self._inv[b]] for b in wball]
        # the symmetries of the tables, as maps on W' indices: conjugation by
        # omega_k (k = 0 is the identity), w -> the W' part of omega_k w, then
        # inversion after each of them
        conj = [[self._wpi[self._left_omega(b, k)] for b in wball] for k in range(nom)]
        self._syms = conj + [[self.wp_inv[j] for j in g] for g in conj]
        # right multiplication by generators inside W', on W' indices
        self._wrm = array("i", (-1 if b < 0 else self._wpi[b]
                                for i in wball for b in self._rm[i * ngen:(i + 1) * ngen]))

        # parent[i] = (j, s) with wp[i] = wp[j] * gen[s], length down by one
        self.parent: list[tuple[int, int] | None] = [None] + [
            (self._wpi[desc[b][0]], desc[b][1]) for b in wball[1:]]

        self._p: list[dict[int, RawPoly]] = []
        self._compute_kl_table()
        self._cs: list[list[dict[int, object]] | None] = [None] * ngen
        self._a_values: list[int] | None = None
        self._a_cert: list[bool] | None = None
        self._a_profile: list[list[int]] | None = None
        self._gamma: dict[tuple[int, int], dict[int, int]] | None = None
        self._gamma_tainted: set[tuple[int, int]] = set()
        self._h_for_dist: dict[tuple[int, int], dict[int, RawPoly]] = {}
        self._dist_idx: list[int] | None = None
        self._cells: CellPartition | None = None
        self._daggers: dict[int, dict[int, RawPoly]] = {}
        self._nhats: dict[int, int] = {}

    # ---------------- index kernel ---------------------------------------
    def _idx(self, x: GroupElement) -> int:
        i = self.ball.index.get(x)
        if i is None:
            raise BallOverflowError("element outside ball")
        return i

    def _right_omega(self, i: int, k: int) -> int:
        """Ball index of ball[i] * omega_k."""
        return self._rom[self._wpi[i] * self._nom + self._om_mul[self._omi[i]][k]]

    def _left_omega(self, i: int, k: int) -> int:
        """Ball index of omega_k * ball[i] = (ball[i]^-1 omega_k^-1)^-1."""
        inv = self._inv
        return inv[self._right_omega(inv[i], self._om_inv[k])]

    def _right_descent(self, i: int) -> tuple[int, int] | None:
        """(ball index of x s, s) for the first s with l(x s) < l(x), x = ball[i]."""
        ngen, ln = len(self.gens), self._len
        for s, j in enumerate(self._rm[i * ngen:(i + 1) * ngen]):
            if j >= 0 and ln[j] < ln[i]:
                return j, s
        return None

    def _word(self, i: int) -> tuple[list[int], int]:
        """Left-greedy reduced word (s_1, ..., s_m) of x = ball[i], as in
        GroupPresentation.reduced_word, and the k with x = s_1 ... s_m omega_k."""
        word, ngen, inv, rm, ln = [], len(self.gens), self._inv, self._rm, self._len
        while ln[i]:
            for s in range(ngen):
                # s * x = (x^-1 s)^-1; outside the ball it is longer than x
                j = rm[inv[i] * ngen + s]
                if j >= 0 and ln[j] < ln[i]:
                    word.append(s)
                    i = inv[j]
                    break
        return word, self._omi[i]

    # ---------------- Kazhdan-Lusztig recursion -------------------------
    def _compute_kl_table(self) -> None:
        """Bar-invariant completion along right reduced words.

        Seed c_{z1} * c_s for z = z1 s; subtract bar-invariant multiples
        of shorter canonical elements until every off-diagonal coefficient
        sits in strictly negative degrees.  The subtracted coefficients
        are exactly the generator-product corrections, recorded for reuse.
        Only one z per orbit of _syms is computed; the rows of the rest of
        its orbit share its polynomials, so none may be mutated in place."""
        p = self._p = [dict() for _ in self.wp]
        p[0] = {0: {0: 1}}
        for zi in range(1, len(self.wp)):  # W' is sorted by (length, key)
            if p[zi]:
                continue
            j, s = self.parent[zi]
            E = self._seed_product(j, s)
            # supp E is the Bruhat interval [e, z] and a correction from y
            # reaches only y and shorter keys: fix them in descending index
            for yi in sorted(E)[-2::-1]:
                pi = nonneg_sym(E[yi])
                if not pi:
                    continue
                neg = {e: -a for e, a in pi.items()}
                for k, q in p[yi].items():
                    if not acc_mul(E.setdefault(k, {}), neg, q):
                        del E[k]
            row = p[zi] = {k: v for k, v in E.items() if v}
            for g in self._syms:
                if not p[g[zi]]:
                    p[g[zi]] = {g[y]: q for y, q in row.items()}

    def _seed_product(self, j: int, s: int) -> dict[int, RawPoly]:
        """c_{wp[j]} * (T_s + v^-1) in T-coordinates over W' indices."""
        ngen, wrm, wl = len(self.gens), self._wrm, self.wp_len
        E: dict[int, RawPoly] = {}
        for yi, p in self._p[j].items():
            ysi = wrm[yi * ngen + s]
            if ysi < 0:
                raise BallOverflowError("seed product left the ball")
            acc_scaled(E.setdefault(ysi, {}), p, 1)
            # ascending: v^-1 T_y; descending: T_y T_s = T_{ys} + (v - v^-1) T_y,
            # plus v^-1 T_y
            acc_mul(E.setdefault(yi, {}), p, {-1 if wl[ysi] > wl[yi] else 1: 1})
        return {k: v for k, v in E.items() if v}

    # ---------------- p-polynomial access --------------------------------
    def p_poly(self, y: GroupElement, z: GroupElement) -> LaurentPoly:
        """p_{y,z} for ball elements, Omega rule included."""
        if y.omega_index() != z.omega_index():
            return LaurentPoly.zero()
        yi, _ = self._wp_coset(y)
        zi, _ = self._wp_coset(z)
        return LaurentPoly(self._p[zi].get(yi, {}))

    def _kl_terms(self, i: int):
        """(ball index of y, p_{y,z}) over the T-expansion of c_z, z = ball[i]."""
        k, nom, rom = self._omi[i], self._nom, self._rom
        for yi, p in self._p[self._wpi[i]].items():
            yield rom[yi * nom + k], p

    def kl_element(self, z: GroupElement) -> HeckeElement:
        """Canonical basis element c_z in the T-basis."""
        elems = self.ball.elements
        return HeckeElement("T", {elems[y]: LaurentPoly(p) for y, p in self._kl_terms(self._idx(z))})

    def mu(self, y: GroupElement, z: GroupElement) -> int:
        """Coefficient of v^-1 in p_{y,z}."""
        return self.p_poly(y, z).coeff(-1)

    # ---------------- generator products ---------------------------------
    def _cs_table(self, s: int) -> list[dict[int, object]]:
        """Expansion of c_z c_s over W': dict target -> int or RawPoly.

        Entries at the ball boundary with an ascending step are partial
        (the top term c_{zs} falls outside); they carry the marker key -1."""
        if self._cs[s] is not None:
            return self._cs[s]
        ngen, wrm, wl = len(self.gens), self._wrm, self.wp_len
        tbl: list[dict[int, object]] = []
        for zi in range(len(self.wp)):
            zs = wrm[zi * ngen + s]
            row: dict[int, object] = {}
            if zs >= 0 and wl[zs] < wl[zi]:
                row[zi] = {1: 1, -1: 1}
            else:
                row[zs] = 1  # zs is the overflow marker -1 when c_{zs} is outside
                for yi, p in self._p[zi].items():
                    m = p.get(-1, 0)
                    if m and 0 <= (ys := wrm[yi * ngen + s]) and wl[ys] < wl[yi]:
                        row[yi] = m
            tbl.append(row)
        self._cs[s] = tbl
        return tbl

    # ---------------- T-basis products -----------------------------------
    # Inside, a T-basis element is a dict ball index -> RawPoly.
    def _to_idx(self, a: HeckeElement) -> dict[int, RawPoly]:
        return {self._idx(w): dict(p.c) for w, p in a.terms.items()}

    def _from_idx(self, basis: str, terms: dict[int, RawPoly]) -> HeckeElement:
        elems = self.ball.elements
        return HeckeElement(basis, {elems[i]: LaurentPoly._raw(p) for i, p in terms.items() if p})

    def _t_mul_gen(self, terms: dict[int, RawPoly], s: int) -> dict[int, RawPoly]:
        """Right-multiply a T-basis element by T_s."""
        ngen, rm, ln = len(self.gens), self._rm, self._len
        out: dict[int, RawPoly] = {}
        for w, p in terms.items():
            ws = rm[w * ngen + s]
            if ws < 0:
                raise BallOverflowError("T-basis product left the ball")
            acc_scaled(out.setdefault(ws, {}), p, 1)
            if ln[ws] < ln[w]:
                acc_mul(out.setdefault(w, {}), p, XI)
        return {w: p for w, p in out.items() if p}

    def _t_mul_omega(self, terms: dict[int, RawPoly], k: int) -> dict[int, RawPoly]:
        """Right-multiply a T-basis element by T_omega_k."""
        return {self._right_omega(w, k): p for w, p in terms.items()}

    def mul_T(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        """Product in the T-basis.  Errors if the support leaves the ball."""
        if a.basis != "T" or b.basis != "T":
            raise HeckeError("mul_T needs T-basis operands")
        left = self._to_idx(a)
        out: dict[int, RawPoly] = {}
        for w, q in b.terms.items():
            word, om = self._word(self._idx(w))
            cur = left
            for s in word:
                cur = self._t_mul_gen(cur, s)
            if om:
                cur = self._t_mul_omega(cur, om)
            for x, p in cur.items():
                acc_mul(out.setdefault(x, {}), p, q.c)
        return self._from_idx("T", out)

    def t_to_c(self, a: HeckeElement) -> HeckeElement:
        """Rewrite a T-basis element in the canonical basis."""
        if a.basis != "T":
            raise HeckeError("t_to_c needs a T-basis operand")
        return self._from_idx("c", self._t_to_c_idx(self._to_idx(a)))

    def _t_to_c_idx(self, rem: dict[int, RawPoly]) -> dict[int, RawPoly]:
        """t_to_c on ball indices; consumes rem."""
        out: dict[int, RawPoly] = {}
        while rem:
            # ball indices follow the key order, so this is a longest term
            w = max(rem)
            coeff = rem.pop(w)
            out[w] = coeff
            for y, p in self._kl_terms(w):
                if y != w:
                    acc = rem.setdefault(y, {})
                    acc_mul(acc, coeff, {e: -c for e, c in p.items()})
                    if not acc:
                        del rem[y]
        return out

    def c_to_t(self, a: HeckeElement) -> HeckeElement:
        if a.basis != "c":
            raise HeckeError("c_to_t needs a c-basis operand")
        out = HeckeElement("T", {})
        for w, coeff in a.terms.items():
            out = out + self.kl_element(w).scaled(coeff)
        return out

    def dagger(self, a: HeckeElement) -> HeckeElement:
        """The A-algebra involution with T_s -> -T_s^{-1} = -T_s + xi_s,
        identity on T_omega.  Canonical elements map to the c-dagger basis,
        which has the same structure constants."""
        if a.basis != "T":
            raise HeckeError("dagger needs a T-basis operand")
        return self._from_idx("T", self._dagger_idx(self._to_idx(a)))

    def _dagger_idx(self, terms: dict[int, RawPoly]) -> dict[int, RawPoly]:
        """dagger on ball indices."""
        out: dict[int, RawPoly] = {}
        for w, p in terms.items():
            for x, q in self._dagger_T(w).items():
                acc_mul(out.setdefault(x, {}), q, p)
        return {x: q for x, q in out.items() if q}

    def _dagger_T(self, i: int) -> dict[int, RawPoly]:
        """dagger(T_x) for x = ball[i], memoized along right descents:
        dagger(T_{ys}) = dagger(T_y) (-T_s + xi_s), dagger(T_omega) = T_omega."""
        d = self._daggers.get(i)
        if d is None:
            step = self._right_descent(i)
            if step is None:
                d = {i: {0: 1}}
            else:
                prev, s = self._dagger_T(step[0]), step[1]
                d = {x: {e: -c for e, c in q.items()} for x, q in self._t_mul_gen(prev, s).items()}
                for x, q in prev.items():
                    acc_mul(d.setdefault(x, {}), q, XI)
                d = {x: q for x, q in d.items() if q}
            self._daggers[i] = d
        return d

    # ---------------- structure constants --------------------------------
    def h_constants(self, x: GroupElement, y: GroupElement) -> dict[GroupElement, LaurentPoly]:
        """c_x c_y = sum_z h_{x,y,z} c_z; needs l(x) + l(y) <= radius."""
        if x.length + y.length > self.radius:
            raise BallOverflowError("pair exceeds the exact-product budget")
        prod = self.mul_T(self.kl_element(x), self.kl_element(y))
        conv = self.t_to_c(prod)
        return dict(conv.terms)

    def _pack_bits(self) -> int:
        """Digit width k of the packed rows of _product_rows.  With S the
        largest L1 norm of a _cs_table row (v + v^-1 counts 2), the
        recursion keeps sum_z |h_{x,y,z}|_1 <= (2S)^l(y), so every
        coefficient lies below 2^(k-2) and each digit decodes exactly."""
        S = max(sum(2 if isinstance(A, dict) else abs(A) for A in row.values())
                for s in range(len(self.gens)) for row in self._cs_table(s))
        return ((2 * S) ** self.radius).bit_length() + 2

    def _unpack(self, H: int, k: int) -> RawPoly:
        """The raw polynomial h packed as H = sum_e c_e B^(e+R+1), B = 2^k."""
        out, e, half, mask = {}, -self.radius - 1, 1 << (k - 1), (1 << k) - 1
        while H:
            c = ((H + half) & mask) - half  # the balanced lowest digit
            if c:
                out[e] = c
            H, e = (H - c) >> k, e + 1
        return out

    def _product_rows(self):
        """Yield (xi, yi, P) with P = c_x c_y in canonical coordinates, for
        the first x of each Omega-conjugacy orbit with 2 l(x) <= radius and
        every y with l(x) + l(y) <= radius, in that order.  P maps z to
        h_{x,y,z} packed into one int, sum_e c_e B^(e+R+1) with B = 2^k and
        k = _pack_bits(): adding rows adds polynomials, and multiplying by
        v + v^-1 is (h << k) + (h >> k), exact since the exponents of row y
        stay in -l(y)..l(y).  Then deg h = |H|.bit_length() // k - R - 1."""
        budget, wl, syms, n = self.radius, self.wp_len, self._syms, len(self.wp)
        k = self._pack_bits()
        # per generator and z: None when z s < z (c_z c_s = (v + v^-1) c_z),
        # else the items of the integer row of c_z c_s
        tbls = [[None if isinstance(row.get(zi), dict) else tuple(row.items())
                 for zi, row in enumerate(self._cs_table(s))]
                for s in range(len(self.gens))]
        done: set[int] = set()
        for xi in range(n):  # W' is sorted by (length, key)
            lx = wl[xi]
            if 2 * lx > budget:
                break
            if xi in done:
                continue
            done.update(g[xi] for g in syms[:self._nom])
            row: dict[int, dict[int, int]] = {0: {xi: 1 << k * (budget + 1)}}
            yield xi, 0, row[0]
            for yi in range(1, n):
                if lx + wl[yi] > budget:
                    break
                pi, s = self.parent[yi]
                tbl = tbls[s]
                acc: dict[int, int] = {}
                get = acc.get
                for zi, h in row[pi].items():
                    items = tbl[zi]
                    if items is None:
                        acc[zi] = get(zi, 0) + (h << k) + (h >> k)
                        continue
                    for wi, A in items:
                        if wi < 0:  # pragma: no cover - budget prevents this
                            raise BallOverflowError("product overflowed the ball")
                        acc[wi] = get(wi, 0) + h * A
                for wi, A in tbl[pi]:  # z s > z here, so the row is integral
                    if wi != yi:
                        for zi, h in row[wi].items():
                            acc[zi] = get(zi, 0) - h * A
                P = row[yi] = {zi: h for zi, h in acc.items() if h}
                yield xi, yi, P

    def _stream_products(self, visit: Callable[[int, int, dict[int, int]], None]) -> None:
        """Call visit(xi, yi, P) once for every W' pair with l(x) + l(y) <=
        radius.  P maps each z to h_{x,y,z} packed into one int as in
        _product_rows; _unpack(P[z], _pack_bits()) decodes it.  A computed
        row serves its Omega-conjugacy orbit, and a pair with 2 l(y) >
        radius also serves its inverse mirror (y^-1, x^-1)."""
        budget, wl, nom, syms = self.radius, self.wp_len, self._nom, self._syms
        for xi, yi, P in self._product_rows():
            if not yi:
                orbit = {syms[k][xi]: k for k in reversed(range(nom))}  # member -> least k onto it
            for k in orbit.values():
                g, m = syms[k], syms[nom + k]
                visit(g[xi], g[yi], {g[zi]: h for zi, h in P.items()} if k else P)
                if 2 * wl[yi] > budget:
                    visit(m[yi], m[xi], {m[zi]: h for zi, h in P.items()})

    # ---------------- a-function ------------------------------------------
    def _ensure_a_data(self) -> None:
        if self._a_values is not None:
            return
        n, wl, R, m = len(self.wp), self.wp_len, self.radius, self.margin
        k = self._pack_bits()
        # rep[z][rho]: the largest |H|.bit_length() over the computed rows
        # with pair budget l(x) + l(y) = rho, 0 (degree -R-1) if there is none
        rep = [[0] * (R + 1) for _ in range(n)]
        for xi, yi, P in self._product_rows():
            rho = wl[xi] + wl[yi]
            for zi, H in P.items():
                d = abs(H).bit_length()
                if rep[zi][rho] < d:
                    rep[zi][rho] = d
        # budgets and degrees are invariant under every symmetry g in _syms,
        # so every pair is covered once the profile of g(z) contains rep[z]
        profile = [list(r) for r in rep]
        for g in self._syms:
            for zi, r in enumerate(rep):
                profile[g[zi]] = list(map(max, profile[g[zi]], r))
        # _a_profile[z][rho]: max deg h_{x,y,z} over pairs of budget rho
        self._a_profile = [[b // k - R - 1 for b in prof] for prof in profile]
        values, certs = [], []
        for zi, prof in enumerate(self._a_profile):
            by_budget = list(itertools.accumulate(prof, max))
            val = by_budget[R]
            stable = all(b == val for b in by_budget[R - m:])
            values.append(val)
            certs.append(stable and 0 <= val <= self.n_pos_roots and wl[zi] <= R - 2 * m)
        self._a_values = values
        self._a_cert = certs

    def _wp_coset(self, x: GroupElement) -> tuple[int, int]:
        """(W' index, Omega index) of a ball element x = wp[i] omega_k."""
        i = self._idx(x)
        return self._wpi[i], self._omi[i]

    def a_function(self, z: GroupElement) -> tuple[int, bool]:
        """(a(z), certified).  Omega translation leaves a unchanged."""
        if self._a_values is None:  # a traced stage: enter it only to build
            self._ensure_a_data()
        zi, _ = self._wp_coset(z)
        return self._a_values[zi], self._a_cert[zi]

    def _certified_a(self, i: int) -> int | None:
        """a(ball[i]) if it is certified, else None."""
        if self._a_values is None:  # a traced stage: enter it only to build
            self._ensure_a_data()
        zi = self._wpi[i]
        return self._a_values[zi] if self._a_cert[zi] else None

    def delta_and_sign(self, z: GroupElement) -> tuple[int, int]:
        """(Delta(z), n_z): the leading term of p_{1,z} is n_z v^{-Delta(z)},
        every other term a strictly larger power of v^-1."""
        zi, om = self._wp_coset(z)
        if om:
            raise HeckeError("Delta is defined on the W' part only")
        p = self._p[zi].get(0)
        if not p:
            raise HeckeError("p_{1,z} vanishes; Delta undefined")
        hi = max(p)
        return -hi, p[hi]

    def distinguished_involutions(self) -> list[tuple[GroupElement, int]]:
        """Certified z in W' with a(z) = Delta(z), paired with n_z."""
        if self._dist_idx is None:
            self._ensure_a_data()
            self._dist_idx = [zi for zi, row in enumerate(self._p) if self._a_cert[zi]
                              and 0 in row and -max(row[0]) == self._a_values[zi]]
        return [(self.wp[zi], self._p[zi][0][max(self._p[zi][0])]) for zi in self._dist_idx]

    # ---------------- gamma table ------------------------------------------
    def _ensure_gamma(self) -> None:
        if self._gamma is not None:
            return
        self.distinguished_involutions()  # builds the a-values first
        dset, k, R = set(self._dist_idx), self._pack_bits(), self.radius
        certified = {zi for zi, c in enumerate(self._a_cert) if c}
        unpack = functools.cache(lambda H: self._unpack(H, k))  # few distinct h
        # deg h_{x,y,z} <= a(z) over the whole budget, so H rounded at digit
        # p = a(z) + R + 1 is the coefficient of v^a(z), and 0 if deg h < a(z);
        # the digit below p alone decides the rounding, so cut H there first
        low, half = [k * (a + R) for a in self._a_values], 1 << (k - 1)
        gamma: dict[tuple[int, int], dict[int, int]] = {}
        hdist: dict[tuple[int, int], dict[int, RawPoly]] = {}
        tainted: set[tuple[int, int]] = set()

        def visit(xi: int, yi: int, P: dict[int, int]) -> None:
            if not certified.issuperset(P):
                tainted.add((xi, yi))  # gamma extraction needs the true a(z)
            gamma[(xi, yi)] = {zi: g for zi, H in P.items() if (g := ((H >> low[zi]) + half) >> k)}
            if yi in dset:
                hdist[(xi, yi)] = {zi: unpack(H) for zi, H in P.items()}

        self._stream_products(visit)
        self._gamma = gamma
        self._gamma_tainted = tainted
        self._h_for_dist = hdist

    def gamma(self, x: GroupElement, y: GroupElement, z: GroupElement) -> int:
        """Coefficient of t_z in t_x t_y, i.e. the v^{a(z)}-coefficient of
        h_{x,y,z}.  Requires certified a-values throughout."""
        if self._gamma is None:  # a traced stage: enter it only to build
            self._ensure_gamma()
        xi, omx = self._wp_coset(x)
        yi, omy = self._wp_coset(y)
        zi, omz = self._wp_coset(z)
        if self._om_mul[omx][omy] != omz:
            return 0
        yti = self._syms[omx][yi]  # the W' part of omega_x y omega_x^-1
        for idx in (xi, yti, zi):
            if not self._a_cert[idx]:
                raise UncertifiedError("gamma needs certified a-values")
        pair = self._gamma.get((xi, yti))
        if pair is None:
            raise BallOverflowError("pair exceeds the exact-product budget")
        return pair.get(zi, 0)

    def gamma_row(self, x: GroupElement, y: GroupElement) -> dict[GroupElement, int]:
        """All nonzero coefficients of t_x t_y, with certification guards."""
        elems = self.ball.elements
        return {elems[z]: g for z, g in self._gamma_row_idx(self._idx(x), self._idx(y)).items()}

    def _gamma_row_idx(self, i: int, j: int) -> dict[int, int]:
        """gamma_row on ball indices."""
        if self._gamma is None:  # a traced stage: enter it only to build
            self._ensure_gamma()
        xi, omx = self._wpi[i], self._omi[i]
        yti = self._syms[omx][self._wpi[j]]  # the W' part of omega_x y omega_x^-1
        if not (self._a_cert[xi] and self._a_cert[yti]):
            raise UncertifiedError("operands must have certified a-values")
        pair = self._gamma.get((xi, yti))
        if pair is None:
            raise BallOverflowError("pair exceeds the exact-product budget")
        if (xi, yti) in self._gamma_tainted:
            raise UncertifiedError("product support touches uncertified elements")
        om, nom = self._om_mul[omx][self._omi[j]], self._nom
        return {self._rom[zi * nom + om]: g for zi, g in pair.items()}

    def h_to_distinguished(self, x: GroupElement, d: GroupElement) -> dict[GroupElement, LaurentPoly]:
        """h_{x,d,.} for a distinguished involution d (W' data)."""
        if self._gamma is None:  # a traced stage: enter it only to build
            self._ensure_gamma()
        xi, omx = self._wp_coset(x)
        di, omd = self._wp_coset(d)
        if omd:
            raise HeckeError("distinguished involutions lie in W'")
        row = self._h_for_dist.get((xi, self._syms[omx][di]))
        if row is None:
            raise BallOverflowError("pair exceeds the exact-product budget")
        nom, elems = self._nom, self.ball.elements
        return {elems[self._rom[zi * nom + omx]]: LaurentPoly(h) for zi, h in row.items()}

    # ---------------- cache line format --------------------------------------
    def cache_header(self) -> str:
        return (f"# {CACHE_SCHEMA} family={self.pres.family} "
                f"radius={self.radius} elements={len(self.wp)}")

    def element_lines(self) -> list[str]:
        names, out = self.pres.gen_names, []
        for i, x in enumerate(self.wp):
            word, om = self._word(self._rom[i * self._nom])
            out.append(f"E {i} {dump_element(x, ([names[s] for s in word], om))}")
        return out

    def p_lines(self) -> list[str]:
        out, text = [], {}  # each distinct polynomial is formatted once
        for zi, row in enumerate(self._p):
            for yi in sorted(row):
                key = tuple(row[yi].items())
                if key not in text:
                    text[key] = LaurentPoly(row[yi]).to_str()
                out.append(f"P {yi} {zi} {text[key]}")
        return out

    def cache_lines(self) -> list[str]:
        """Line-oriented dump of the KL table.

        One header line, then element lines "E i word=..." and one P line
        per nonzero basis polynomial "P y z poly"; indices refer to the E
        lines.  The order and the polynomial text are canonical, so two
        computations of the same ball dump byte-identical text."""
        return [self.cache_header()] + self.element_lines() + self.p_lines()

    # ---------------- cells -------------------------------------------------
    def _ensure_cells(self) -> None:
        if self._cells is not None:
            return
        self._ensure_a_data()
        # a list, so that the inverted edge sets share its int objects
        elems, inv = self.ball.elements, self._inv.tolist()
        n, nom, rom, wp_inv = len(elems), self._nom, self._rom, self.wp_inv
        # left_edges[i] holds the j with j <=_L i in one step
        left_edges: list[set[int]] = [set() for _ in range(n)]
        tbls = [self._cs_table(s) for s in range(len(self.gens))]

        for i in range(n):
            yi, om = self._wpi[i], self._omi[i]
            # support of c_s c_y = iota(c_{y^-1} c_s) translated
            for tbl in tbls:
                left_edges[i].update(rom[wp_inv[wi] * nom + om]
                                     for wi in tbl[wp_inv[yi]] if wi >= 0)
            # Omega translations are invertible, so they link both ways
            for k in range(1, nom):
                j = self._left_omega(i, k)
                left_edges[i].add(j)
                left_edges[j].add(i)
        # T_w -> T_{w^-1} is an anti-involution, so j <=_R i iff j^-1 <=_L i^-1
        # (Kazhdan-Lusztig 1979): the right preorder is the left one inverted
        both = [left_edges[i].union(inv[j] for j in left_edges[inv[i]]) for i in range(n)]

        def sccs(adj: list[set[int]]) -> list[list[int]]:
            # iterative Tarjan
            index_counter = [0]
            stack: list[int] = []
            lowlink = [-1] * n
            number = [-1] * n
            on_stack = [False] * n
            comps: list[list[int]] = []
            for root in range(n):
                if number[root] != -1:
                    continue
                work = [(root, iter(adj[root]))]
                number[root] = lowlink[root] = index_counter[0]
                index_counter[0] += 1
                stack.append(root)
                on_stack[root] = True
                while work:
                    v, it = work[-1]
                    advanced = False
                    for w in it:
                        if number[w] == -1:
                            number[w] = lowlink[w] = index_counter[0]
                            index_counter[0] += 1
                            stack.append(w)
                            on_stack[w] = True
                            work.append((w, iter(adj[w])))
                            advanced = True
                            break
                        elif on_stack[w]:
                            lowlink[v] = min(lowlink[v], number[w])
                    if advanced:
                        continue
                    work.pop()
                    if work:
                        pv = work[-1][0]
                        lowlink[pv] = min(lowlink[pv], lowlink[v])
                    if lowlink[v] == number[v]:
                        comp = []
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            comp.append(w)
                            if w == v:
                                break
                        comps.append(comp)
            return comps

        def ordered(comps) -> tuple[list[list[int]], dict[GroupElement, int]]:
            # cells sorted by key, which is ball index order
            comps = sorted(sorted(c) for c in comps)
            return comps, {elems[i]: k for k, c in enumerate(comps) for i in c}

        lcomp, lid = ordered(sccs(left_edges))
        tcomp, tid = ordered(sccs(both))
        rcomp = sorted(sorted(inv[i] for i in c) for c in lcomp)  # the right cells

        records = []
        for c in tcomp:
            cert_elems = []
            cert_avals = set()
            all_cert = True
            for i in c:
                zi = self._wpi[i]
                if self._a_cert[zi]:
                    cert_elems.append(elems[i])
                    cert_avals.add(self._a_values[zi])
                else:
                    all_cert = False
            records.append(
                CellRecord(
                    elements=[elems[i] for i in c],
                    certified_elements=cert_elems,
                    a_value=cert_avals.pop() if len(cert_avals) == 1 else None,
                    fully_certified=all_cert and len(cert_avals) == 0,
                )
            )

        # two-sided preorder on cells, transitively closed
        pairs: set[tuple[int, int]] = set()
        cell_of = [tid[e] for e in elems]
        for i in range(n):
            for j in both[i]:  # j <=_LR i
                pairs.add((cell_of[j], cell_of[i]))
        changed = True
        while changed:
            changed = False
            for a_, b_ in list(pairs):
                for c_, d_ in list(pairs):
                    if b_ == c_ and (a_, d_) not in pairs:
                        pairs.add((a_, d_))
                        changed = True

        self._cells = CellPartition(
            two_sided=records,
            left=[[elems[i] for i in c] for c in lcomp],
            right=[[elems[i] for i in c] for c in rcomp],
            left_id=lid,
            two_sided_id=tid,
            lr_order_pairs=pairs,
        )

    def cell_partition(self) -> CellPartition:
        if self._cells is None:  # a traced stage: enter it only to build
            self._ensure_cells()
        return self._cells

    def nhat(self, z: GroupElement) -> int:
        """n_d for the unique distinguished involution d in the left cell
        of z^-1."""
        if self._cells is None:  # a traced stage: enter it only to build
            self._ensure_cells()
        i = self._idx(z)
        if i not in self._nhats:
            lid = self._cells.left_id
            target = lid[self.ball.elements[self._inv[i]]]
            hits = [nd for d, nd in self.distinguished_involutions() if lid[d] == target]
            if len(hits) != 1:
                raise UncertifiedError(
                    f"expected one distinguished involution in the left cell, found {len(hits)}"
                )
            self._nhats[i] = hits[0]
        return self._nhats[i]

    # ---------------- Lusztig properties ---------------------------------
    def check_properties(self) -> list[PropertyCheck]:
        """P1-P8 on the certified region; exhaustive, with counterexamples."""
        self._ensure_gamma()
        self._ensure_cells()
        cert_wp = [zi for zi in range(len(self.wp)) if self._a_cert[zi]]
        cert_set = set(cert_wp)
        dist = self.distinguished_involutions()
        dist_idx = list(self._dist_idx)
        dset = set(dist_idx)
        checks = []

        # P1: a(z) <= Delta(z)
        bad = []
        for zi in cert_wp:
            p = self._p[zi].get(0)
            if not p:
                continue
            if self._a_values[zi] > -max(p):
                bad.append(self.wp[zi])
        checks.append(PropertyCheck("P1", not bad, len(cert_wp), bad[:5]))

        # gamma lookups below stay on W' pairs in the budget
        def gam(xi: int, yi: int, zi: int) -> int | None:
            row = self._gamma.get((xi, yi))
            if row is None:
                return None
            return row.get(zi, 0)

        # P2: gamma_{x,y,d} != 0 with d distinguished forces x = y^-1
        bad = []
        count = 0
        for (xi, yi), row in self._gamma.items():
            if xi not in cert_set or yi not in cert_set:
                continue
            for di in dset:
                # symbol gamma_{x,y,d} is the coefficient of t_{d^-1} = t_d
                if self._a_cert[di] and row.get(di, 0):
                    count += 1
                    if self.wp_inv[xi] != yi:
                        bad.append((self.wp[xi], self.wp[yi], self.wp[di]))
        checks.append(PropertyCheck("P2", not bad, count, bad[:5]))

        # P3: for each y exactly one d with gamma_{y,y^-1,d} != 0; pairs
        # whose product support leaves the certified region are skipped
        bad = []
        count = 0
        for yi in cert_wp:
            pair = (yi, self.wp_inv[yi])
            if self.wp_len[yi] + self.wp_len[self.wp_inv[yi]] > self.radius:
                continue
            if pair in self._gamma_tainted:
                continue
            count += 1
            row = self._gamma.get(pair, {})
            hits = [zi for zi in row if zi in dset and row[zi]]
            if len(hits) != 1:
                bad.append((self.wp[yi], len(hits)))
        checks.append(PropertyCheck("P3", not bad, count, bad[:5]))

        # P4: z' <=_LR z implies a(z') >= a(z), on cells with a defined
        bad = []
        count = 0
        cells = self._cells
        for i, j in cells.lr_order_pairs:
            ci, cj = cells.two_sided[i], cells.two_sided[j]
            if ci.a_value is None or cj.a_value is None:
                continue
            count += 1
            if ci.a_value < cj.a_value:
                bad.append((i, j, ci.a_value, cj.a_value))
        checks.append(PropertyCheck("P4", not bad, count, bad[:5]))

        # P5: gamma_{y^-1,y,d} = n_d = +-1
        bad = []
        count = 0
        for yi in cert_wp:
            yinv = self.wp_inv[yi]
            if self.wp_len[yi] + self.wp_len[yinv] > self.radius:
                continue
            row = self._gamma.get((yinv, yi), {})
            for di in dset:
                g = row.get(di, 0)
                if g:
                    count += 1
                    nd = self._p[di][0][max(self._p[di][0])]
                    if g != nd or abs(nd) != 1:
                        bad.append((self.wp[yi], self.wp[di], g, nd))
        checks.append(PropertyCheck("P5", not bad, count, bad[:5]))

        # P6: distinguished involutions square to e
        bad = [d for d, _ in dist if not (d * d).is_identity()]
        checks.append(PropertyCheck("P6", not bad, len(dist), bad[:5]))

        # P7: gamma_{x,y,z} = gamma_{y,z,x} (cyclic invariance)
        bad = []
        count = 0
        for (xi, yi), row in self._gamma.items():
            if xi not in cert_set or yi not in cert_set:
                continue
            for zi, g in row.items():
                if zi not in cert_set:
                    continue
                # symbol: gamma_{x,y,w} with w = z^-1
                wi = self.wp_inv[zi]
                g2 = gam(yi, wi, self.wp_inv[xi])
                if g2 is None:
                    continue
                count += 1
                if g != g2:
                    bad.append((self.wp[xi], self.wp[yi], self.wp[wi], g, g2))
        checks.append(PropertyCheck("P7", not bad, count, bad[:5]))

        # P8: gamma_{x,y,z} != 0 implies x ~L y^-1, y ~L z, z^-1 ~L x^-1
        bad = []
        count = 0
        lid = self._cells.left_id
        for (xi, yi), row in self._gamma.items():
            if xi not in cert_set or yi not in cert_set:
                continue
            for zi, g in row.items():
                if not g or zi not in cert_set:
                    continue
                count += 1
                x, y, z = self.wp[xi], self.wp[yi], self.wp[zi]
                ok = (
                    lid[x] == lid[y.inverse()]
                    and lid[y] == lid[z]
                    and lid[z.inverse()] == lid[x.inverse()]
                )
                if not ok:
                    bad.append((x, y, z))
        checks.append(PropertyCheck("P8", not bad, count, bad[:5]))

        return checks
