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
gamma-tables are stored on W' only and extended on demand.  Both kernels
run on Kronecker-packed ints, at widths that positivity makes sound: the KL
recursion fills one interned table (one dict per distinct polynomial, one
row per symmetry orbit), and products c_x c_y are streamed one row at a
time along right reduced words, at the width the augmentation bounds, from
generator tables that hold c_z c_s as None for (v + v^-1) c_z, else as
(target, coefficient) pairs.

On W', conjugation g by Omega and the anti-involution T_w -> T_{w^-1} fix
both tables up to relabelling: p_{y,z} = p_{gy,gz} = p_{y^-1,z^-1} and
h_{x,y,z} = h_{gx,gy,gz} = h_{y^-1,x^-1,z^-1}.  The KL recursion runs for
one z per orbit, and the table holds that row once for the whole orbit:
each z reads it, and its mu-coefficients, through the g that carries the
orbit's least element onto z; the cache text (cache_lines, a generator)
holds that row once too.  Product rows c_x c_y are computed with the
longer factor on the left: for one x per Omega-conjugacy orbit and the y
with l(y) <= min(l(x), R - l(x)), so a pair and its inverse mirror are
both computed only when l(x) = l(y).  Each row is worked once: a(z) and
its certificate come from the max degree over z's orbit, in two columns
(budgets <= R - m and above), and the gamma table is kept per computed
row, relabelled for any other pair when it is looked up (_rep).
One pass of the rows serves both the a-values and the gamma table; a ball
that needs only its a-values (for the cells) keeps nothing of the rows.
The cells too: T_omega c_x = c_{omega x} and c_x T_omega = c_{x omega}, so
the preorder graphs have one node per left Omega-orbit, its W' element,
and a cell holds the Omega-translates of its nodes.

Group arithmetic is done once per ball, by the search that builds it and
its right multiplication table.  Integer tables over ball indices, walked
from that table, hold lengths, inverses, the (W' index, Omega index) pair
of each element and Omega translation, as in du Cloux's Coxeter programs.
Every inner loop runs on these indices, and so does the T-basis layer: a
HeckeElement maps ball indices to raw polynomials.  Group elements appear
only where a public method takes one or reports one.
"""
from __future__ import annotations

import bisect
import itertools
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .coxeter import Ball, GroupElement, GroupPresentation
from .laurent import LaurentPoly, acc_apply, acc_mul, acc_scaled, unpack

RawPoly = dict  # exponent -> int coefficient, no zeros
XI = {1: 1, -1: -1}  # v - v^-1

CACHE_SCHEMA = "heckequot-ball/3"


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

    basis is one of "T", "c", "cdag"; terms maps ball indices to raw
    polynomials, which are shared, never mutated in place (kl_element hands
    out the KL table's own).  ball names the elements in repr."""

    basis: str
    terms: dict[int, RawPoly]
    ball: Ball | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.terms = {w: p for w, p in self.terms.items() if p}

    def __repr__(self) -> str:
        # ball indices follow the key order
        inner = ", ".join(f"{self.ball.elements[w].key_str()}: {LaurentPoly._raw(p).to_str()}"
                          for w, p in sorted(self.terms.items()))
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
    checked: int
    counterexamples: list = field(default_factory=list)


def _sccs(adj: list[tuple[int, ...]]) -> list[list[int]]:
    """The strongly connected components of the graph v -> adj[v] on
    range(len(adj)), in topological order: every edge that leaves a
    component enters a later one (Kosaraju, both passes iterative)."""
    n = len(adj)
    seen, finished = [False] * n, []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(adj[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    radj: list[list[int]] = [[] for _ in range(n)]
    for v, out in enumerate(adj):
        for w in out:
            radj[w].append(v)
    # the last node to finish lies in a source component; the reversed
    # graph reaches from it exactly its own component
    comps, placed = [], [False] * n
    for root in reversed(finished):
        if not placed[root]:
            placed[root], comp = True, [root]
            for v in comp:  # the list grows while it is read
                for w in radj[v]:
                    if not placed[w]:
                        placed[w] = True
                        comp.append(w)
            comps.append(comp)
    return comps


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
        # _rom[j * nom + k] is the ball index of wp[j] * omega_k
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
        # _heads[a] = (x, k) for each a in W': x the least W' index of its
        # Omega-conjugacy orbit, whose products the stream computes, and k
        # the least with conj[k][x] = a
        heads: dict[int, tuple[int, int]] = {}
        for xi in range(len(wball)):
            if xi not in heads:
                heads.update((conj[k][xi], (xi, k)) for k in reversed(range(nom)))
        self._heads = [heads[a] for a in range(len(wball))]
        # right multiplication by generators inside W', on W' indices
        self._wrm = array("i", (-1 if b < 0 else self._wpi[b]
                                for i in wball for b in self._rm[i * ngen:(i + 1) * ngen]))

        # parent[i] = (j, s) with wp[i] = wp[j] * gen[s], length down by one
        self.parent: list[tuple[int, int] | None] = [None] + [
            (self._wpi[desc[b][0]], desc[b][1]) for b in wball[1:]]

        # p_{g(y),z} = _p[z][y] with g = _pg[z]: one row per _syms orbit (see
        # _compute_kl_table), and _mus[z] lists its (y, mu(g(y), z)), mu != 0
        self._p: list[dict[int, RawPoly]] = []
        self._pg: list[list[int]] = []
        self._compute_kl_table()
        self._mus: list[list[tuple[int, int]]] | None = None
        self._cs: list[list[tuple[tuple[int, int], ...] | None] | None] = [None] * ngen
        self._a_values: list[int] | None = None
        self._a_cert: list[bool] | None = None
        self._gamma: dict[tuple[int, int], dict[int, int]] | None = None
        self._gamma_tainted: set[tuple[int, int]] = set()
        self._gamma_rows: dict[tuple[int, int], dict[int, int]] = {}  # per ball-index pair
        self._h_for_dist: dict[tuple[int, int], dict[int, int]] = {}  # packed rows
        self._dist_idx: list[int] | None = None
        self._cells: CellPartition | None = None
        self._daggers: dict[int, dict[int, RawPoly]] = {}
        self._cdaggers: dict[int, dict[int, RawPoly]] = {}
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
        """Left-greedy reduced word (s_1, ..., s_m) of x = ball[i], each s_j the
        first generator that shortens s_{j-1} ... s_1 x from the left, and the k
        with x = s_1 ... s_m omega_k."""
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
    def _kl_bits(self) -> int:
        """Digit width of the packed KL recursion (see _compute_kl_table)."""
        return self.radius + 2

    def _compute_kl_table(self) -> None:
        """Bar-invariant completion along right reduced words, on packed ints.

        For z = z1 s, E = c_{z1} (T_s + v^-1) in T-coordinates; then, for y < z
        in descending index, E -= mu c_y with mu the v^0 coefficient of E[y].
        What is left is c_z (_cs_table rebuilds the mu from p).  A value is
        sum_e c_e B^(e+R+1) with B = 2^k, so v and v^-1 are shifts by k.  By
        Kazhdan-Lusztig positivity E[y] = p_{y,z} + mu >= 0 when read, and no
        digit of E exceeds eps(c_{z1} c_s) = 2 eps(c_{z1}) <= 2^l(z) <= 2^R, with
        eps(c_w) = sum_y p_{y,w}(1), which each correction lowers; so k = R + 2
        decodes every value.  eps also sets _pack_bits.  While the loop runs
        the rows hold the packed ints, each distinct value one int object;
        after it, each distinct value is decoded once and checked, and the
        rows are interned in place: each distinct polynomial is one dict,
        shared by every entry equal to it and never mutated.  The table is
        held per orbit: the recursion runs for the least z of each _syms
        orbit, and every member g(z) shares that one row dict, _p[g(z)] =
        _p[z], with _pg[g(z)] = g (the first such g in _syms; syms[0], the
        identity, for z itself), so that p_{g(y),g(z)} = _p[g(z)][y].  The parent row and the rows of the
        corrections are read through their g.  Once the loop ends, a value
        that is zero (p_{y,z} != 0 on [e, z]), has a digit outside
        [0, 2^(k-1)), or has degree >= 0 but is not p_{z,z} = 1 raises
        HeckeError: the width was too narrow."""
        R, k, ngen, wrm, wl = self.radius, self._kl_bits(), len(self.gens), self._wrm, self.wp_len
        lo, top, half, n = -R - 1, k * R, 1 << (k - 1), len(self.wp)
        shared: dict[int, int | RawPoly] = {}  # packed value -> its one int, then its one dict
        dedup = shared.setdefault
        syms = self._syms
        p: list[dict[int, int] | None] = [None] * n  # packed ints until the loop ends
        pg = [syms[0]] * n  # syms[0] is the identity
        eps = [1] * n
        one = 1 << k * (R + 1)
        p[0] = {0: dedup(one, one)}
        rows = [p[0]]  # the one dict of each orbit
        for zi in range(1, n):  # W' is sorted by (length, key)
            if p[zi] is not None:
                continue
            j, s = self.parent[zi]
            g = pg[j]
            E: dict[int, int] = {}
            get = E.get
            for yi, H in p[j].items():  # l(ys) <= l(z), so ys lies in the ball
                yi = g[yi]
                ysi = wrm[yi * ngen + s]
                E[ysi] = get(ysi, 0) + H
                # y s > y: v^-1 T_y; y s < y: T_y T_s = T_{ys} + (v - v^-1) T_y, plus v^-1 T_y
                E[yi] = get(yi, 0) + (H >> k if wl[ysi] > wl[yi] else H << k)
            ez = 2 * eps[j]
            # supp E is the Bruhat interval [e, z] and a correction from y
            # reaches only y and shorter keys: fix them in descending index,
            # each final once its own correction is made
            keys = sorted(E)
            E[zi] = dedup(E[zi], E[zi])
            for yi in keys[-2::-1]:
                H = E[yi]
                mu = ((H >> top) + half) >> k  # the digit of v^0, rounded
                if mu:
                    ez -= mu * eps[yi]
                    g = pg[yi]
                    for y2, Q in p[yi].items():
                        E[g[y2]] -= mu * Q
                    H = E[yi]
                E[yi] = dedup(H, H)
            rows.append(E)
            for g in syms:
                eps[g[zi]] = ez
                if p[g[zi]] is None:
                    p[g[zi]], pg[g[zi]] = E, g
        for H in shared:
            q = shared[H] = unpack(H, lo, k)
            if not (q and all(0 < c < half for c in q.values()) and (max(q) < 0 or q == {0: 1})):
                raise HeckeError(f"a KL polynomial overflows the {k}-bit digits")
        for row in rows:
            for yi, H in row.items():
                row[yi] = shared[H]
        self._p, self._pg = p, pg
        best = list(itertools.accumulate(eps, max))  # best[i] = max(eps[:i + 1])
        M = max(e * best[bisect.bisect_right(wl, R - lx) - 1] for e, lx in zip(eps, wl))
        self._row_bits = M.bit_length() + 2

    # ---------------- p-polynomial access --------------------------------
    def _kl_terms(self, i: int):
        """(ball index of y, p_{y,z}) over the T-expansion of c_z, z = ball[i]."""
        zi, k, nom, rom = self._wpi[i], self._omi[i], self._nom, self._rom
        g = self._pg[zi]
        for yi, p in self._p[zi].items():
            yield rom[g[yi] * nom + k], p

    def kl_element(self, z: GroupElement) -> HeckeElement:
        """Canonical basis element c_z in the T-basis; its polynomials are the
        KL table's interned dicts."""
        return HeckeElement("T", dict(self._kl_terms(self._idx(z))), self.ball)

    # ---------------- generator products ---------------------------------
    def _cs_table(self, s: int) -> list[tuple[tuple[int, int], ...] | None]:
        """Expansion of c_z c_s over W', for each z: None when z s < z, where
        c_z c_s = (v + v^-1) c_z; else the (target, int coefficient) pairs of
        c_{zs} + sum mu(y, z) c_y over the y < z with y s < y, c_{zs} first.

        Rows at the ball boundary with an ascending step are partial (the top
        term c_{zs} falls outside); their first target is the marker -1."""
        if self._cs[s] is not None:
            return self._cs[s]
        if self._mus is None:  # one scan of the KL table serves every generator
            orbit_mus: dict[int, list[tuple[int, int]]] = {}  # id of a row -> its mus
            for row in self._p:
                if id(row) not in orbit_mus:
                    orbit_mus[id(row)] = [(yi, m) for yi, q in row.items() if (m := q.get(-1, 0))]
            self._mus = [orbit_mus[id(row)] for row in self._p]
        ngen, wrm, wl = len(self.gens), self._wrm, self.wp_len
        tbl: list[tuple[tuple[int, int], ...] | None] = []
        for zi, (mus, g) in enumerate(zip(self._mus, self._pg)):
            zs = wrm[zi * ngen + s]
            if zs >= 0 and wl[zs] < wl[zi]:
                tbl.append(None)
                continue
            row = [(zs, 1)]  # zs is the overflow marker -1 when c_{zs} is outside
            for yi, m in mus:
                yi = g[yi]
                if 0 <= (ys := wrm[yi * ngen + s]) and wl[ys] < wl[yi]:
                    row.append((yi, m))
            tbl.append(tuple(row))
        self._cs[s] = tbl
        return tbl

    # ---------------- T-basis products -----------------------------------
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
        # a T_w = (a T_{ws}) T_s along the first right descent, down to a T_omega;
        # each partial product is made once and shared by the terms of b
        memo: dict[int, dict[int, RawPoly]] = {}

        def times(i: int) -> dict[int, RawPoly]:
            if i not in memo:
                step = self._right_descent(i)
                memo[i] = (self._t_mul_omega(a.terms, self._omi[i]) if step is None
                           else self._t_mul_gen(times(step[0]), step[1]))
            return memo[i]

        return HeckeElement("T", acc_apply({}, times, b.terms), self.ball)

    def t_to_c(self, a: HeckeElement) -> HeckeElement:
        """Rewrite a T-basis element in the canonical basis."""
        if a.basis != "T":
            raise HeckeError("t_to_c needs a T-basis operand")
        return HeckeElement("c", self._t_to_c_idx({w: dict(p) for w, p in a.terms.items()}), self.ball)

    def _t_to_c_idx(self, rem: dict[int, RawPoly]) -> dict[int, RawPoly]:
        """t_to_c on ball indices, keyed in descending index.  Consumes rem and
        the polynomial dicts inside it: they are accumulated into in place,
        and the result holds them."""
        out: dict[int, RawPoly] = {}
        while rem:
            # ball indices follow the key order, so this is a longest term
            w = max(rem)
            coeff = out[w] = rem.pop(w)
            neg = acc_scaled({}, coeff, -1)
            for y, p in self._kl_terms(w):
                if y != w:
                    acc = rem.setdefault(y, {})
                    acc_mul(acc, neg, p)
                    if not acc:
                        del rem[y]
        return out

    def dagger(self, a: HeckeElement) -> HeckeElement:
        """The A-algebra involution with T_s -> -T_s^{-1} = -T_s + xi_s,
        identity on T_omega.  Canonical elements map to the c-dagger basis,
        which has the same structure constants."""
        if a.basis != "T":
            raise HeckeError("dagger needs a T-basis operand")
        return HeckeElement("T", acc_apply({}, self._dagger_T, a.terms), self.ball)

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

    def _cdagger_T(self, i: int) -> dict[int, RawPoly]:
        """t_to_c(dagger(T_x)) for x = ball[i], memoized: the dagger-basis
        coordinates of T_x.  _t_to_c_idx consumes the dicts it is given, so it
        reads a copy of the memoized dagger(T_x).  Callers must not mutate
        the result."""
        d = self._cdaggers.get(i)
        if d is None:
            d = self._cdaggers[i] = self._t_to_c_idx({x: dict(q) for x, q in self._dagger_T(i).items()})
        return d

    # ---------------- structure constants --------------------------------
    def _pack_bits(self) -> int:
        """Digit width k of the packed rows of _stream_products, from the augmentation.
        At v = 1 the Hecke algebra is the group algebra, where eps(T_w) = 1 is a
        ring homomorphism: sum_z h_{x,y,z}(1) eps(c_z) = eps(c_x) eps(c_y), with
        eps(c_w) = sum_y p_{y,w}(1) >= 1.  Every h_{x,y,z} has nonnegative
        coefficients (Lusztig, "Cells in affine Weyl groups", 1985), so each is
        at most h_{x,y,z}(1) <= M, the largest eps(c_x) eps(c_y) over l(x) + l(y)
        <= R.  At k = bitlen(M) + 2 every coefficient lies below 2^(k-2), so each
        digit decodes exactly.  _compute_kl_table sets k once, with eps."""
        return self._row_bits

    def _stream_products(self, visit: Callable[[int, int, dict[int, int]], None]) -> None:
        """Call visit(xi, yi, P) once per computed row, P = c_x c_y in
        canonical coordinates: for the least x of each Omega-conjugacy orbit
        and every y with l(y) <= min(l(x), radius - l(x)), in that order:
        the prefixes of such a y are shorter still, so row y' is there when
        row y needs it, and _rep reads every row.  P maps z to h_{x,y,z}
        packed into one int, sum_e c_e B^(e+R+1) with B = 2^k and k =
        _pack_bits(): adding rows adds polynomials, and multiplying by
        v + v^-1 is (h << k) + (h >> k), exact since the exponents of row y
        stay in -l(y)..l(y).  Then deg h =
        |H|.bit_length() // k - R - 1, and laurent.unpack(P[z], -R - 1, k)
        decodes it.  Row y = y' s is row y' times c_s, read off _cs_table(s)
        as stored, less the rows of the other terms of c_{y'} c_s.  Every
        term of row y' times c_s is nonnegative (h >= 0, coefficients 1 or
        mu > 0), so an entry can cancel only in the subtraction, and only
        there are zeros deleted: P has no zero value.  _rep gives every
        other pair in the budget its row."""
        budget, wl, n = self.radius, self.wp_len, len(self.wp)
        k, tbls = self._pack_bits(), [self._cs_table(s) for s in range(len(self.gens))]
        for xi, (head, _) in enumerate(self._heads):  # W' is sorted by (length, key)
            if head != xi:
                continue
            top = min(wl[xi], budget - wl[xi])
            rows = [{xi: 1 << k * (budget + 1)}]  # rows[y] = c_x c_y
            visit(xi, 0, rows[0])
            for yi in range(1, n):
                if wl[yi] > top:
                    break
                pi, s = self.parent[yi]
                tbl = tbls[s]
                P: dict[int, int] = {}
                get = P.get
                for zi, h in rows[pi].items():
                    items = tbl[zi]
                    if items is None:  # c_z c_s = (v + v^-1) c_z
                        P[zi] = get(zi, 0) + (h << k) + (h >> k)
                        continue
                    for wi, A in items:
                        if wi < 0:  # pragma: no cover - budget prevents this
                            raise BallOverflowError("product overflowed the ball")
                        P[wi] = get(wi, 0) + (h if A == 1 else h * A)
                # the one place an entry can cancel
                for wi, A in tbl[pi]:  # l(pi s) = l(y) > l(pi), so the row is not None
                    if wi != yi:
                        for zi, h in rows[wi].items():
                            if H := get(zi, 0) - (h if A == 1 else h * A):
                                P[zi] = H
                            else:
                                del P[zi]
                rows.append(P)
                visit(xi, yi, P)

    def _rep(self, a: int, b: int) -> tuple[tuple[int, int], list[int]]:
        """The computed row (xi, yi) of _stream_products that gives the W'
        pair (a, b), and the g in _syms with h_{a,b,g(z)} = h_{xi,yi,z}.
        When l(b) <= l(a), g is the least-k Omega-conjugation onto a from
        the head xi of its orbit, and yi = g^-1(b): l(yi) = l(b) <=
        min(l(a), R - l(a)).  Otherwise l(a) < l(b), and since h_{a,b,z} =
        h_{b^-1,a^-1,z^-1} the pair is the inverse mirror of (b^-1, a^-1),
        found through wp_inv[b].  So every computed row is one this reads
        for some pair.  A pair over the budget raises BallOverflowError."""
        wl, inv, syms = self.wp_len, self.wp_inv, self._syms
        if wl[a] + wl[b] > self.radius:
            raise BallOverflowError("pair exceeds the exact-product budget")
        if wl[b] <= wl[a]:
            xi, k = self._heads[a]
            return (xi, syms[self._om_inv[k]][b]), syms[k]
        xi, k = self._heads[inv[b]]
        return (xi, syms[self._om_inv[k]][inv[a]]), syms[self._nom + k]

    # ---------------- a-function ------------------------------------------
    def _stream_a_values(self, visit: Callable[[int, int, dict[int, int]], None] | None = None) -> None:
        """One pass of _stream_products that fills the two a-value columns,
        and calls visit(xi, yi, P) on each row after it; then reads a(z) and
        its certificate off the columns."""
        n, wl, R, m = len(self.wp), self.wp_len, self.radius, self.margin
        k = self._pack_bits()
        # cols[0][z] (cols[1][z]): the largest packed H over the computed
        # rows with pair budget l(x) + l(y) <= R - m (> R - m), 0 (degree
        # -R-1) if there is none.  Every H is positive, so the largest has
        # the largest bit length, and the degree
        cols = [[0] * n, [0] * n]

        def fill(xi: int, yi: int, P: dict[int, int]) -> None:
            col = cols[wl[xi] + wl[yi] > R - m]
            for zi, H in P.items():
                if col[zi] < H:
                    col[zi] = H
            if visit is not None:
                visit(xi, yi, P)

        self._stream_products(fill)
        # each pair is a computed row's image under a g in _syms (see _rep),
        # which keeps budgets and degrees: a(z) and its certificate are read
        # off the max over z's orbit.  The max degree over the budgets <= rho
        # never falls as rho grows, so it is attained identically for budgets
        # R-m .. R iff the budgets <= R - m attain it already.
        values: list[int | None] = [None] * n
        certs = [False] * n
        for zi in range(n):
            if values[zi] is not None:
                continue
            orbit = {g[zi] for g in self._syms}
            low, high = (max(map(col.__getitem__, orbit)).bit_length() // k - R - 1 for col in cols)
            val = max(low, high)
            cert = low == val and 0 <= val <= self.n_pos_roots and wl[zi] <= R - 2 * m
            for w in orbit:
                values[w], certs[w] = val, cert
        self._a_values = values
        self._a_cert = certs

    def _ensure_a_data(self) -> None:
        if self._a_values is None:
            self._stream_a_values()

    def _wp_coset(self, x: GroupElement) -> tuple[int, int]:
        """(W' index, Omega index) of a ball element x = wp[i] omega_k."""
        i = self._idx(x)
        return self._wpi[i], self._omi[i]

    def a_function(self, z: GroupElement) -> tuple[int, bool]:
        """(a(z), certified).  Omega translation leaves a unchanged."""
        return self._a_idx(self._idx(z))

    def _a_idx(self, i: int) -> tuple[int, bool]:
        """a_function on ball indices."""
        if self._a_values is None:  # a traced stage: enter it only to build
            self._ensure_a_data()
        zi = self._wpi[i]
        return self._a_values[zi], self._a_cert[zi]

    def distinguished_involutions(self) -> list[tuple[GroupElement, int]]:
        """Certified z in W' with a(z) = Delta(z), paired with n_z, where the
        leading term of p_{1,z} is n_z v^{-Delta(z)}."""
        if self._dist_idx is None:
            self._ensure_a_data()
            self._dist_idx = [zi for zi, row in enumerate(self._p) if self._a_cert[zi]
                              and 0 in row and -max(row[0]) == self._a_values[zi]]
        return [(self.wp[zi], self._p[zi][0][max(self._p[zi][0])]) for zi in self._dist_idx]

    # ---------------- gamma table ------------------------------------------
    def _ensure_gamma(self) -> None:
        """The one product stream a J scenario needs: it fills the a-value
        columns (_stream_a_values) and, per computed row (xi, yi), keeps
        what gamma, the taint and the h-rows need.  _rep relabels the three
        tables for every pair in the budget, since a(z), certification and
        the distinguished set are invariant under _syms.  A ball whose
        a-values are known already fills the columns again, to the same
        values: JRing asks for gamma first, so a J scenario streams once.

        * gamma_{x,y,z} is the coefficient of v^a(z) in h_{x,y,z}, and deg
          h_{x,y,z} <= a(z) over the whole budget; every h has nonnegative
          coefficients, so it is the top digit of the packed H when deg h =
          a(z), else 0.  For each z the pass keeps (row, top digit) at z's
          running top degree only, and drops them when that degree rises.
        * A row is tainted when its support leaves the certified elements.
          A z with l(z) > R - 2m is never certified, so a row touching one
          is tainted at once; each other row is listed under every z of its
          support, and tainted after the pass if one of them is uncertified.
        * The h-rows against distinguished involutions d: a d is certified
          with a(d) = Delta(d), and an involution (Lusztig's P6), so it is
          an involution z with p_{1,z} != 0, Delta(z) <= nu and l(z) <=
          R - 2m.  The pass keeps its own packed row (xi, yi) when yi is such
          a candidate, or when l(y) < l(x) and xi is one: there _rep finds a
          pair (x, d) with l(x) < l(d), as the inverse mirror of (d^-1, x^-1)
          = (d, x^-1).  Equal values in the kept rows are made one int (few
          distinct h occur), and _h_dist_idx decodes them on read.

        After the pass a(z) and the distinguished set are known: the kept
        rows are cut down to the distinguished ones (the same test, with the
        distinguished set for the candidates), the listed rows give the
        taint, and gamma is read off the kept top digits."""
        if self._gamma is not None:
            return
        n, wl, R, m, k, p = len(self.wp), self.wp_len, self.radius, self.margin, self._pack_bits(), self._p
        cut = bisect.bisect_right(wl, R - 2 * m)  # W' is sorted by length
        cand = {zi for zi in range(cut) if self.wp_inv[zi] == zi and 0 in p[zi]
                and -max(p[zi][0]) <= self.n_pos_roots}
        # floor[z] = k (deg + R + 1) at z's running top degree: the least
        # |H|.bit_length() of that degree; hits[z] = [row, digit, row, ...]
        floor, hits = [0] * n, [None] * n
        touch: list[list[tuple[int, int]]] = [[] for _ in range(cut)]
        tainted: set[tuple[int, int]] = set()
        rows: dict[tuple[int, int], dict[int, int]] = {}
        shared: dict[int, int] = {}

        def visit(xi: int, yi: int, P: dict[int, int]) -> None:
            key = (xi, yi)
            for zi, H in P.items():
                b = H.bit_length()
                lo = floor[zi]
                if b < lo:
                    continue
                if b < lo + k:
                    hits[zi] += key, H >> lo
                else:  # the degree rises
                    lo = floor[zi] = b - b % k
                    hits[zi] = [key, H >> lo]
            if max(P) >= cut:
                tainted.add(key)
            else:
                for zi in P:
                    touch[zi].append(key)
            if yi in cand or (wl[yi] < wl[xi] and xi in cand):
                for zi, H in P.items():  # equal values, not new keys
                    P[zi] = shared.setdefault(H, H)
                rows[key] = P

        self._stream_a_values(visit)
        self.distinguished_involutions()  # sets _dist_idx
        # each table is read off as soon as it can be, and its input dropped
        dset = set(self._dist_idx)
        self._h_for_dist = {key: P for key, P in rows.items()
                            if key[1] in dset or (wl[key[1]] < wl[key[0]] and key[0] in dset)}
        del rows, shared
        for zi, listed in enumerate(touch):
            if not self._a_cert[zi]:
                tainted.update(listed)
        del touch
        self._gamma_tainted = tainted
        gamma: dict[tuple[int, int], dict[int, int]] = {}
        for zi, (a, lo) in enumerate(zip(self._a_values, floor)):
            h, hits[zi] = hits[zi], None
            if h and lo == k * (a + R + 1):
                for key, g in zip(h[::2], h[1::2]):
                    gamma.setdefault(key, {})[zi] = g
        self._gamma = gamma

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
        key, g = self._rep(xi, yti)
        return next((c for wi, c in self._gamma.get(key, {}).items() if g[wi] == zi), 0)

    def gamma_row(self, x: GroupElement, y: GroupElement) -> dict[GroupElement, int]:
        """All nonzero coefficients of t_x t_y, with certification guards."""
        elems = self.ball.elements
        return {elems[z]: g for z, g in self._gamma_row_idx(self._idx(x), self._idx(y)).items()}

    def _gamma_row_idx(self, i: int, j: int) -> dict[int, int]:
        """gamma_row on ball indices, memoized per pair; a refused pair is
        not stored, so it raises again.  Callers must not mutate the result."""
        row = self._gamma_rows.get((i, j))
        if row is not None:
            return row
        if self._gamma is None:  # a traced stage: enter it only to build
            self._ensure_gamma()
        xi, omx = self._wpi[i], self._omi[i]
        yti = self._syms[omx][self._wpi[j]]  # the W' part of omega_x y omega_x^-1
        if not (self._a_cert[xi] and self._a_cert[yti]):
            raise UncertifiedError("operands must have certified a-values")
        key, g = self._rep(xi, yti)
        if key in self._gamma_tainted:
            raise UncertifiedError("product support touches uncertified elements")
        om, nom, rom = self._om_mul[omx][self._omi[j]], self._nom, self._rom
        row = self._gamma_rows[(i, j)] = {rom[g[zi] * nom + om]: c
                                          for zi, c in self._gamma.get(key, {}).items()}
        return row

    def _h_dist_idx(self, i: int, di: int) -> dict[int, RawPoly]:
        """h_{x,d,.} on ball indices, for x = ball[i] and a distinguished
        involution d = ball[di], decoded from the packed row _ensure_gamma
        kept."""
        if self._gamma is None:  # a traced stage: enter it only to build
            self._ensure_gamma()
        xi, omx = self._wpi[i], self._omi[i]
        if self._omi[di]:
            raise HeckeError("distinguished involutions lie in W'")
        if self._wpi[di] not in self._dist_idx:  # a wrong argument, not a truncation
            raise HeckeError("h_{x,d,.} needs a distinguished involution d")
        key, g = self._rep(xi, self._syms[omx][self._wpi[di]])
        nom, rom, lo, k = self._nom, self._rom, -self.radius - 1, self._pack_bits()
        return {rom[g[zi] * nom + omx]: unpack(H, lo, k) for zi, H in self._h_for_dist[key].items()}

    # ---------------- cache text --------------------------------------------
    def cache_lines(self) -> Iterator[str]:
        """The KL table as text, yielded one line at a time.

        One header line; an E line "E i word=.. omega=w.. len=.. trans=(..)
        fin=f.." per W' element, with its left-greedy reduced word; then a P
        line "P y z poly" per nonzero p_{y,z}, z the least W' index of its
        _syms orbit (g gives the rest, p_{g(y),g(z)} = p_{y,z}).  Indices refer
        to the E lines; each interned polynomial is formatted once.  Order and
        text are canonical, so two computations of a ball dump the same bytes."""
        names, p, ident = self.pres.gen_names, self._p, self._syms[0]
        yield f"# {CACHE_SCHEMA} family={self.pres.family} radius={self.radius} elements={len(self.wp)}"
        for i, x in enumerate(self.wp):
            word, om = self._word(self._rom[i * self._nom])
            yield (f"E {i} word={'.'.join(names[s] for s in word) or 'e'} omega=w{om} "
                   f"len={x.length} trans=({','.join(map(str, x.trans))}) fin=f{x.fin}")
        text: dict[int, str] = {}  # id of an interned polynomial -> its text
        for zi, g in enumerate(self._pg):
            if g is ident:
                for yi in sorted(p[zi]):
                    q = p[zi][yi]
                    if id(q) not in text:
                        text[id(q)] = LaurentPoly(q).to_str()
                    yield f"P {yi} {zi} {text[id(q)]}"

    # ---------------- cells -------------------------------------------------
    def _ensure_cells(self) -> None:
        if self._cells is not None:
            return
        self._ensure_a_data()
        elems, inv, rom, nom, wp_inv = self.ball.elements, self._inv, self._rom, self._nom, self.wp_inv
        tbls, nodes = [self._cs_table(s) for s in range(len(self.gens))], range(len(self.wp))

        def support(z: int):  # of all c_z c_s in the ball; a None row is (v + v^-1) c_z
            return (w for tbl in tbls for w, _ in tbl[z] or ((z, 1),) if w >= 0)

        # one node per left Omega-orbit {omega x}, named by its W' element x:
        # T_omega c_x = c_{omega x} and c_x T_omega = c_{x omega}, so each
        # orbit is a cycle of the ball's preorder graphs and contracting it
        # keeps their components and reachability.  left[x] holds the y with
        # y <=_L x in one step, the support of c_s c_x = iota(c_{x^-1} c_s).
        left = [tuple({wp_inv[w] for w in support(wp_inv[x])}) for x in nodes]
        # T_w -> T_{w^-1} is an anti-involution, so y <=_R x iff y^-1 <=_L x^-1
        # (Kazhdan-Lusztig 1979): one right step is the support of c_x c_s or
        # x omega, which lies in the orbit of omega^-1 x omega.  A component
        # of one node is fixed by these conjugations, so when |Omega| > 1 it has
        # a loop, as the cycle of its orbit gives it in the ball.
        both = [tuple({*left[x], *support(x), *(g[x] for g in self._syms[1:nom])}) for x in nodes]

        def ordered(cells: list[list[int]]) -> tuple[list[list[int]], dict[GroupElement, int]]:
            # cells sorted by key, which is ball index order
            cells = sorted(sorted(c) for c in cells)
            return cells, {elems[i]: k for k, c in enumerate(cells) for i in c}

        # a left cell holds the left Omega-translates of its nodes; a two-sided
        # cell, closed under translation on both sides, the right ones
        wball, comps = rom[::nom], _sccs(both)
        lcomp, lid = ordered([[self._left_omega(wball[x], k) for x in c for k in range(nom)]
                              for c in _sccs(left)])
        rcomp = sorted(sorted(inv[i] for i in c) for c in lcomp)  # the right cells
        tcomp, tid = ordered([[rom[x * nom + k] for x in c for k in range(nom)] for c in comps])
        records = []
        for c in tcomp:
            cert = [i for i in c if self._a_cert[self._wpi[i]]]
            avals = {self._a_values[self._wpi[i]] for i in cert}
            records.append(CellRecord([elems[i] for i in c], [elems[i] for i in cert],
                                      a_value=next(iter(avals)) if len(avals) == 1 else None,
                                      fully_certified=len(cert) == len(c) and len(avals) == 1))

        # the two-sided preorder on cells, transitively closed: below[c] holds
        # the components reached from c in one step or more, filled in one
        # pass from the sinks up, since every step goes to a later component
        comp_of = {x: c for c, members in enumerate(comps) for x in members}
        below: list[set[int]] = [set() for _ in comps]
        for c in reversed(range(len(comps))):
            for d in {comp_of[y] for x in comps[c] for y in both[x]}:
                below[c] |= {d} | below[d]
        cell = [tid[elems[wball[c[0]]]] for c in comps]
        self._cells = CellPartition(
            two_sided=records,
            left=[[elems[i] for i in c] for c in lcomp],
            right=[[elems[i] for i in c] for c in rcomp],
            left_id=lid,
            two_sided_id=tid,
            lr_order_pairs={(cell[d], cell[c]) for c, ds in enumerate(below) for d in ds},
        )

    def cell_partition(self) -> CellPartition:
        if self._cells is None:  # a traced stage: enter it only to build
            self._ensure_cells()
        return self._cells

    def nhat(self, z: GroupElement) -> int:
        """n_d for the unique distinguished involution d in the left cell
        of z^-1."""
        return self._nhat_idx(self._idx(z))

    def _nhat_idx(self, i: int) -> int:
        """nhat on ball indices."""
        if self._cells is None:  # a traced stage: enter it only to build
            self._ensure_cells()
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
        dist_idx = self._dist_idx  # every one certified
        dset = set(dist_idx)
        wp, wp_inv = self.wp, self.wp_inv
        checks = []

        # P1: a(z) <= Delta(z), wherever p_{1,z} is nonzero
        bad = [wp[zi] for zi in cert_wp if 0 in self._p[zi] and self._a_values[zi] > -max(self._p[zi][0])]
        checks.append(PropertyCheck("P1", len(cert_wp), bad[:5]))

        # gamma_{x,y,.} over W' for every pair of certified elements in the
        # budget, relabelled from its computed row
        R, wl, rows = self.radius, self.wp_len, {}
        for xi in cert_wp:
            for yi in cert_wp:
                if wl[xi] + wl[yi] <= R:
                    key, g = self._rep(xi, yi)
                    rows[(xi, yi)] = {g[zi]: c for zi, c in self._gamma.get(key, {}).items()}

        # P2: gamma_{x,y,d} != 0 with d distinguished forces x = y^-1
        bad = []
        count = 0
        for (xi, yi), row in rows.items():
            for di in dset:
                # symbol gamma_{x,y,d} is the coefficient of t_{d^-1} = t_d
                if row.get(di, 0):
                    count += 1
                    if self.wp_inv[xi] != yi:
                        bad.append((self.wp[xi], self.wp[yi], self.wp[di]))
        checks.append(PropertyCheck("P2", count, bad[:5]))

        # P3: for each y exactly one d with gamma_{y,y^-1,d} != 0; pairs
        # whose product support leaves the certified region are skipped
        bad = []
        count = 0
        for yi in cert_wp:
            pair = (yi, self.wp_inv[yi])
            if pair not in rows or self._rep(*pair)[0] in self._gamma_tainted:
                continue
            count += 1
            row = rows[pair]
            hits = [zi for zi in row if zi in dset and row[zi]]
            if len(hits) != 1:
                bad.append((self.wp[yi], len(hits)))
        checks.append(PropertyCheck("P3", count, bad[:5]))

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
        checks.append(PropertyCheck("P4", count, bad[:5]))

        # P5: gamma_{y^-1,y,d} = n_d = +-1
        bad = []
        count = 0
        for yi in cert_wp:
            row = rows.get((self.wp_inv[yi], yi), {})
            for di in dset:
                g = row.get(di, 0)
                if g:
                    count += 1
                    nd = self._p[di][0][max(self._p[di][0])]
                    if g != nd or abs(nd) != 1:
                        bad.append((self.wp[yi], self.wp[di], g, nd))
        checks.append(PropertyCheck("P5", count, bad[:5]))

        # P6: distinguished involutions square to e
        bad = [wp[di] for di in dist_idx if wp_inv[di] != di]
        checks.append(PropertyCheck("P6", len(dist_idx), bad[:5]))

        # P7: gamma_{x,y,z} = gamma_{y,z,x} (cyclic invariance)
        bad = []
        count = 0
        for (xi, yi), row in rows.items():
            for zi, g in row.items():
                if zi not in cert_set:
                    continue
                # symbol: gamma_{x,y,w} with w = z^-1; y and w are certified
                wi = self.wp_inv[zi]
                if (yi, wi) not in rows:  # over the budget
                    continue
                g2 = rows[(yi, wi)].get(self.wp_inv[xi], 0)
                count += 1
                if g != g2:
                    bad.append((self.wp[xi], self.wp[yi], self.wp[wi], g, g2))
        checks.append(PropertyCheck("P7", count, bad[:5]))

        # P8: gamma_{x,y,z} != 0 implies x ~L y^-1, y ~L z, z^-1 ~L x^-1
        bad = []
        count = 0
        lid = [self._cells.left_id[x] for x in wp]
        for (xi, yi), row in rows.items():
            for zi, g in row.items():
                if not g or zi not in cert_set:
                    continue
                count += 1
                if not (lid[xi] == lid[wp_inv[yi]] and lid[yi] == lid[zi]
                        and lid[wp_inv[zi]] == lid[wp_inv[xi]]):
                    bad.append((wp[xi], wp[yi], wp[zi]))
        checks.append(PropertyCheck("P8", count, bad[:5]))

        return checks
