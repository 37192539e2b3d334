"""Independent references, kept beside the tests that use them.

The program in src/ holds only what a scenario, the benchmark or the README
reaches; what the tests compare it against lives here.

* Group presentations: the finite Weyl groups of type A(n) and B2, an
  element from its coordinates (normalized, with range checks), right
  descents and the left-greedy reduced word, all through the
  presentation's own `multiply` and `length`, with no ball table.
* Torus actions: inversion on the rank-one torus, the trivial action, and
  a brute-force count of a torsion class's fixed components on a grid.
* Value-type readers the program does not need: `monomial` (c v^e as a
  LaurentPoly), `barred` (v -> v^-1 on a LaurentPoly, through the
  program's raw `bar`), `p_row` (the KL row of one z, relabelled from the
  orbit row the table holds), `p_poly` and `mu` (a KL polynomial and its
  v^-1 coefficient, by group element), and `scaled_j` and `scaled_class`
  (a J element or a graded class times a scalar).
* Hecke elements by group element: the program keys them by ball index
  with raw polynomial values; `named` reads one as {GroupElement:
  LaurentPoly}, `hecke_element` builds one from such a dict, and `h_sum`
  and `h_scaled` add and scale them.
* Hecke products: `h_constants` recomputes c_x c_y through the T-basis
  product and `t_to_c`, `stream_rows` lists the pairs the product stream
  computes, by its rule, `c_to_t` expands canonical coordinates, and
  `h_to_distinguished` reads the streamed rows against a distinguished
  involution with group-element keys.
* The J layer: the dagger coordinates of a Hecke element, and the
  graded-module claims no scenario prints: the Hecke action on a graded
  class, through multiplication and projection, against the star action.
  `cdag_to_t` expands dagger coordinates through the public basis changes.
  `t_product_by_words` multiplies one generator at a time through the
  presentation's own group arithmetic, with no ball-index table, and
  `j_mul_from_gamma` sums single gamma constants per pair, deciding its
  refusals from recomputed structure constants rather than a taint flag.
"""

import itertools
from fractions import Fraction
from math import lcm

from heckequot.asymptotic import GradedClass, JElement, _sqrt_fraction, specialize
from heckequot.coxeter import (
    CoxeterError,
    GroupElement,
    GroupPresentation,
    _type_a_data,
    close_group,
    mat_identity,
)
from heckequot.extquot import ExtQuotError, TorusAction, _frac_vec, fixed_locus
from heckequot.hecke import XI, BallOverflowError, HeckeElement, HeckeError, UncertifiedError
from heckequot.laurent import LaurentPoly, acc_mul, acc_scaled, bar

# ---- group presentations -------------------------------------------------------


def finite_a(n: int) -> GroupPresentation:
    """Finite Weyl group of type A(n) = S_{n+1}; no affine generator."""
    N = n + 1
    elems, index, pos, adj_gens, _, _ = _type_a_data(N)
    return GroupPresentation(
        family=f"FiniteA({n})",
        rank=N,
        wf_elems=elems,
        wf_index=index,
        pos_roots=pos,
        gen_specs=[((0,) * N, index[g]) for g in adj_gens],
        gen_names=[f"s{i}" for i in range(1, N)],
        omega_count=1,
        _coset_of=lambda t: 0,
        _normalize=lambda t: t,
    )


def finite_b2() -> GroupPresentation:
    """Finite Weyl group of type B2, the signed permutations of two letters."""
    s1 = ((0, 1), (1, 0))
    s2 = ((1, 0), (0, -1))
    elems, index = close_group([s1, s2], 2)
    return GroupPresentation(
        family="FiniteB2",
        rank=2,
        wf_elems=elems,
        wf_index=index,
        pos_roots=[(1, 0), (0, 1), (1, -1), (1, 1)],
        gen_specs=[((0, 0), index[s1]), ((0, 0), index[s2])],
        gen_names=["s1", "s2"],
        omega_count=1,
        _coset_of=lambda t: 0,
        _normalize=lambda t: t,
    )


def element(pres, trans, fin: int) -> GroupElement:
    """t_trans * (finite part fin), with the translation normalized."""
    t = tuple(int(x) for x in trans)
    if len(t) != pres.rank:
        raise CoxeterError(f"translation needs {pres.rank} coordinates, got {len(t)}")
    if not 0 <= fin < len(pres.wf_elems):
        raise CoxeterError(f"finite part index {fin} out of range")
    return GroupElement(pres, pres._normalize(t), fin)


def right_descents(pres, x: GroupElement) -> list[int]:
    """Indices of the generators s with l(x s) < l(x)."""
    return [i for i, s in enumerate(pres.generators()) if pres.multiply(x, s).length < x.length]


def reduced_word(pres, x: GroupElement) -> tuple[list[str], GroupElement]:
    """Left-greedy reduced word: (names, omega) with product(names) * omega
    == x, each name the first generator that shortens what is left."""
    word: list[str] = []
    cur = x
    gens = pres.generators()
    while cur.length > 0:
        for i, s in enumerate(gens):
            if pres.multiply(s, cur).length < cur.length:
                word.append(pres.gen_names[i])
                cur = pres.multiply(s, cur)
                break
        else:
            raise CoxeterError("no descent found for positive-length element")
    return word, cur


# ---- torus actions ---------------------------------------------------------------


def inversion_on_gm() -> TorusAction:
    return TorusAction(
        rank=1,
        matrices=[[[1]], [[-1]]],
        names=["1", "inv"],
        group_label="Z/2",
    )


def trivial_on_torus(rank: int) -> TorusAction:
    return TorusAction(
        rank=rank,
        matrices=[mat_identity(rank)],
        names=["1"],
        group_label="1",
    )


def brute_force_component_count(action: TorusAction, gamma: int) -> dict:
    """Count torsion solutions directly on a finite grid and compare with
    what the normal form predicts.  Only for small rank and torsion."""
    fl = fixed_locus(action, gamma)
    k = lcm(*fl.invariant_factors) if fl.invariant_factors else 1
    if k ** action.rank > 50000 or action.rank > 3 or k > 12:
        raise ExtQuotError("grid too large for the brute force check")
    m = action.matrices[gamma]
    count = 0
    for q in itertools.product([Fraction(j, k) for j in range(k)], repeat=action.rank):
        img = _frac_vec(m, q)
        if all((x - y).denominator == 1 for x, y in zip(img, q)):
            count += 1
    expected = k ** fl.dim
    for f in fl.invariant_factors:
        expected *= f
    return {"order": k, "count": count, "expected": expected,
            "agrees": count == expected}


# ---- value-type readers ----------------------------------------------------------


def monomial(exp: int, coeff=1) -> LaurentPoly:
    """coeff v^exp."""
    return LaurentPoly({exp: coeff})


def barred(p: LaurentPoly) -> LaurentPoly:
    """p(v^-1)."""
    return LaurentPoly(bar(p.c))


def p_row(hb, zi: int) -> dict:
    """{y: p_{y,z}} over W' indices for z = wp[zi]: the orbit row the KL
    table holds for z, relabelled through its g, p_{g(y),z} = row[y]."""
    g = hb._pg[zi]
    return {g[yi]: q for yi, q in hb._p[zi].items()}


def p_poly(hb, y: GroupElement, z: GroupElement) -> LaurentPoly:
    """p_{y,z} for ball elements, Omega rule included."""
    if y.omega_index() != z.omega_index():
        return LaurentPoly()
    yi, _ = hb._wp_coset(y)
    zi, _ = hb._wp_coset(z)
    return LaurentPoly(p_row(hb, zi).get(yi, {}))


def mu(hb, y: GroupElement, z: GroupElement):
    """Coefficient of v^-1 in p_{y,z}."""
    return p_poly(hb, y, z).c.get(-1, 0)


# ---- Hecke elements by group element --------------------------------------------


def named(h: HeckeElement) -> dict[GroupElement, LaurentPoly]:
    """The terms of h keyed by group element."""
    return {h.ball.elements[w]: LaurentPoly(p) for w, p in h.terms.items()}


def hecke_element(hb, basis: str, terms: dict[GroupElement, LaurentPoly]) -> HeckeElement:
    """The element of hb's Hecke algebra with these terms; an element outside
    the ball raises BallOverflowError."""
    return HeckeElement(basis, {hb._idx(w): dict(p.c) for w, p in terms.items()}, hb.ball)


def h_sum(*hs: HeckeElement) -> HeckeElement:
    """The sum of elements in one basis, over one ball."""
    if len({h.basis for h in hs}) != 1:
        raise HeckeError("cannot add elements in different bases")
    out = {}
    for h in hs:
        for w, p in h.terms.items():
            acc_scaled(out.setdefault(w, {}), p, 1)
    return HeckeElement(hs[0].basis, out, hs[0].ball)


def h_scaled(h: HeckeElement, c: LaurentPoly) -> HeckeElement:
    """c h."""
    return HeckeElement(h.basis, {w: acc_mul({}, p, c.c) for w, p in h.terms.items()}, h.ball)


# ---- Hecke products --------------------------------------------------------------


def h_constants(hb, x: GroupElement, y: GroupElement) -> dict[GroupElement, LaurentPoly]:
    """c_x c_y = sum_z h_{x,y,z} c_z, recomputed through the T-basis; needs
    l(x) + l(y) <= radius."""
    if x.length + y.length > hb.radius:
        raise BallOverflowError("pair exceeds the exact-product budget")
    return named(hb.t_to_c(hb.mul_T(hb.kl_element(x), hb.kl_element(y))))


def stream_rows(hb) -> list[tuple[int, int]]:
    """The W' pairs (x, y) whose rows the product stream computes, in its
    order, by its rule: x the least W' index of its Omega-conjugacy orbit,
    conjugated through the presentation's own multiply, and y with l(y) <=
    min(l(x), R - l(x)).  Every other pair in the budget is one of these up
    to conjugation, or the inverse mirror (y^-1, x^-1) of one."""
    pres, wl, R = hb.pres, hb.wp_len, hb.radius
    first = {min(hb.wp_index[pres.multiply(pres.multiply(om, x), pres.inverse(om))]
                 for om in hb.omega_elems) for x in hb.wp}
    return [(x, y) for x in sorted(first) for y in range(len(hb.wp))
            if wl[y] <= min(wl[x], R - wl[x])]


def c_to_t(hb, a: HeckeElement) -> HeckeElement:
    """A canonical-basis element rewritten in the T-basis."""
    if a.basis != "c":
        raise HeckeError("c_to_t needs a c-basis operand")
    return h_sum(HeckeElement("T", {}, hb.ball),
                 *(h_scaled(hb.kl_element(w), p) for w, p in named(a).items()))


def h_to_distinguished(hb, x: GroupElement, d: GroupElement) -> dict[GroupElement, LaurentPoly]:
    """h_{x,d,.} for a distinguished involution d, keyed by group element;
    refuses what HeckeBall._h_dist_idx refuses."""
    elems = hb.ball.elements
    return {elems[z]: LaurentPoly(h) for z, h in hb._h_dist_idx(hb._idx(x), hb._idx(d)).items()}


# ---- the J layer -----------------------------------------------------------------


def cdag_coords(J, h: HeckeElement) -> HeckeElement:
    """Coordinates of h in the dagger basis: h = sum coords_x cdag_x."""
    return HeckeElement("cdag", J._cdag_idx(h), J.hb.ball)


def scaled_j(a: JElement, c) -> JElement:
    """c a, for a scalar or Laurent c."""
    return JElement({w: q * c for w, q in a.coeffs.items()}, a.ball)


# ---- graded classes ------------------------------------------------------------


def scaled_class(f: GradedClass, c) -> GradedClass:
    """c f, for a scalar c."""
    return GradedClass(f.grade, {w: q * c for w, q in f.coords.items()})


def grade_project(J, h, i, q):
    """Class of a Hecke element in grade i at the specialization v=sqrt(q).

    Demands that the dagger coordinates contain nothing of a-value below i
    (the filtration is by ideals, so lower terms would mean the input was
    not in the i-th filtration step); indices of larger a-value die in the
    quotient."""
    r = _sqrt_fraction(q)
    hb = J.hb
    out = {}
    for z, p in named(cdag_coords(J, h)).items():
        az, cert = hb.a_function(z)
        if not cert:
            raise UncertifiedError(f"a({z.key_str()}) is not certified")
        if az < i:
            raise HeckeError(f"element leaves the filtration step: a({z.key_str()}) = {az} < {i}")
        if az > i:
            continue
        val = p.evaluate(r)
        if val:
            out[hb._idx(z)] = val
    return GradedClass(i, out)


def hecke_grade_action(J, h, f, q, side="left"):
    """h acting on a graded class through multiplication in the Hecke
    algebra, then projection back to the grade."""
    hb = J.hb
    acc = HeckeElement("T", {}, hb.ball)
    for w, cw in f.coords.items():
        cd = hb.dagger(hb.kl_element(hb.ball.elements[w]))
        prod = hb.mul_T(h, cd) if side == "left" else hb.mul_T(cd, h)
        acc = h_sum(acc, h_scaled(prod, LaurentPoly.const(Fraction(cw))))
    return grade_project(J, acc, f.grade, q)


def check_hf_compat(J, h, f, q):
    """h f = phi_q(h) * f in the graded piece."""
    return hecke_grade_action(J, h, f, q, "left") == J.star_action(specialize(J.phi(h), q), f, "left")


def check_jfh_compat(J, j, f, h, q):
    """(j * f) h = j * (f h): the two actions commute."""
    lhs = hecke_grade_action(J, h, J.star_action(j, f, "left"), q, "right")
    rhs = J.star_action(j, hecke_grade_action(J, h, f, q, "right"), "left")
    return lhs == rhs


# ---- basis changes and products ------------------------------------------------


def cdag_to_t(hb, coords):
    """Expand dagger-basis coordinates into the T-basis."""
    return h_sum(HeckeElement("T", {}, hb.ball),
                 *(h_scaled(hb.dagger(hb.kl_element(x)), p) for x, p in named(coords).items()))


def t_product_by_words(hb, a, b):
    """a b in the T-basis: for each T_w in b, a times T_s one generator at a
    time along the presentation's reduced word of w, then times T_omega.
    Group arithmetic goes through the presentation; a product that leaves
    the ball raises BallOverflowError."""
    pres, xi = hb.pres, LaurentPoly(XI)
    out = {}
    for w, q in named(b).items():
        names, omega = reduced_word(pres, w)
        cur = named(a)
        for s in map(pres.generator, names):
            nxt = {}
            for u, p in cur.items():
                us = pres.multiply(u, s)
                if us not in hb.ball:
                    raise BallOverflowError("T-basis product left the ball")
                # T_u T_s = T_us, plus (v - v^-1) T_u when us < u
                acc_scaled(nxt, {us: p} if us.length > u.length else {us: p, u: p * xi}, 1)
            cur = nxt
        acc_scaled(out, {pres.multiply(u, omega): p * q for u, p in cur.items()}, 1)
    return hecke_element(hb, "T", out)


def j_mul_from_gamma(J, a, b):
    """a b in J, summed pair by pair from hb.gamma(x, y, z) over the
    certified z.  A pair certified at different a-values contributes zero
    (J_c J_c' = 0); any other pair must be certified, in the budget, and
    have a product whose support h_constants finds certified, or it raises
    as j_mul does."""
    hb, elems = J.hb, J.hb.ball.elements
    certified = [z for z in hb.ball if hb.a_function(z)[1]]
    out = JElement({}, hb.ball)
    for i, cx in a.coeffs.items():
        for j, cy in b.coeffs.items():
            x, y = elems[i], elems[j]
            (ax, cx_ok), (ay, cy_ok) = hb.a_function(x), hb.a_function(y)
            if cx_ok and cy_ok and ax != ay:
                continue
            if not (cx_ok and cy_ok):
                raise UncertifiedError("operands must have certified a-values")
            if x.length + y.length > hb.radius:
                raise BallOverflowError("pair exceeds the exact-product budget")
            if not all(hb.a_function(z)[1] for z in h_constants(hb, x, y)):
                raise UncertifiedError("product support touches uncertified elements")
            row = {hb._idx(z): cx * cy * g for z in certified if (g := hb.gamma(x, y, z))}
            out = out + JElement(row, hb.ball)
    return out
