"""Independent references, kept beside the tests that use them.

The program in src/ holds only what a scenario, the benchmark or the README
reaches; what the tests compare it against lives here.

* Group presentations: the finite Weyl groups of type A(n) and B2, an
  element from its coordinates (normalized, with range checks), right
  descents and the left-greedy reduced word, all through the
  presentation's own `multiply` and `length`, with no ball table.
* Torus actions: inversion on the rank-one torus, the trivial action,
  S_n on the sum-zero sublattice by mapping each basis vector through a
  permutation matrix and reading back partial sums (the program writes
  the entries in closed form), a brute-force count of a torsion class's
  fixed components on a grid, and the Fraction route to the
  centralizer's orbits on them: each component a point V y mod 1, mapped
  through every element and its signature read back through V^-1, and
  the shape of a line by comparing kernel vectors.
  The program runs the same orbits on int signatures.
* Rational linear algebra: Gauss-Jordan elimination over `Fraction`s,
  every pivot scaled to 1, and the rank it gives; the program's
  eliminator is fraction-free and is checked against it.
* Crossed-product samplers: `random_poly` and `random_crossed`, the raw
  dicts the hom checks once drew and then packed; the program draws the
  same numbers straight into packed pairs and is checked against them.
* Value-type readers the program does not need: `monomial` (c v^e as a
  LaurentPoly), `barred` (v -> v^-1 on a LaurentPoly, through the
  program's raw `bar`), `p_row` (the KL row of one z, relabelled from the
  orbit row the table holds), `cache_lines` (the cache text line by line,
  its words from `reduced_word`; the program writes it in chunks, one per
  orbit row), `p_poly` and `mu` (a KL polynomial and its v^-1
  coefficient, by group element), and `scaled_j` and `scaled_class` (a J
  element or a graded class times a scalar).
* Hecke elements by group element: the program keys them by ball index
  with raw polynomial values; `named` reads one as {GroupElement:
  LaurentPoly}, `hecke_element` builds one from such a dict, and `h_sum`
  and `h_scaled` add and scale them.
* Hecke products: `h_constants` recomputes c_x c_y through the T-basis
  product and `t_to_c`, `stream_rows` lists the pairs the product stream
  computes, by its rule, `c_to_t` expands canonical coordinates, and
  `h_to_distinguished` reads the streamed rows against a distinguished
  involution with group-element keys.
* The J layer: the dagger coordinates of a Hecke element (`cdag_idx`),
  phi summed through them afresh per call (`phi_by_cdag_coords`, the
  route the program's memoized images of T_w replace), and the
  graded-module claims no scenario prints: the Hecke action on a graded
  class, through multiplication and projection, against the star action.
  `cdag_to_t` expands dagger coordinates through `kl_element` and
  `dagger_by_words`.  `t_product_by_words` multiplies one generator at a
  time through the presentation's own group arithmetic, with no ball-index
  table; `dagger_by_words` multiplies -T_s + (v - v^-1) out along reduced
  words through it, with no KL table; and
  `j_mul_from_gamma` sums single gamma constants per pair, deciding its
  refusals from recomputed structure constants rather than a taint flag.
"""

import itertools
import random
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
    mat_vec,
    perm_matrix,
)
from heckequot.crossprod import CROSSED_BOUND, CrossedElement
from heckequot.extquot import (
    LINE,
    LINE_INV,
    ExtQuotError,
    TorusAction,
    fixed_locus,
    smith_normal_form,
)
from heckequot.hecke import (
    CACHE_SCHEMA,
    XI,
    BallOverflowError,
    HeckeElement,
    HeckeError,
    UncertifiedError,
)
from heckequot.laurent import LaurentPoly, acc_apply, acc_mul, acc_scaled, bar

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


def sl_restriction(n: int) -> tuple[list[list[list[int]]], list[list[int]]]:
    """S_n on the sum-zero sublattice of Z^n in the basis v_i = e_i -
    e_{i+1}, one matrix per permutation in sorted order, and the basis as
    the columns of the embedding into Z^n.  Each v_j goes through the
    permutation matrix, and its image is read back as partial sums,
    refused if it leaves the sublattice."""
    basis = []
    for i in range(n - 1):
        col = [0] * n
        col[i] = 1
        col[i + 1] = -1
        basis.append(col)
    embed = [[basis[j][i] for j in range(n - 1)] for i in range(n)]

    def restrict(p: tuple[int, ...]) -> list[list[int]]:
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

    return [restrict(p) for p in sorted(itertools.permutations(range(n)))], embed


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
        img = frac_vec(m, q)
        if all((x - y).denominator == 1 for x, y in zip(img, q)):
            count += 1
    expected = k ** fl.dim
    for f in fl.invariant_factors:
        expected *= f
    return {"order": k, "count": count, "expected": expected,
            "agrees": count == expected}


def frac_vec(m, q: tuple[Fraction, ...]) -> list[Fraction]:
    """The int matrix m applied to the Fraction vector q."""
    return [sum((c * x for c, x in zip(row, q) if c), Fraction(0)) for row in m]


def mod1(xs) -> tuple[Fraction, ...]:
    """Each Fraction reduced into [0, 1)."""
    return tuple(x - (x.numerator // x.denominator) for x in xs)


def fraction_component_orbits(action: TorusAction, gamma: int, cent: list[int]) -> list[tuple]:
    """The centralizer elements cent on the components of gamma's fixed
    locus, through Fraction points: (orbit, stabilizer, shape) per orbit,
    the orbit as sorted component indices in signature order, and the
    shape LINE or LINE_INV on a one-dimensional locus (None otherwise),
    by comparing each stabilizer's image of the kernel vector with it and
    its negative."""
    m = action.matrices[gamma]
    r = action.rank
    _, d, v, v_inv = smith_normal_form([[m[i][j] - (i == j) for j in range(r)] for i in range(r)])
    diag = [d[i][i] for i in range(r)]
    tors = [i for i, x in enumerate(diag) if x > 1]
    factors = [diag[i] for i in tors]
    signatures = list(itertools.product(*[range(f) for f in factors]))
    components = []
    for sig in signatures:
        y = [Fraction(0)] * r
        for pos, j, f in zip(tors, sig, factors):
            y[pos] = Fraction(j, f)
        components.append(mod1(frac_vec(v, y)))

    def signature_of(q):
        y = frac_vec(v_inv, q)
        sig = []
        for pos, f in zip(tors, factors):
            val = y[pos] * f
            if val.denominator != 1:
                raise ExtQuotError("point does not lie on the fixed locus")
            sig.append(int(val) % f)
        return tuple(sig)

    index = {s: i for i, s in enumerate(signatures)}
    perms = {g: [index[signature_of(mod1(frac_vec(action.matrices[g], q)))] for q in components]
             for g in cent}
    kernel = [tuple(v[i][j] for i in range(r)) for j in range(r) if diag[j] == 0]
    out, seen = [], set()
    for start in range(len(components)):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for g in cent:
                if perms[g][x] not in orbit:
                    orbit.add(perms[g][x])
                    frontier.append(perms[g][x])
        seen |= orbit
        stab = [g for g in cent if perms[g][start] == start]
        shape = None
        if len(kernel) == 1:
            k = kernel[0]
            images = {tuple(sum(c * x for c, x in zip(row, k)) for row in action.matrices[g])
                      for g in stab}
            if not images <= {k, tuple(-x for x in k)}:
                raise ExtQuotError("stabilizer does not normalize the kernel line")
            shape = LINE_INV if tuple(-x for x in k) in images else LINE
        out.append((sorted(orbit), stab, shape))
    return out


# ---- rational linear algebra -----------------------------------------------------


def fraction_row_reduce(rows, ncols: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
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


def fraction_rank(rows) -> int:
    return len(fraction_row_reduce(rows)[1])


# ---- crossed-product samplers -----------------------------------------------------


def random_poly(rng: random.Random, max_deg: int, bound: int, density: float) -> dict[int, int]:
    """Integer coefficients in [-bound, bound]: one rng.random() per
    exponent in [-max_deg, max_deg], then one rng.randint() per kept one."""
    c = {e: rng.randint(-bound, bound)
         for e in range(-max_deg, max_deg + 1) if rng.random() < density}
    return {e: a for e, a in c.items() if a}


def random_crossed(rng: random.Random, max_deg: int) -> CrossedElement:
    return CrossedElement(random_poly(rng, max_deg, CROSSED_BOUND, 0.4),
                          random_poly(rng, max_deg, CROSSED_BOUND, 0.4))


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


def cache_lines(hb):
    """The ball's cache text, one line at a time without its newline, as the
    program once yielded it: the header, one E line per W' element with its
    left-greedy reduced word from reduced_word, then one P line per nonzero
    p_{y,z} of each orbit's row, z its least W' index, y in order."""
    names, p, ident = hb.pres.gen_names, hb._p, hb._syms[0]
    yield f"# {CACHE_SCHEMA} family={hb.pres.family} radius={hb.radius} elements={len(hb.wp)}"
    for i, x in enumerate(hb.wp):
        word, omega = reduced_word(hb.pres, x)
        yield (f"E {i} word={'.'.join(word) or 'e'} omega=w{hb.omega_elems.index(omega)} "
               f"len={x.length} trans=({','.join(map(str, x.trans))}) fin=f{x.fin}")
    for zi, g in enumerate(hb._pg):
        if g is ident:
            for yi in sorted(p[zi]):
                yield f"P {yi} {zi} {LaurentPoly(p[zi][yi]).to_str()}"


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
    refuses what HeckeBall._h_xd_idx refuses."""
    elems = hb.ball.elements
    return {elems[z]: LaurentPoly(h) for z, h in hb._h_xd_idx(hb._idx(x), hb._idx(d)).items()}


# ---- the J layer -----------------------------------------------------------------


def cdag_idx(hb, h: HeckeElement) -> dict:
    """Dagger-basis coordinates of h on ball indices: h = sum coords_x
    cdag_x, read off HeckeBall._cdag_coords for T-basis input."""
    if h.basis == "cdag":
        return h.terms
    if h.basis == "T":
        return hb._cdag_coords(h.terms)
    raise HeckeError(f"cannot read {h.basis}-basis input as dagger coordinates")


def cdag_coords(J, h: HeckeElement) -> HeckeElement:
    """Coordinates of h in the dagger basis: h = sum coords_x cdag_x."""
    return HeckeElement("cdag", cdag_idx(J.hb, h), J.hb.ball)


def phi_by_cdag_coords(J, h: HeckeElement) -> JElement:
    """phi through the dagger coordinates of h, computed afresh per call:
    sum_x coords_x phi(cdag_x), meeting phi(cdag_x) in descending ball
    index for a T-basis h, so it raises where the first of them does."""
    out = acc_apply({}, J._phi_of_cdagger, cdag_idx(J.hb, h))
    return JElement({z: LaurentPoly(q) for z, q in out.items() if q}, J.hb.ball)


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
        cd = dagger_by_words(hb, hb.kl_element(hb.ball.elements[w]))
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
    """Expand dagger-basis coordinates into the T-basis: dagger of sum_x
    coords_x c_x, through dagger_by_words."""
    return dagger_by_words(hb, h_sum(HeckeElement("T", {}, hb.ball),
                                     *(h_scaled(hb.kl_element(x), p) for x, p in named(coords).items())))


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


def dagger_by_words(hb, h, prefixes=None):
    """dagger(h) with no KL table: for each T_w in h, the product of -T_s + (v
    - v^-1) over the presentation's reduced word of w, then times T_omega,
    every product through t_product_by_words.  prefixes, a dict shared by
    calls on one ball, keeps the product over each word prefix."""
    pres, one = hb.pres, LaurentPoly.one()
    e, prefixes = pres.identity(), {} if prefixes is None else prefixes
    out = HeckeElement("T", {}, hb.ball)
    for w, q in named(h).items():
        names, omega = reduced_word(pres, w)
        cur = hecke_element(hb, "T", {e: one})
        for k, s in enumerate(names):
            key = tuple(names[:k + 1])
            if key not in prefixes:
                step = hecke_element(hb, "T", {pres.generator(s): -one, e: LaurentPoly(XI)})
                prefixes[key] = t_product_by_words(hb, cur, step)
            cur = prefixes[key]
        out = h_sum(out, h_scaled(t_product_by_words(hb, cur, hecke_element(hb, "T", {omega: one})), q))
    return out


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
