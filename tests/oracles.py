"""Independent oracles for the J layer, kept beside the tests that use them.

The graded-module claims no scenario prints: the Hecke action on a graded
class, through multiplication and projection, against the star action.
`cdag_to_t` expands dagger coordinates through the public basis changes.
`t_product_by_words` multiplies one generator at a time through the
presentation's own group arithmetic, with no ball-index table, and
`j_mul_from_gamma` sums single gamma constants per pair, deciding its
refusals from recomputed structure constants rather than a taint flag.
"""

from fractions import Fraction

from heckequot.asymptotic import GradedClass, JElement, _sqrt_fraction
from heckequot.hecke import XI, BallOverflowError, HeckeElement, HeckeError, UncertifiedError
from heckequot.laurent import LaurentPoly

# ---- graded classes ------------------------------------------------------------


def grade_project(J, h, i, q):
    """Class of a Hecke element in grade i at the specialization v=sqrt(q).

    Demands that the dagger coordinates contain nothing of a-value below i
    (the filtration is by ideals, so lower terms would mean the input was
    not in the i-th filtration step); indices of larger a-value die in the
    quotient."""
    r = _sqrt_fraction(q)
    hb = J.hb
    out = {}
    for z, p in J.cdag_coords(h).terms.items():
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
    acc = HeckeElement("T", {})
    for w, cw in f.coords.items():
        cd = hb.dagger(hb.kl_element(hb.ball.elements[w]))
        prod = hb.mul_T(h, cd) if side == "left" else hb.mul_T(cd, h)
        acc = acc + prod.scaled(LaurentPoly.const(Fraction(cw)))
    return grade_project(J, acc, f.grade, q)


def check_hf_compat(J, h, f, q):
    """h f = phi_q(h) * f in the graded piece."""
    return hecke_grade_action(J, h, f, q, "left") == J.star_action(J.phi_q(h, q), f, "left")


def check_jfh_compat(J, j, f, h, q):
    """(j * f) h = j * (f h): the two actions commute."""
    lhs = hecke_grade_action(J, h, J.star_action(j, f, "left"), q, "right")
    rhs = J.star_action(j, hecke_grade_action(J, h, f, q, "right"), "left")
    return lhs == rhs


# ---- basis changes and products ------------------------------------------------


def cdag_to_t(hb, coords):
    """Expand dagger-basis coordinates into the T-basis."""
    out = HeckeElement("T", {})
    for x, p in coords.terms.items():
        out = out + hb.dagger(hb.kl_element(x)).scaled(p)
    return out


def t_product_by_words(hb, a, b):
    """a b in the T-basis: for each T_w in b, a times T_s one generator at a
    time along the presentation's reduced word of w, then times T_omega.
    Group arithmetic goes through the presentation; a product that leaves
    the ball raises BallOverflowError."""
    pres, xi = hb.pres, LaurentPoly(XI)
    out = HeckeElement("T", {})
    for w, q in b.terms.items():
        names, omega = pres.reduced_word(w)
        cur = dict(a.terms)
        for s in map(pres.generator, names):
            nxt = HeckeElement("T", {})
            for u, p in cur.items():
                us = pres.multiply(u, s)
                if us not in hb.ball:
                    raise BallOverflowError("T-basis product left the ball")
                # T_u T_s = T_us, plus (v - v^-1) T_u when us < u
                step = {us: p} if us.length > u.length else {us: p, u: p * xi}
                nxt = nxt + HeckeElement("T", step)
            cur = nxt.terms
        out = out + HeckeElement("T", {pres.multiply(u, omega): p * q for u, p in cur.items()})
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
            if not all(hb.a_function(z)[1] for z in hb.h_constants(x, y)):
                raise UncertifiedError("product support touches uncertified elements")
            row = {hb._idx(z): cx * cy * g for z in certified if (g := hb.gamma(x, y, z))}
            out = out + JElement(row, hb.ball)
    return out
