"""The asymptotic ring of a ball: integer structure constants, the
specialization maps from the Hecke algebra, and the cell modules.

The ring J has basis {t_w} over the ball, with t_x t_y supported on the
two-sided cell shared by x and y; the structure constant on t_z is the
leading (degree a(z)) coefficient of h_{x,y,z}.  The unit is the sum of
t_d over distinguished involutions, weighted by the signs n_d.

The map phi sends the dagger twist of a canonical basis element into J
with Laurent coefficients:

    phi(cdag_x) = sum over d distinguished, a(z) = a(d) of
                  h_{x,d,z} nhat_z t_z

and is an algebra homomorphism.  It is A-linear: on the T-basis it sums
h_w phi(T_w) over images memoized once per w, each with the dagger
coordinates of T_w at the x whose phi(cdag_x) the ball cannot decide
kept beside it; where those do not cancel, phi raises at the largest such
x.  Its images do not depend on q: phi is computed once with Laurent
coefficients, and `specialize` sends v to a rational square root of q:
phi_q = specialize(phi(.), q) maps into J with rational coefficients,
each integral one an int.  Cell modules carry the star action

    t_x * [w] = sum over z with a(z) = a(w) of
                gamma(x, w, z) nhat_w nhat_z [z]

for which the sum f_i of all distinguished basis vectors at a-value i
acts as a projector-like base point: t_x * f_{a(x)} = nhat_x [x].

Elements of J, graded classes and the Hecke elements phi reads are keyed
by ball index, and every product runs on those indices.  Group elements
appear only where a public method takes one (basis_element, the checks) or
reports one (the basis and witnesses of cell_ideal, failures), and in
JElement's support() and repr.

All products go through the certified gamma tables and raise
UncertifiedError or BallOverflowError rather than return wrong answers,
with one rule on top: a is constant on two-sided cells and J_c J_c' = 0
for distinct cells (Lusztig, Cells in affine Weyl groups II, 1987), so
j_mul gives t_x t_y = 0 when a(x) != a(y) are both certified, even where
the ball cannot certify the product's support.  The checks run their
cases through `decide`, which counts a case that raises UncertifiedError
or BallOverflowError as skipped, never as passed, and lets any other
error stop the run.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .coxeter import Ball, GroupElement
from .hecke import (
    XI,
    BallOverflowError,
    CellRecord,
    HeckeBall,
    HeckeElement,
    HeckeError,
    RawPoly,
    UncertifiedError,
)
from .laurent import LaurentPoly, acc_apply, acc_mul, acc_scaled, evaluate

# The truncated ball cannot decide a case that raises one of these.
UNDECIDED = (UncertifiedError, BallOverflowError)


def decide(cases, check) -> tuple[int, int, list]:
    """Run check on each case in order; (checked, skipped, failures).

    A case that raises one of UNDECIDED is skipped, a case whose check
    returns something false is a failure; any other exception propagates."""
    checked = skipped = 0
    failures = []
    for case in cases:
        try:
            ok = check(case)
        except UNDECIDED:
            skipped += 1
            continue
        checked += 1
        if not ok:
            failures.append(case)
    return checked, skipped, failures


@dataclass
class JElement:
    """Finitely supported combination of t_w, keyed by ball index;
    coefficients may be ints, Fractions, or Laurent polynomials depending
    on the context.  ball names the elements, in support() and repr."""

    coeffs: dict[int, object]
    ball: Ball | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.coeffs = {w: c for w, c in self.coeffs.items() if c}

    @classmethod
    def _of(cls, coeffs: dict[int, object], ball: Ball) -> "JElement":
        """JElement(coeffs, ball) for coeffs with no zero value, which the
        caller hands over: neither filtered nor copied."""
        out = object.__new__(cls)
        out.coeffs, out.ball = coeffs, ball
        return out

    def __add__(self, other: "JElement") -> "JElement":
        return JElement(acc_scaled(dict(self.coeffs), other.coeffs, 1), self.ball or other.ball)

    def __sub__(self, other: "JElement") -> "JElement":
        return self + JElement({w: -q for w, q in other.coeffs.items()}, other.ball)

    def support(self) -> list[GroupElement]:
        # ball indices follow the key order
        return [self.ball.elements[w] for w in sorted(self.coeffs)]

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{self.ball.elements[w].key_str()}: {c}" for w, c in sorted(self.coeffs.items())
        )
        return f"JElement{{{inner}}}"


def specialize(a: JElement, q) -> JElement:
    """Laurent coefficients evaluated at v = sqrt(q); q must be the square
    of a rational.  An integral value is stored as an int (every value at
    q = 1 is one), so products of specialized elements run on ints."""
    r = _sqrt_fraction(q)
    vals = {w: evaluate(p.c, r) for w, p in a.coeffs.items()}
    return JElement({w: c.numerator if c.denominator == 1 else c for w, c in vals.items()}, a.ball)


@functools.cache
def _sqrt_fraction(q) -> Fraction:
    """Exact square root of a rational, or raise; taken once per distinct q
    (a refusal is not stored, so it raises again)."""
    q = Fraction(q)
    if q <= 0:
        raise HeckeError("specialization needs q > 0")
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        raise HeckeError(
            f"q = {q} is not the square of a rational; the specialization "
            "v -> sqrt(q) would leave exact arithmetic"
        )
    return Fraction(num, den)


@dataclass
class GradedClass:
    """Class of a vector in the graded piece of the a-filtration.

    grade i holds classes of dagger-basis elements cdag_w with a(w) = i;
    anything of strictly larger a-value is zero in the quotient.  The
    coords map the ball index of w -> scalar with every w at the stated
    grade."""

    grade: int
    coords: dict[int, object]

    def __post_init__(self):
        self.coords = {w: c for w, c in self.coords.items() if c}


class JRing:
    """Asymptotic ring attached to a HeckeBall."""

    def __init__(self, hb: HeckeBall):
        hb._ensure_gamma()  # one product stream gives the a-values and gamma
        self.hb = hb
        self._phi: dict[int, dict[int, RawPoly]] = {}
        self._phi_T: dict[int, tuple[dict[int, RawPoly], dict[int, RawPoly]]] = {}
        self._acert: list[int | None] | None = None  # certified a(ball[i]), or None

    def basis_element(self, w: GroupElement, coeff=1) -> JElement:
        return JElement({self.hb._idx(w): coeff}, self.hb.ball)

    def unit(self) -> JElement:
        hb = self.hb
        return JElement({hb._idx(d): nd for d, nd in hb.distinguished_involutions()}, hb.ball)

    def is_unit_on(self, u: JElement, w: GroupElement) -> bool:
        """u t_w = t_w = t_w u."""
        tw = self.basis_element(w)
        return self.j_mul(u, tw) == tw and self.j_mul(tw, u) == tw

    def j_mul(self, a: JElement, b: JElement) -> JElement:
        """Product in J; zero for operands certified at different a-values,
        otherwise raises when any needed gamma row is uncertified or
        outside the pair budget."""
        hb = self.hb
        if self._acert is None:
            self._acert = [a if c else None for a, c in map(hb._a_idx, range(len(hb.ball)))]
        acert, gamma_row = self._acert, hb._gamma_row_idx
        out: dict[int, object] = {}
        for i, cx in a.coeffs.items():
            ai = acert[i]
            for j, cy in b.coeffs.items():
                aj = acert[j]
                # a is constant on two-sided cells, and J_c J_c' = 0
                if ai != aj and ai is not None and aj is not None:
                    continue
                c = cx * cy  # nonzero, as is every c * g: no zero enters out
                for z, g in gamma_row(i, j).items():
                    if z not in out:
                        out[z] = c * g
                    elif s := out[z] + c * g:
                        out[z] = s
                    else:
                        del out[z]
        return JElement._of(out, hb.ball)

    # ---------------- cell ideals -----------------------------------------
    def cell_ideal(self, cell: CellRecord) -> dict:
        """Basis and unit of the ideal spanned by one two-sided cell.

        Returns the basis {t_w : w in the certified part of the cell},
        the idempotent sum of distinguished involutions inside the cell,
        and verification results: closure of in-cell products and the
        unit law on every basis vector whose products stay certified.
        Pairs that the truncation cannot decide are counted as skipped,
        never as passes."""
        hb = self.hb
        elems, ln = hb.ball.elements, hb._len
        basis = sorted(map(hb._idx, cell.certified_elements))
        named = [elems[w] for w in basis]
        cset = set(map(hb._idx, cell.elements))
        unit = JElement({i: nd for d, nd in hb.distinguished_involutions()
                         if (i := hb._idx(d)) in cset}, hb.ball)
        pairs = [(x, y) for x in basis for y in basis if ln[x] + ln[y] <= hb.radius]

        def escapes(pair):
            return [(*pair, z) for z in hb._gamma_row_idx(*pair) if z not in cset]

        checked, skipped, bad = decide(pairs, lambda p: not escapes(p))
        unit_checked, unit_skipped, unit_failures = decide(
            named, lambda w: self.is_unit_on(unit, w))
        return {
            "basis": named,
            "unit": unit,
            "closed": not bad,
            "escapes": [tuple(elems[w] for w in e) for p in bad for e in escapes(p)],
            "checked_pairs": checked,
            "skipped_pairs": skipped,
            "unit_checked": unit_checked,
            "unit_skipped": unit_skipped,
            "unit_failures": unit_failures,
        }

    # ---------------- phi ---------------------------------------------------
    def _phi_of_cdagger(self, i: int) -> dict[int, RawPoly]:
        """phi(cdag_x) for x = ball[i], on ball indices, computed once per x."""
        if i in self._phi:
            return self._phi[i]
        hb = self.hb
        out: dict[int, RawPoly] = {}
        for d, _nd in hb.distinguished_involutions():
            di = hb._idx(d)
            ad = hb._a_idx(di)[0]
            for z, h in hb._h_xd_idx(i, di).items():
                if hb._a_idx(z)[0] == ad:
                    acc_scaled(out.setdefault(z, {}), h, hb._nhat_idx(z))
        self._phi[i] = {z: p for z, p in out.items() if p}
        return self._phi[i]

    def _phi_of_T(self, i: int) -> tuple[dict[int, RawPoly], dict[int, RawPoly]]:
        """(phi(T_w), refused) for w = ball[i], computed once per w: with
        r = HeckeBall._cdagger_T(i), phi(T_w) sums r_x phi(cdag_x) over the
        x the ball decides, and refused maps every other x to r_x."""
        memo = self._phi_T.get(i)
        if memo is None:
            img, refused = {}, {}
            for x, r in self.hb._cdagger_T(i).items():
                try:
                    col = self._phi_of_cdagger(x)
                except UNDECIDED:
                    refused[x] = r
                    continue
                for z, p in col.items():
                    acc_mul(img.setdefault(z, {}), p, r)
            memo = self._phi_T[i] = ({z: p for z, p in img.items() if p}, refused)
        return memo

    def phi(self, h: HeckeElement) -> JElement:
        """phi with Laurent coefficients; accepts T- or dagger-basis input.
        A T-basis h sums h_w phi(T_w); where the refused coordinates do not
        cancel, it raises what phi(cdag_x) raises at the largest such x, the
        first its dagger coordinates meet in descending ball index."""
        if h.basis == "cdag":
            out = acc_apply({}, self._phi_of_cdagger, h.terms)
        elif h.basis == "T":
            col = self._phi_of_T
            refused = acc_apply({}, lambda w: col(w)[1], h.terms)
            if live := [x for x, r in refused.items() if r]:
                self._phi_of_cdagger(max(live))  # a refusal is not memoized: it raises again
            out = acc_apply({}, lambda w: col(w)[0], h.terms)
        else:
            raise HeckeError(f"phi needs a T- or cdag-basis operand, not {h.basis}")
        return JElement._of({z: LaurentPoly._raw(q) for z, q in out.items() if q}, self.hb.ball)

    # ---------------- cell modules -----------------------------------------
    def star_action(self, a: JElement, f: GradedClass, side: str = "left") -> GradedClass:
        """The J-bimodule action of a on a graded class.

        Left:  t_x * [cdag_w] = sum over a(z)=a(w) of
               gamma(x, w, z) nhat_w nhat_z [cdag_z];
        right uses gamma(w, x, z)."""
        hb = self.hb
        if side not in ("left", "right"):
            raise HeckeError("side must be 'left' or 'right'")
        out: dict[int, object] = {}
        for w, cw in f.coords.items():
            if hb._a_idx(w)[0] != f.grade:
                raise HeckeError("grade mismatch in star operand")
            nw = hb._nhat_idx(w)
            for x, cx in a.coeffs.items():
                row = hb._gamma_row_idx(x, w) if side == "left" else hb._gamma_row_idx(w, x)
                acc_scaled(out, {z: cw * cx * g * nw * hb._nhat_idx(z) for z, g in row.items()
                                 if hb._a_idx(z)[0] == f.grade}, 1)
        return GradedClass(f.grade, out)

    def base_point(self, i: int) -> GradedClass:
        """f_i: the sum of [cdag_d] over distinguished involutions at grade i."""
        hb = self.hb
        return GradedClass(
            i,
            {hb._idx(d): 1 for d, _ in hb.distinguished_involutions() if hb.a_function(d)[0] == i},
        )

    def base_point_check(self, x: GroupElement) -> bool:
        """t_x * f_{a(x)} = f_{a(x)} * t_x = nhat_x [cdag_x]."""
        hb = self.hb
        i = hb.a_function(x)[0]
        want = GradedClass(i, {hb._idx(x): hb.nhat(x)})
        f, tx = self.base_point(i), self.basis_element(x)
        return self.star_action(tx, f, "left") == want and self.star_action(tx, f, "right") == want

    # ---------------- center -----------------------------------------------
    def center_commutation_check(self, z_central: HeckeElement, qs=(1,)) -> list[dict]:
        """Verify the image of a central element is central in J; one
        result per q in qs.

        First verifies the precondition by commuting z_central with every
        generator and length-zero element inside the ball; a failure is
        reported with its witness and the main check does not run.  Then
        phi(z_central), computed once and specialized at each q, is
        commuted against t_x for every certified x whose products the
        truncation can decide; undecidable x are counted as skipped."""
        hb = self.hb
        witness = None
        for t in hb.gens + [om for om in hb.omega_elems if not om.is_identity()]:
            g = HeckeElement("T", {hb._idx(t): {0: 1}}, hb.ball)
            try:
                commutes = hb.mul_T(z_central, g) == hb.mul_T(g, z_central)
            except BallOverflowError:
                witness = "ball too small to verify the centrality precondition"
                break
            if not commutes:
                witness = f"does not commute with T_[{t.key_str()}]"
                break
        if witness:
            return [{"central": False, "witness": witness, "commuted": 0, "skipped": 0,
                     "failures": []} for _ in qs]
        img = self.phi(z_central)
        certified = [i for i in range(len(hb.ball)) if hb._a_idx(i)[1]]
        out = []
        for q in qs:
            zq = specialize(img, q)

            def commutes(i):
                tx = JElement({i: 1}, hb.ball)
                return self.j_mul(zq, tx) == self.j_mul(tx, zq)

            commuted, skipped, failures = decide(certified, commutes)
            out.append({"central": True, "witness": None, "commuted": commuted,
                        "skipped": skipped, "failures": [hb.ball.elements[i] for i in failures]})
        return out


def bernstein_central_dihedral(hb: HeckeBall) -> HeckeElement:
    """A central element of the rank-one affine Hecke algebra: the sum of
    the two unit translations in the T-basis, corrected by lower terms.

    With s1 the reflection fixing 0 and s2 = t_1 s1, the translations are
    t_1 = s2 s1 and t_{-1} = s1 s2, and

        Z = T_{t_1} + T_{t_-1} - (v - v^-1)(T_{s1} + T_{s2}) + (v - v^-1)^2

    commutes with both generators."""
    pres = hb.pres
    if pres.family != "InfiniteDihedral":
        raise HeckeError("this central element is specific to the rank-one case")
    s1 = pres.generator("s1")
    s2 = pres.generator("s2")
    t_plus = pres.multiply(s2, s1)
    t_minus = pres.multiply(s1, s2)
    minus_xi = {e: -c for e, c in XI.items()}
    terms = {t_plus: {0: 1}, t_minus: {0: 1}, s1: minus_xi, s2: minus_xi,
             pres.identity(): acc_mul({}, XI, XI)}
    return HeckeElement("T", {hb._idx(w): p for w, p in terms.items()}, hb.ball)
