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

and is an algebra homomorphism.  Its images do not depend on q: phi is
computed once with Laurent coefficients, and `specialize` sends v to a
rational square root of q, which gives phi_q into J with rational
coefficients.  Cell modules carry the star action

    t_x * [w] = sum over z with a(z) = a(w) of
                gamma(x, w, z) nhat_w nhat_z [z]

for which the sum f_i of all distinguished basis vectors at a-value i
acts as a projector-like base point: t_x * f_{a(x)} = nhat_x [x].

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

import math
from dataclasses import dataclass
from fractions import Fraction

from .coxeter import GroupElement
from .hecke import (
    BallOverflowError,
    CellRecord,
    HeckeBall,
    HeckeElement,
    HeckeError,
    RawPoly,
    UncertifiedError,
)
from .laurent import LaurentPoly, acc_mul, acc_scaled, sparse_add

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
    """Finitely supported combination of t_w; coefficients may be ints,
    Fractions, or Laurent polynomials depending on the context."""

    coeffs: dict[GroupElement, object]

    def __post_init__(self):
        self.coeffs = {w: c for w, c in self.coeffs.items() if c}

    def __add__(self, other: "JElement") -> "JElement":
        return JElement(sparse_add(dict(self.coeffs), other.coeffs))

    def __sub__(self, other: "JElement") -> "JElement":
        return self + other.scaled(-1)

    def scaled(self, c) -> "JElement":
        return JElement({w: q * c for w, q in self.coeffs.items()})

    def support(self) -> list[GroupElement]:
        return sorted(self.coeffs, key=GroupElement.key)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{w.key_str()}: {c}" for w, c in sorted(self.coeffs.items(), key=lambda kv: kv[0].key())
        )
        return f"JElement{{{inner}}}"


def specialize(a: JElement, q) -> JElement:
    """Laurent coefficients evaluated at v = sqrt(q); q must be the square
    of a rational."""
    r = _sqrt_fraction(q)
    return JElement({w: p.evaluate(r) for w, p in a.coeffs.items()})


def _sqrt_fraction(q) -> Fraction:
    """Exact square root of a rational, or raise."""
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
    coords map w -> scalar with every w at the stated grade."""

    grade: int
    coords: dict[GroupElement, object]

    def __post_init__(self):
        self.coords = {w: c for w, c in self.coords.items() if c}

    def scaled(self, c) -> "GradedClass":
        return GradedClass(self.grade, {w: q * c for w, q in self.coords.items()})


class JRing:
    """Asymptotic ring attached to a HeckeBall."""

    def __init__(self, hb: HeckeBall):
        self.hb = hb
        self._phi: dict[int, dict[int, RawPoly]] = {}

    def basis_element(self, w: GroupElement, coeff=1) -> JElement:
        return JElement({w: coeff})

    def unit(self) -> JElement:
        return JElement({d: nd for d, nd in self.hb.distinguished_involutions()})

    def is_unit_on(self, u: JElement, w: GroupElement) -> bool:
        """u t_w = t_w = t_w u."""
        tw = self.basis_element(w)
        return self.j_mul(u, tw) == tw and self.j_mul(tw, u) == tw

    def j_mul(self, a: JElement, b: JElement) -> JElement:
        """Product in J; zero for operands certified at different a-values,
        otherwise raises when any needed gamma row is uncertified or
        outside the pair budget."""
        hb = self.hb
        ys = [(hb._idx(y), cy) for y, cy in b.coeffs.items()]
        ys = [(j, hb._certified_a(j), cy) for j, cy in ys]
        out: dict[int, object] = {}
        for x, cx in a.coeffs.items():
            i = hb._idx(x)
            ai = hb._certified_a(i)
            for j, aj, cy in ys:
                # a is constant on two-sided cells, and J_c J_c' = 0
                if ai is not None and aj is not None and ai != aj:
                    continue
                sparse_add(out, {z: cx * cy * g for z, g in hb._gamma_row_idx(i, j).items()})
        elems = hb.ball.elements
        return JElement({elems[z]: c for z, c in out.items()})

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
        basis = sorted(cell.certified_elements, key=GroupElement.key)
        cset = set(cell.elements)
        dist = [
            (d, nd)
            for d, nd in hb.distinguished_involutions()
            if d in cset
        ]
        unit = JElement(dict(dist))
        pairs = [(x, y) for x in basis for y in basis if x.length + y.length <= hb.radius]

        def escapes(pair):
            return [(*pair, z) for z in hb.gamma_row(*pair) if z not in cset]

        checked, skipped, bad = decide(pairs, lambda p: not escapes(p))
        unit_checked, unit_skipped, unit_failures = decide(
            basis, lambda w: self.is_unit_on(unit, w))
        return {
            "basis": basis,
            "unit": unit,
            "closed": not bad,
            "escapes": [e for p in bad for e in escapes(p)],
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
        x = hb.ball.elements[i]
        out: dict[int, RawPoly] = {}
        for d, _nd in hb.distinguished_involutions():
            if x.length + d.length > hb.radius:
                raise BallOverflowError(
                    "phi needs the full row of products against distinguished involutions"
                )
            ad = hb.a_function(d)[0]
            for z, h in hb.h_to_distinguished(x, d).items():
                if hb.a_function(z)[0] == ad:
                    acc_scaled(out.setdefault(hb._idx(z), {}), h.c, hb.nhat(z))
        self._phi[i] = {z: p for z, p in out.items() if p}
        return self._phi[i]

    def _cdag_idx(self, h: HeckeElement) -> dict[int, RawPoly]:
        """Dagger-basis coordinates of h on ball indices."""
        hb = self.hb
        if h.basis == "cdag":
            return hb._to_idx(h)
        if h.basis == "T":
            # dagger and t_to_c are A-linear: sum h_w t_to_c(dagger(T_w)), keyed
            # in descending index as _t_to_c_idx keys t_to_c(dagger(h))
            out: dict[int, RawPoly] = {}
            for w, p in hb._to_idx(h).items():
                for x, q in hb._cdagger_T(w).items():
                    acc_mul(out.setdefault(x, {}), q, p)
            return {x: out[x] for x in sorted(out, reverse=True) if out[x]}
        raise HeckeError(f"cannot read {h.basis}-basis input as dagger coordinates")

    def cdag_coords(self, h: HeckeElement) -> HeckeElement:
        """Coordinates of h in the dagger basis: h = sum coords_x cdag_x.

        The dagger map is an A-linear algebra involution, so the
        coordinates are obtained by expressing dagger(h) in the c-basis."""
        return self.hb._from_idx("cdag", self._cdag_idx(h))

    def cdag_to_t(self, coords: HeckeElement) -> HeckeElement:
        """Expand dagger-basis coordinates into the T-basis."""
        hb = self.hb
        out = HeckeElement("T", {})
        for x, p in coords.terms.items():
            out = out + hb.dagger(hb.kl_element(x)).scaled(p)
        return out

    def phi(self, h: HeckeElement) -> JElement:
        """phi with Laurent coefficients; accepts T- or dagger-basis input."""
        out: dict[int, RawPoly] = {}
        for x, p in self._cdag_idx(h).items():
            for z, q in self._phi_of_cdagger(x).items():
                acc_mul(out.setdefault(z, {}), q, p)
        elems = self.hb.ball.elements
        return JElement({elems[z]: LaurentPoly._raw(q) for z, q in out.items() if q})

    def phi_q(self, h: HeckeElement, q) -> JElement:
        """phi followed by v -> sqrt(q); q must be a square of a rational."""
        return specialize(self.phi(h), q)

    # ---------------- cell modules -----------------------------------------
    def star_action(self, a, f: GradedClass, side: str = "left") -> GradedClass:
        """The J-bimodule action on a graded class.

        Left:  t_x * [cdag_w] = sum over a(z)=a(w) of
               gamma(x, w, z) nhat_w nhat_z [cdag_z];
        right uses gamma(w, x, z).  a may be a JElement or a single
        group element."""
        hb = self.hb
        if isinstance(a, GroupElement):
            a = self.basis_element(a)
        if side not in ("left", "right"):
            raise HeckeError("side must be 'left' or 'right'")
        out: dict[GroupElement, object] = {}
        for w, cw in f.coords.items():
            if hb.a_function(w)[0] != f.grade:
                raise HeckeError("grade mismatch in star operand")
            nw = hb.nhat(w)
            for x, cx in a.coeffs.items():
                row = hb.gamma_row(x, w) if side == "left" else hb.gamma_row(w, x)
                sparse_add(out, {z: cw * cx * g * nw * hb.nhat(z) for z, g in row.items()
                                 if hb.a_function(z)[0] == f.grade})
        return GradedClass(f.grade, out)

    def base_point(self, i: int) -> GradedClass:
        """f_i: the sum of [cdag_d] over distinguished involutions at grade i."""
        hb = self.hb
        return GradedClass(
            i,
            {d: 1 for d, _ in hb.distinguished_involutions() if hb.a_function(d)[0] == i},
        )

    def base_point_check(self, x: GroupElement) -> bool:
        """t_x * f_{a(x)} = f_{a(x)} * t_x = nhat_x [cdag_x]."""
        hb = self.hb
        i = hb.a_function(x)[0]
        want = GradedClass(i, {x: hb.nhat(x)})
        f = self.base_point(i)
        return (
            self.star_action(x, f, "left") == want
            and self.star_action(x, f, "right") == want
        )

    def grade_project(self, h: HeckeElement, i: int, q) -> GradedClass:
        """Class of a Hecke element in grade i at the specialization v=sqrt(q).

        Demands that the dagger coordinates contain nothing of a-value
        below i (the filtration is by ideals, so lower terms would mean
        the input was not in the i-th filtration step); indices of larger
        a-value die in the quotient."""
        r = _sqrt_fraction(q)
        hb = self.hb
        out: dict[GroupElement, object] = {}
        for z, p in self.cdag_coords(h).terms.items():
            az, cert = hb.a_function(z)
            if not cert:
                raise UncertifiedError(f"a({z.key_str()}) is not certified")
            if az < i:
                raise HeckeError(
                    f"element leaves the filtration step: a({z.key_str()}) = {az} < {i}"
                )
            if az > i:
                continue
            val = p.evaluate(r)
            if val:
                out[z] = val
        return GradedClass(i, out)

    def hecke_grade_action(self, h: HeckeElement, f: GradedClass, q, side: str = "left") -> GradedClass:
        """h acting on a graded class through multiplication in the Hecke
        algebra, then projection back to the grade."""
        hb = self.hb
        acc = HeckeElement("T", {})
        for w, cw in f.coords.items():
            cd = hb.dagger(hb.kl_element(w))
            prod = hb.mul_T(h, cd) if side == "left" else hb.mul_T(cd, h)
            acc = acc + prod.scaled(LaurentPoly.const(Fraction(cw)))
        return self.grade_project(acc, f.grade, q)

    def check_hf_compat(self, h: HeckeElement, f: GradedClass, q) -> bool:
        """h f = phi_q(h) * f in the graded piece."""
        left = self.hecke_grade_action(h, f, q, "left")
        img = self.phi_q(h, q)
        right = self.star_action(img, f, "left")
        return left == right

    def check_jfh_compat(self, j: JElement, f: GradedClass, h: HeckeElement, q) -> bool:
        """(j * f) h = j * (f h): the two actions commute."""
        lhs = self.hecke_grade_action(h, self.star_action(j, f, "left"), q, "right")
        rhs = self.star_action(j, self.hecke_grade_action(h, f, q, "right"), "left")
        return lhs == rhs

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
        one = LaurentPoly.one()
        gens = [HeckeElement("T", {g: one}) for g in hb.gens]
        gens += [HeckeElement("T", {om: one}) for om in hb.omega_elems if not om.is_identity()]
        witness = None
        for g in gens:
            try:
                diff = hb.mul_T(z_central, g) - hb.mul_T(g, z_central)
            except BallOverflowError:
                witness = "ball too small to verify the centrality precondition"
                break
            if diff.terms:
                witness = f"does not commute with T_[{next(iter(g.terms)).key_str()}]"
                break
        if witness:
            return [{"central": False, "witness": witness, "commuted": 0, "skipped": 0,
                     "failures": []} for _ in qs]
        img = self.phi(z_central)
        certified = [x for x in hb.ball if hb.a_function(x)[1]]
        out = []
        for q in qs:
            zq = specialize(img, q)

            def commutes(x):
                tx = self.basis_element(x)
                return self.j_mul(zq, tx) == self.j_mul(tx, zq)

            commuted, skipped, failures = decide(certified, commutes)
            out.append({"central": True, "witness": None, "commuted": commuted,
                        "skipped": skipped, "failures": failures})
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
    xi = LaurentPoly({1: 1, -1: -1})
    return HeckeElement(
        "T",
        {
            t_plus: LaurentPoly.one(),
            t_minus: LaurentPoly.one(),
            s1: -xi,
            s2: -xi,
            pres.identity(): xi * xi,
        },
    )
