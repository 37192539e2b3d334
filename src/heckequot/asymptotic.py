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

and is an algebra homomorphism.  Specializing v to a rational square
root of q gives phi_q into J with rational coefficients.  Cell modules
carry the star action

    t_x * [w] = sum over z with a(z) = a(w) of
                gamma(x, w, z) nhat_w nhat_z [z]

for which the sum f_i of all distinguished basis vectors at a-value i
acts as a projector-like base point: t_x * f_{a(x)} = nhat_x [x].

All products go through the certified gamma tables and raise
UncertifiedError or BallOverflowError rather than return wrong answers.
The checks run their cases through `decide`, which counts a case that
raises UncertifiedError or BallOverflowError as skipped, never as passed,
and lets any other error stop the run.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .coxeter import GroupElement
from .hecke import (
    BallOverflowError,
    CellRecord,
    HeckeBall,
    HeckeElement,
    HeckeError,
    UncertifiedError,
)
from .laurent import LaurentPoly, sparse_add

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

    def __eq__(self, other) -> bool:
        return isinstance(other, JElement) and self.coeffs == other.coeffs

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


def _sqrt_fraction(q) -> Fraction:
    """Exact square root of a rational, or raise."""
    q = Fraction(q)
    if q <= 0:
        raise HeckeError("specialization needs q > 0")
    num = _isqrt_exact(q.numerator)
    den = _isqrt_exact(q.denominator)
    if num is None or den is None:
        raise HeckeError(
            f"q = {q} is not the square of a rational; the specialization "
            "v -> sqrt(q) would leave exact arithmetic"
        )
    return Fraction(num, den)


def _isqrt_exact(n: int) -> int | None:
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedClass)
            and self.grade == other.grade
            and self.coords == other.coords
        )

    def __add__(self, other: "GradedClass") -> "GradedClass":
        if self.grade != other.grade:
            raise HeckeError("grade mismatch in graded addition")
        return GradedClass(self.grade, sparse_add(dict(self.coords), other.coords))

    def scaled(self, c) -> "GradedClass":
        return GradedClass(self.grade, {w: q * c for w, q in self.coords.items()})


class JRing:
    """Asymptotic ring attached to a HeckeBall."""

    def __init__(self, hb: HeckeBall):
        self.hb = hb
        self._phi: dict[GroupElement, JElement] = {}

    def basis_element(self, w: GroupElement, coeff=1) -> JElement:
        return JElement({w: coeff})

    def unit(self) -> JElement:
        return JElement({d: nd for d, nd in self.hb.distinguished_involutions()})

    def is_unit_on(self, u: JElement, w: GroupElement) -> bool:
        """u t_w = t_w = t_w u."""
        tw = self.basis_element(w)
        return self.j_mul(u, tw) == tw and self.j_mul(tw, u) == tw

    def j_mul(self, a: JElement, b: JElement) -> JElement:
        """Product in J; raises when any needed gamma row is uncertified
        or outside the pair budget."""
        out: dict[GroupElement, object] = {}
        for x, cx in a.coeffs.items():
            for y, cy in b.coeffs.items():
                for z, g in self.hb.gamma_row(x, y).items():
                    s = out.get(z, 0) + cx * cy * g
                    if s:
                        out[z] = s
                    elif z in out:
                        del out[z]
        return JElement(out)

    # ---------------- cell ideals -----------------------------------------
    def cell_ideal_check(self, samples: int = 0, seed: int = 0) -> dict:
        """Verify that products respect the two-sided cell decomposition:
        t_x t_y = 0 for x, y in different cells, and supported inside the
        common cell otherwise.  Runs over all certified pairs within the
        budget (samples > 0 restricts to a deterministic random sample)."""
        hb = self.hb
        part = hb.cell_partition()
        cid = part.two_sided_id
        pairs = []
        for x in hb.ball:
            if not hb.a_function(x)[1]:
                continue
            for y in hb.ball:
                if x.length + y.length > hb.radius:
                    continue
                if not hb.a_function(y)[1]:
                    continue
                pairs.append((x, y))
        if samples and samples < len(pairs):
            pairs = random.Random(seed).sample(pairs, samples)

        def escapes(pair):
            x, y = pair
            if cid[x] != cid[y]:
                return [(x, y, z, "cross-cell product nonzero") for z in hb.gamma_row(x, y)]
            return [(x, y, z, "product left the cell")
                    for z in hb.gamma_row(x, y) if cid[z] != cid[x]]

        checked, _, bad = decide(pairs, lambda p: not escapes(p))
        cross = [(x, y) for x, y in pairs if cid[x] != cid[y]]
        cross_checked, _, cross_nonzero = decide(cross, lambda p: not hb.gamma_row(*p))
        return {
            "checked": checked,
            "cross_cell_zero": cross_checked - len(cross_nonzero),
            "failures": [e for p in bad for e in escapes(p)],
        }

    def cell_ideal(self, cell: CellRecord, max_pairs: int = 0, seed: int = 0) -> dict:
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
        if max_pairs and max_pairs < len(pairs):
            pairs = random.Random(seed).sample(pairs, max_pairs)

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
    def phi_of_cdagger(self, x: GroupElement) -> JElement:
        """phi(cdag_x) with Laurent coefficients, computed once per x."""
        if x in self._phi:
            return self._phi[x]
        hb = self.hb
        out: dict[GroupElement, LaurentPoly] = {}
        for d, _nd in hb.distinguished_involutions():
            if x.length + d.length > hb.radius:
                raise BallOverflowError(
                    "phi needs the full row of products against distinguished involutions"
                )
            ad = hb.a_function(d)[0]
            sparse_add(out, {z: h * hb.nhat(z) for z, h in hb.h_to_distinguished(x, d).items()
                             if hb.a_function(z)[0] == ad})
        self._phi[x] = JElement(out)
        return self._phi[x]

    def cdag_coords(self, h: HeckeElement) -> HeckeElement:
        """Coordinates of h in the dagger basis: h = sum coords_x cdag_x.

        The dagger map is an A-linear algebra involution, so the
        coordinates are obtained by expressing dagger(h) in the c-basis."""
        if h.basis == "cdag":
            return h
        if h.basis == "T":
            return HeckeElement("cdag", dict(self.hb.t_to_c(self.hb.dagger(h)).terms))
        raise HeckeError(f"cannot read {h.basis}-basis input as dagger coordinates")

    def cdag_to_t(self, coords: HeckeElement) -> HeckeElement:
        """Expand dagger-basis coordinates into the T-basis."""
        hb = self.hb
        out = HeckeElement("T", {})
        for x, p in coords.terms.items():
            out = out + hb.dagger(hb.kl_element(x)).scaled(p)
        return out

    def phi(self, h: HeckeElement) -> JElement:
        """phi with Laurent coefficients; accepts T- or dagger-basis input."""
        coords = self.cdag_coords(h)
        out = JElement({})
        for x, p in coords.terms.items():
            out = out + self.phi_of_cdagger(x).scaled(p)
        return out

    def phi_q(self, h: HeckeElement, q) -> JElement:
        """phi followed by v -> sqrt(q); q must be a square of a rational."""
        r = _sqrt_fraction(q)
        out = {}
        for w, p in self.phi(h).coeffs.items():
            val = p.evaluate(r)
            if val:
                out[w] = val
        return JElement(out)

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
                for z, g in row.items():
                    if hb.a_function(z)[0] != f.grade:
                        continue
                    s = out.get(z, 0) + cw * cx * g * nw * hb.nhat(z)
                    if s:
                        out[z] = s
                    elif z in out:
                        del out[z]
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
    def center_commutation_check(self, z_central: HeckeElement, q=1) -> dict:
        """Verify the image of a central element is central in J.

        First verifies the precondition by commuting z_central with every
        generator and length-zero element inside the ball; a failure is
        reported with its witness and the main check does not run.  Then
        phi_q(z_central) is commuted against t_x for every certified x
        whose products the truncation can decide; undecidable x are
        counted as skipped."""
        hb = self.hb
        one = LaurentPoly.one()
        gens = [HeckeElement("T", {g: one}) for g in hb.gens]
        gens += [HeckeElement("T", {om: one}) for om in hb.omega_elems if not om.is_identity()]
        for g in gens:
            try:
                diff = hb.mul_T(z_central, g) - hb.mul_T(g, z_central)
            except BallOverflowError:
                return {
                    "central": False,
                    "witness": "ball too small to verify the centrality precondition",
                    "commuted": 0,
                    "skipped": 0,
                    "failures": [],
                }
            if diff.terms:
                wit = next(iter(g.terms))
                return {
                    "central": False,
                    "witness": f"does not commute with T_[{wit.key_str()}]",
                    "commuted": 0,
                    "skipped": 0,
                    "failures": [],
                }
        img = self.phi_q(z_central, q)

        def commutes(x):
            tx = self.basis_element(x)
            return self.j_mul(img, tx) == self.j_mul(tx, img)

        commuted, skipped, failures = decide(
            [x for x in hb.ball if hb.a_function(x)[1]], commutes)
        return {
            "central": True,
            "witness": None,
            "commuted": commuted,
            "skipped": skipped,
            "failures": failures,
        }


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
