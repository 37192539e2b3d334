"""Crossed product of the Laurent ring by the bar swap, its faithful
two-by-two matrix model, and the four-by-four constrained-matrix algebra
built from it, with exact module dimension counts.

Elements are written p + A q with p, q Laurent polynomials and A the
order-two symbol; moving A past a polynomial flips the variable.  The
matrix model sends the variable to a symmetric companion pair and A to
diag(1, -1); its image is exactly the set of two-by-two matrices whose
diagonal is balanced and whose off-diagonal is anti-balanced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import laurent
from .laurent import LaurentPoly
from .extquot import Descriptor, LineModInversion, Point, matrix_rank, row_reduce


class CrossProdError(Exception):
    pass


# ---------------- the crossed product ----------------------------------------

@dataclass(frozen=True)
class CrossedElement:
    """p + A q, where A p = bar(p) A and A^2 = 1."""

    p: LaurentPoly
    q: LaurentPoly

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        return CrossedElement(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        return CrossedElement(self.p - other.p, self.q - other.q)

    def __mul__(self, other: "CrossedElement") -> "CrossedElement":
        p1, q1, p2, q2 = self.p, self.q, other.p, other.q
        return CrossedElement(
            p1 * p2 + q1.bar() * q2,
            p1.bar() * q2 + q1 * p2,
        )

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def __str__(self) -> str:
        return f"({self.p.to_str()}) + A({self.q.to_str()})"


def crossed_one() -> CrossedElement:
    return CrossedElement(LaurentPoly.one(), LaurentPoly.zero())


def crossed_alpha() -> CrossedElement:
    return CrossedElement(LaurentPoly.zero(), LaurentPoly.one())


def crossed_t(k: int = 1) -> CrossedElement:
    return CrossedElement(LaurentPoly._raw({k: 1}), LaurentPoly.zero())


def random_crossed(rng: random.Random, max_deg: int) -> CrossedElement:
    def poly() -> LaurentPoly:
        return LaurentPoly(
            {
                e: Fraction(rng.randint(-3, 3))
                for e in range(-max_deg, max_deg + 1)
                if rng.random() < 0.4
            }
        )

    return CrossedElement(poly(), poly())


# ---------------- two-by-two matrix model ------------------------------------

Mat2 = tuple[tuple[LaurentPoly, LaurentPoly], tuple[LaurentPoly, LaurentPoly]]


def mat2_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0],
         a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0],
         a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def matrix_realization(x: CrossedElement) -> Mat2:
    """Faithful embedding into two-by-two Laurent matrices.

    The variable maps to [[(t+1/t)/2, (t-1/t)/2], [(t-1/t)/2, (t+1/t)/2]]
    and A to diag(1, -1); in general the diagonal carries the balanced
    parts and the off-diagonal the anti-balanced parts."""
    dp = laurent.decompose(x.p)
    dq = laurent.decompose(x.q)
    return (
        (dp.balanced + dq.balanced, dp.antibalanced + dq.antibalanced),
        (dp.antibalanced - dq.antibalanced, dp.balanced - dq.balanced),
    )


def constrained2(m: Mat2) -> bool:
    """Image membership: balanced diagonal, anti-balanced off-diagonal."""
    return (
        m[0][0].is_balanced()
        and m[1][1].is_balanced()
        and m[0][1].is_antibalanced()
        and m[1][0].is_antibalanced()
    )


def spectrum_map(m: Mat2) -> tuple[Mat2, Fraction, Fraction]:
    """Straighten the constrained model onto plain balanced matrices.

    The upper right entry is multiplied by t - 1/t, the lower left is
    divided by it (exact on anti-balanced entries), and the lower right
    entry is also remembered at the two self-inverse points, where every
    anti-balanced function vanishes."""
    if not constrained2(m):
        raise CrossProdError("matrix does not satisfy the swap constraint")
    g = laurent.generator()
    out = (
        (m[0][0], m[0][1] * g),
        (laurent.divide_by_generator(m[1][0]), m[1][1]),
    )
    return out, m[1][1].evaluate(1), m[1][1].evaluate(-1)


def check_realization_hom(pairs: int = 100, max_deg: int = 8, seed: int = 0) -> dict:
    rng = random.Random(seed)
    failures = 0
    for _ in range(pairs):
        x = random_crossed(rng, max_deg)
        y = random_crossed(rng, max_deg)
        lhs = matrix_realization(x * y)
        rhs = mat2_mul(matrix_realization(x), matrix_realization(y))
        if lhs != rhs or not constrained2(lhs):
            failures += 1
    return {"checked": pairs, "failures": failures}


def check_spectrum_hom(pairs: int = 100, max_deg: int = 8, seed: int = 0) -> dict:
    rng = random.Random(seed)
    failures = 0
    for _ in range(pairs):
        x = matrix_realization(random_crossed(rng, max_deg))
        y = matrix_realization(random_crossed(rng, max_deg))
        mx, px, nx = spectrum_map(x)
        my, py, ny = spectrum_map(y)
        mz, pz, nz = spectrum_map(mat2_mul(x, y))
        ok = (
            mz == mat2_mul(mx, my)
            and pz == px * py
            and nz == nx * ny
            and all(e.is_balanced() for row in mz for e in row)
        )
        if not ok:
            failures += 1
    return {"checked": pairs, "failures": failures}


def check_injectivity(window: int = 8) -> bool:
    """Distinct images for the monomial basis t^k, A t^k in the window."""
    seen = set()
    for k in range(-window, window + 1):
        for use_alpha in (False, True):
            x = CrossedElement(LaurentPoly.zero(), LaurentPoly._raw({k: 1})) \
                if use_alpha else crossed_t(k)
            m = matrix_realization(x)
            key = tuple(tuple(sorted(e.c.items())) for row in m for e in row)
            if key in seen:
                return False
            seen.add(key)
    return True


# ---------------- class-function pairs ---------------------------------------

@dataclass(frozen=True)
class RF:
    """A class function on the order-two extension of the torus: a
    balanced Laurent polynomial on the pair classes {z, 1/z} together
    with one scalar on the reflection class."""

    line: LaurentPoly
    refl: Fraction

    def __post_init__(self):
        if not self.line.is_balanced():
            raise CrossProdError("pair-class function must be balanced")

    def __add__(self, other: "RF") -> "RF":
        return RF(self.line + other.line, self.refl + other.refl)

    def __sub__(self, other: "RF") -> "RF":
        return RF(self.line - other.line, self.refl - other.refl)

    def __mul__(self, other: "RF") -> "RF":
        return RF(self.line * other.line, self.refl * other.refl)

    def is_zero(self) -> bool:
        return not self.line and self.refl == 0


def rf_zero() -> RF:
    return RF(LaurentPoly.zero(), Fraction(0))


def rf_one() -> RF:
    return RF(LaurentPoly.one(), Fraction(1))


def rf_scalar(c) -> RF:
    c = Fraction(c)
    return RF(LaurentPoly.const(c), c)


def ind(p: LaurentPoly) -> RF:
    """Induce a plain Laurent polynomial to a class function: symmetrize
    on the pair classes, vanish on the reflection class."""
    return RF(p + p.bar(), Fraction(0))


def res(f: RF) -> LaurentPoly:
    return f.line


# ---------------- constrained four-by-four matrices ---------------------------

_RF_BLOCK = {(1, 1), (1, 2), (2, 1), (2, 2)}
_FREE_L = [(1, 3), (2, 3), (3, 1), (3, 2), (3, 3), (3, 4)]
_PARTNER = {(1, 4): (1, 3), (2, 4): (2, 3), (4, 1): (3, 1),
            (4, 2): (3, 2), (4, 4): (3, 3), (4, 3): (3, 4)}


@dataclass(frozen=True)
class ConstrainedMatrix4:
    """Four-by-four matrices with class-function entries in the upper
    left two-by-two block, Laurent entries elsewhere, and the second
    half of rows and columns three and four tied to the first by the
    bar involution."""

    rf11: RF
    rf12: RF
    rf21: RF
    rf22: RF
    a13: LaurentPoly
    a23: LaurentPoly
    a31: LaurentPoly
    a32: LaurentPoly
    a33: LaurentPoly
    a34: LaurentPoly

    def entry(self, i: int, j: int):
        if (i, j) in _RF_BLOCK:
            return getattr(self, f"rf{i}{j}")
        if (i, j) in _PARTNER:
            pi, pj = _PARTNER[(i, j)]
            return getattr(self, f"a{pi}{pj}").bar()
        return getattr(self, f"a{i}{j}")

    def __add__(self, other: "ConstrainedMatrix4") -> "ConstrainedMatrix4":
        return ConstrainedMatrix4(
            *(getattr(self, f) + getattr(other, f) for f in _FIELDS)
        )

    def __sub__(self, other: "ConstrainedMatrix4") -> "ConstrainedMatrix4":
        return ConstrainedMatrix4(
            *(getattr(self, f) - getattr(other, f) for f in _FIELDS)
        )

    def __mul__(self, other: "ConstrainedMatrix4") -> "ConstrainedMatrix4":
        vals = {}
        for i in range(1, 5):
            for j in range(1, 5):
                vals[(i, j)] = _mul_entry(self, other, i, j)
        # the product must satisfy the same ties; anything else is a bug
        for (i, j), (pi, pj) in _PARTNER.items():
            if vals[(i, j)] != vals[(pi, pj)].bar():
                raise CrossProdError("product broke the bar ties")
        return ConstrainedMatrix4(
            vals[(1, 1)], vals[(1, 2)], vals[(2, 1)], vals[(2, 2)],
            vals[(1, 3)], vals[(2, 3)], vals[(3, 1)], vals[(3, 2)],
            vals[(3, 3)], vals[(3, 4)],
        )

    def is_zero(self) -> bool:
        return all(
            getattr(self, f).is_zero() if f.startswith("rf") else not getattr(self, f)
            for f in _FIELDS
        )


_FIELDS = ["rf11", "rf12", "rf21", "rf22",
           "a13", "a23", "a31", "a32", "a33", "a34"]


def _mul_entry(x: ConstrainedMatrix4, y: ConstrainedMatrix4, i: int, j: int):
    in_rf = (i, j) in _RF_BLOCK
    rf_acc = rf_zero()
    l_acc = LaurentPoly.zero()
    for k in range(1, 5):
        a = x.entry(i, k)
        b = y.entry(k, j)
        a_rf = isinstance(a, RF)
        b_rf = isinstance(b, RF)
        if a_rf and b_rf:
            rf_acc = rf_acc + a * b
        elif a_rf:
            l_acc = l_acc + res(a) * b
        elif b_rf:
            l_acc = l_acc + a * res(b)
        else:
            l_acc = l_acc + a * b
    if in_rf:
        # the Laurent cross terms arrive in bar-conjugate pairs, so the
        # sum is balanced and induces to a class function
        return rf_acc + RF(l_acc, Fraction(0))
    if not rf_acc.is_zero():
        raise CrossProdError("class-function term leaked out of its block")
    return l_acc


def cm4_one() -> ConstrainedMatrix4:
    z = LaurentPoly.zero()
    return ConstrainedMatrix4(rf_one(), rf_zero(), rf_zero(), rf_one(),
                              z, z, z, z, LaurentPoly.one(), z)


def cm4_single(field: str, value) -> ConstrainedMatrix4:
    base = {f: rf_zero() if f.startswith("rf") else LaurentPoly.zero()
            for f in _FIELDS}
    base[field] = value
    return ConstrainedMatrix4(**base)


def psi_embed(lam, x: CrossedElement) -> ConstrainedMatrix4:
    """The block embedding of a scalar plus a crossed element: the scalar
    sits as a class function on the diagonal of the upper block, and the
    crossed element becomes the lower block [[p, bar q], [q, bar p]]."""
    z = LaurentPoly.zero()
    lam = rf_scalar(lam)
    return ConstrainedMatrix4(lam, rf_zero(), rf_zero(), lam,
                              z, z, z, z, x.p, x.q.bar())


def check_psi_hom(pairs: int = 100, max_deg: int = 8, seed: int = 0) -> dict:
    rng = random.Random(seed)
    failures = 0
    for _ in range(pairs):
        lam1 = Fraction(rng.randint(-4, 4))
        lam2 = Fraction(rng.randint(-4, 4))
        x = random_crossed(rng, max_deg)
        y = random_crossed(rng, max_deg)
        lhs = psi_embed(lam1 * lam2, x * y)
        rhs = psi_embed(lam1, x) * psi_embed(lam2, y)
        if not (lhs - rhs).is_zero():
            failures += 1
    return {"checked": pairs, "failures": failures}


def check_cm4_associativity(triples: int = 50, max_deg: int = 4, seed: int = 0) -> dict:
    rng = random.Random(seed)

    def poly() -> LaurentPoly:
        return LaurentPoly({e: Fraction(rng.randint(-2, 2))
                            for e in range(-max_deg, max_deg + 1)
                            if rng.random() < 0.35})

    def rf() -> RF:
        p = poly()
        return RF(p + p.bar(), Fraction(rng.randint(-3, 3)))

    def elem() -> ConstrainedMatrix4:
        return ConstrainedMatrix4(rf(), rf(), rf(), rf(),
                                  poly(), poly(), poly(), poly(),
                                  poly(), poly())

    failures = 0
    for _ in range(triples):
        a, b, c = elem(), elem(), elem()
        if not (((a * b) * c) - (a * (b * c))).is_zero():
            failures += 1
    return {"checked": triples, "failures": failures}


# ---------------- exact module censuses --------------------------------------

def _spanning_set(window: int = 2) -> list[ConstrainedMatrix4]:
    elems = []
    for f in _FIELDS:
        if f.startswith("rf"):
            elems.append(cm4_single(f, RF(LaurentPoly.zero(), Fraction(1))))
            for k in range(window + 1):
                elems.append(cm4_single(f, ind(LaurentPoly._raw({k: 1}))))
        else:
            for k in range(-window, window + 1):
                elems.append(cm4_single(f, LaurentPoly._raw({k: 1})))
    return elems


def _eval_matrix(x: ConstrainedMatrix4, z: Fraction) -> list[list[Fraction]]:
    out = []
    for i in range(1, 5):
        row = []
        for j in range(1, 5):
            e = x.entry(i, j)
            if isinstance(e, RF):
                row.append(e.line.evaluate(z))
            else:
                row.append(e.evaluate(z))
        out.append(row)
    return out


def _eval_reflection(x: ConstrainedMatrix4) -> list[list[Fraction]]:
    out = []
    for i in range(1, 5):
        row = []
        for j in range(1, 5):
            e = x.entry(i, j)
            row.append(e.refl if isinstance(e, RF) else Fraction(0))
        out.append(row)
    return out


def _invariant(mats: list[list[list[Fraction]]], basis: list[list[Fraction]]) -> bool:
    space = [row[:] for row in basis]
    dim = matrix_rank(space)
    for m in mats:
        for v in basis:
            img = [sum(m[i][k] * v[k] for k in range(4)) for i in range(4)]
            if matrix_rank(space + [img]) > dim:
                return False
    return True


def _restricted_rank(mats, basis) -> int:
    # exact coordinates of each restricted operator in the given basis
    rows = []
    for m in mats:
        op = []
        for v in basis:
            img = [sum(m[i][k] * v[k] for k in range(4)) for i in range(4)]
            op.append(_coords(img, basis))
        rows.append([x for col in op for x in col])
    return matrix_rank(rows)


def _coords(vec: list[Fraction], basis: list[list[Fraction]]) -> list[Fraction]:
    n = len(basis)
    work, pivots = row_reduce([[b[i] for b in basis] + [vec[i]] for i in range(4)], n)
    if len(pivots) < n or any(row[n] for row in work[n:]):
        raise CrossProdError("vector leaves the subspace")
    return [work[i][n] for i in range(n)]


V1_BASIS = [
    [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
    [Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
    [Fraction(0), Fraction(0), Fraction(1), Fraction(1)],
]
V2_BASIS = [[Fraction(0), Fraction(0), Fraction(1), Fraction(-1)]]


def evaluate_module(z) -> dict:
    """Simple module dimensions of the constrained algebra at the pair
    class {z, 1/z}: {4} away from the self-inverse points, {3, 1} at
    them, split by the visible invariant subspaces."""
    z = Fraction(z)
    mats = [_eval_matrix(x, z) for x in _spanning_set()]
    flat = [[m[i][j] for i in range(4) for j in range(4)] for m in mats]
    dim = matrix_rank(flat)
    if z * z != 1:
        if dim != 16:
            raise CrossProdError(f"expected the full algebra at {z}, got {dim}")
        return {"point": z, "algebra_dim": 16, "dims": [4], "split": None}
    if dim != 10:
        raise CrossProdError(f"expected a ten dimensional algebra at {z}, got {dim}")
    if not (_invariant(mats, V1_BASIS) and _invariant(mats, V2_BASIS)):
        raise CrossProdError("expected invariant subspaces are not invariant")
    r1 = _restricted_rank(mats, V1_BASIS)
    r2 = _restricted_rank(mats, V2_BASIS)
    if r1 != 9 or r2 != 1:
        raise CrossProdError(f"unexpected restricted ranks {r1}, {r2}")
    return {
        "point": z,
        "algebra_dim": 10,
        "dims": [3, 1],
        "split": {"V1": "span(e1, e2, e3 + e4)", "V2": "span(e3 - e4)",
                  "restricted_ranks": [r1, r2]},
    }


def evaluate_reflection_class() -> dict:
    """At the reflection class every Laurent entry vanishes and the four
    class-function slots survive: one two dimensional simple module."""
    mats = [_eval_reflection(x) for x in _spanning_set()]
    flat = [[m[i][j] for i in range(4) for j in range(4)] for m in mats]
    dim = matrix_rank(flat)
    if dim != 4:
        raise CrossProdError(f"expected a two-by-two block, got dimension {dim}")
    return {"point": "reflection", "algebra_dim": 4, "dims": [2], "split": None}


def bottom_block_dim(z) -> int:
    """Dimension of the evaluated lower block of the embedded crossed
    product: four (irreducible two dimensional module) away from the
    self-inverse points, two (split) at them."""
    z = Fraction(z)
    rows = []
    for k in range(-2, 3):
        for x in (crossed_t(k),
                  CrossedElement(LaurentPoly.zero(), LaurentPoly._raw({k: 1}))):
            m = psi_embed(0, x)
            rows.append([
                m.entry(3, 3).evaluate(z), m.entry(3, 4).evaluate(z),
                m.entry(4, 3).evaluate(z), m.entry(4, 4).evaluate(z),
            ])
    return matrix_rank(rows)


def prim_census() -> list[Descriptor]:
    """Component census of the simple module space of the crossed
    product: a two parameter family over pair classes off the two
    self-inverse points, closing into a line with the pairs identified,
    plus one extra point over each self-inverse point where the two
    dimensional module splits in half."""
    return [LineModInversion(), Point(), Point()]
