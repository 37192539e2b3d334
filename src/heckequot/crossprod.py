"""Crossed product of the Laurent ring by the bar swap, its faithful
two-by-two matrix model, and the four-by-four constrained-matrix algebra
built from it, with exact module dimension counts.

Elements are written p + A q with p, q Laurent polynomials and A the
order-two symbol; moving A past a polynomial flips the variable.  The
matrix model sends the variable to a symmetric companion pair and A to
diag(1, -1); its image is exactly the set of two-by-two matrices whose
diagonal is balanced and whose off-diagonal is anti-balanced.

The homomorphism checks run on Kronecker-packed ints.  Each sampled
polynomial p is drawn straight into the pair (P, Pb) packing p and bar(p),
by the draws rng.randint made, so that a seed names the same samples.  A
product is an int multiplication, bar swaps the pair, p is balanced when
P == Pb and anti-balanced when P == -Pb, and t - 1/t packs as B^2 - 1
(B = 2^k, one exponent lower), an exact divisor of anti-balanced entries.
The two-by-two model is doubled to make its entries integral; a matrix is
the pair (M, Mb) of int matrices, Mb the entrywise bar of M.  `hom_bits`
argues the width k at which equal packings mean equal polynomials.

The four-by-four algebra has one representation: the tie table saying
which of ten slots, barred or not, fills each entry, read by both the
packed sheets and the module census.  Unpacked polynomials are raw dicts,
as in `laurent`.

The module census evaluates the spanning set at a point z, clears each
evaluated element to ints once, and takes every rank on ints with the
fraction-free `extquot.row_reduce`.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from . import laurent
from .coxeter import mat_mul
from .laurent import LaurentError, bar
from .extquot import LINE_INV, POINT, Descriptor, clear_denominators, matrix_rank, row_reduce


class CrossProdError(Exception):
    pass


# ---------------- the crossed product ----------------------------------------

@dataclass(frozen=True)
class CrossedElement:
    """p + A q, where A p = bar(p) A and A^2 = 1."""

    p: dict[int, int]
    q: dict[int, int]


def crossed_t(k: int = 1) -> CrossedElement:
    return CrossedElement({k: 1}, {})


CROSSED_BOUND = 3  # coefficient bound of a sampled crossed component
CM4_BOUND = 2      # coefficient bound of a sampled four-by-four entry


# ---------------- packed maps --------------------------------------------------

Packed = tuple[int, int, int, int]   # (P, Pb, Q, Qb) of p + A q
Sheet = tuple[tuple[int, ...], ...]  # a square matrix of packed entries
PMat = tuple[Sheet, Sheet]           # (M, Mb), Mb the entrywise bar of M


def draw(rng: random.Random, bound: int) -> int:
    """rng.randint(-bound, bound) as CPython 3.10-3.13 draws it, minus its frames."""
    n = 2 * bound + 1
    w = n.bit_length()
    r = rng.getrandbits(w)
    while r >= n:
        r = rng.getrandbits(w)
    return r - bound


def sample_pair(rng: random.Random, max_deg: int, bound: int, density: float,
                k: int) -> tuple[int, int]:
    """(P, Pb) of a polynomial in [-bound, bound] at lowest exponent -max_deg:
    one rng.random() per exponent e, then one draw per kept one."""
    P = Pb = 0
    for e in range(-max_deg, max_deg + 1):
        if rng.random() < density:
            c = draw(rng, bound)
            P += c << k * (e + max_deg)
            Pb += c << k * (max_deg - e)
    return P, Pb


def sample_crossed(rng: random.Random, max_deg: int, k: int) -> Packed:
    return (sample_pair(rng, max_deg, CROSSED_BOUND, 0.4, k)
            + sample_pair(rng, max_deg, CROSSED_BOUND, 0.4, k))


def _bits(norm: int) -> int:
    """The least digit width k with norm < 2^(k-1)."""
    return norm.bit_length() + 1


def hom_bits(max_deg: int) -> dict[str, int]:
    """The digit width k of each hom check at sample degree d = max_deg.

    k keeps every coefficient of every compared difference below 2^(k-1),
    so equal packings mean equal polynomials and unpack decodes exactly.
    B^2 - 1 then divides a packing exactly when t - 1/t divides the
    polynomial: P = s0 + B s1 mod B^2 - 1 for the coefficient sums s0, s1
    over even and odd positions, both zero exactly when t - 1/t divides,
    and |s0|, |s1| < B/2.  By ||fg||_1 <= ||f||_1 ||g||_1, with a sampled
    crossed component of norm <= n = 3(2d + 1), so that 2M(x) has entries
    of norm <= 4n:
    - realization: entries of 2M(x) 2M(y) are <= 32 n^2 and of 2 2M(xy)
      <= 16 n^2, so differences are <= 48 n^2;
    - spectrum: dividing an anti-balanced c of degree e by t - 1/t gives
      norm <= (e/2) ||c||_1, multiplying doubles it; the lower left entry
      is <= 32 d n^2 in spec(XY) and <= 16 d n^2 in spec(X) spec(Y), and
      every difference and balance test is <= 64 (d + 2) n^2;
    - psi: an entry is a scalar product (<= 16) or two products of
      components (<= 2 n^2), so differences are <= 4 n^2;
    - cm4: a sampled entry (a class function p + bar p) has norm <= m =
      4(2d + 1), a product of three <= 16 m^3, differences <= 32 m^3.
    """
    n = CROSSED_BOUND * (2 * max_deg + 1)
    m = 2 * CM4_BOUND * (2 * max_deg + 1)
    return {"realization": _bits(48 * n * n),
            "spectrum": _bits(64 * (max_deg + 2) * n * n),
            "psi": _bits(4 * n * n),
            "cm4": _bits(32 * m ** 3)}


def pack_crossed(x: CrossedElement, lo: int, k: int) -> Packed:
    """(P, Pb, Q, Qb): p, bar(p), q and bar(q) packed at lowest exponent lo."""
    return tuple(laurent.pack(f, lo, k) for g in (x.p, x.q) for f in (g, bar(g)))


def crossed_mul(x: Packed, y: Packed) -> Packed:
    """(p1 + A q1)(p2 + A q2) = p1 p2 + bar(q1) q2 + A (bar(p1) q2 + q1 p2),
    at the sum of the factors' lowest exponents."""
    p1, p1b, q1, q1b = x
    p2, p2b, q2, q2b = y
    return (p1 * p2 + q1b * q2, p1b * p2b + q1 * q2b,
            p1b * q2 + q1 * p2, p1 * q2b + q1b * p2b)


# ---------------- two-by-two matrix model ------------------------------------

def mat2_mul(a: PMat, b: PMat) -> PMat:
    return mat_mul(a[0], b[0]), mat_mul(a[1], b[1])


def matrix_realization(x: Packed) -> PMat:
    """Twice the faithful embedding into two-by-two Laurent matrices.

    The variable maps to [[t + 1/t, t - 1/t], [t - 1/t, t + 1/t]] and A to
    diag(2, -2); in general the diagonal carries p + bar p +- (q + bar q)
    and the off-diagonal p - bar p +- (q - bar q)."""
    p, pb, q, qb = x
    b, a, c, d = p + pb, p - pb, q + qb, q - qb
    return (((b + c, a + d), (a - d, b - c)),
            ((b + c, -a - d), (d - a, b - c)))


def constrained2(m: PMat) -> bool:
    """Image membership: balanced diagonal, anti-balanced off-diagonal."""
    (a, b), (c, d) = m[0]
    (ab, bb), (cb, db) = m[1]
    return a == ab and d == db and b == -bb and c == -cb


def spectrum_map(m: PMat, lo: int, k: int) -> tuple[PMat, int, int]:
    """Straighten the constrained model onto plain balanced matrices.

    The upper right entry is multiplied by t - 1/t, the lower left is
    divided by it (exact on anti-balanced entries), and the lower right
    entry is also remembered at the two self-inverse points, where every
    anti-balanced function vanishes.  m is packed at lowest exponent lo and
    width k; the upper right entry comes out at lo - 1, the lower left at
    lo + 1."""
    if not constrained2(m):
        raise CrossProdError("matrix does not satisfy the swap constraint")
    (a, b), (c, d) = m[0]
    (ab, bb), (_, db) = m[1]
    g = (1 << 2 * k) - 1
    q, r = divmod(c, g)
    if r:
        raise LaurentError("t - 1/t does not divide the lower left entry")
    # bar(c / (t - 1/t)) = -bar(c) / (t - 1/t) = q, as c is anti-balanced
    out = ((a, b * g), (q, d)), ((ab, -bb * g), (q, db))
    digits = laurent.unpack(d, lo, k)
    return (out, sum(digits.values()),
            sum(-v if e & 1 else v for e, v in digits.items()))


def check_realization_hom(pairs: int = 100, max_deg: int = 8, seed: int = 0) -> dict:
    rng = random.Random(seed)
    k = hom_bits(max_deg)["realization"]
    failures = 0
    for _ in range(pairs):
        x, y = sample_crossed(rng, max_deg, k), sample_crossed(rng, max_deg, k)
        lhs = matrix_realization(tuple(2 * v for v in crossed_mul(x, y)))  # 2 2M(xy)
        rhs = mat2_mul(matrix_realization(x), matrix_realization(y))
        failures += lhs != rhs or not constrained2(lhs)
    return {"checked": pairs, "failures": failures}


def check_spectrum_hom(pairs: int = 100, max_deg: int = 8, seed: int = 0) -> dict:
    rng = random.Random(seed)
    k, lo = hom_bits(max_deg)["spectrum"], -max_deg
    failures = 0
    for _ in range(pairs):
        x = matrix_realization(sample_crossed(rng, max_deg, k))
        y = matrix_realization(sample_crossed(rng, max_deg, k))
        mx, px, nx = spectrum_map(x, lo, k)
        my, py, ny = spectrum_map(y, lo, k)
        mz, pz, nz = spectrum_map(mat2_mul(x, y), 2 * lo, k)
        # the straightening is homogeneous, so the doubled model compares
        # spec(XY) with spec(X) spec(Y) directly
        failures += not (mz == mat2_mul(mx, my) and mz[0] == mz[1]
                         and pz == px * py and nz == nx * ny)
    return {"checked": pairs, "failures": failures}


def check_injectivity(window: int = 8) -> bool:
    """Distinct images for the monomial basis t^k, A t^k in the window.
    Their image entries have coefficients in [-2, 2], so width _bits(4)
    tells them apart."""
    k, seen = _bits(4), set()
    for e in range(-window, window + 1):
        for x in (crossed_t(e), CrossedElement({}, {e: 1})):
            m = matrix_realization(pack_crossed(x, -window, k))
            if m in seen:
                return False
            seen.add(m)
    return True


# ---------------- constrained four-by-four matrices ---------------------------
# The upper left block holds class functions on the order-two extension of
# the torus (a balanced pair-class line plus a reflection-class scalar), the
# rest Laurent entries, rows and columns 4 tied to 3 by the bar involution.

_FIELDS = ["rf11", "rf12", "rf21", "rf22",
           "a13", "a23", "a31", "a32", "a33", "a34"]
_RF_BLOCK = {(1, 1), (1, 2), (2, 1), (2, 2)}
_PARTNER = {(1, 4): (1, 3), (2, 4): (2, 3), (4, 1): (3, 1),
            (4, 2): (3, 2), (4, 4): (3, 3), (4, 3): (3, 4)}
# entry (i, j) -> (the field holding it, whether the entry is its bar), in
# row-major order (the update keeps each key's place)
_SOURCE = {(i, j): (f"rf{i}{j}" if (i, j) in _RF_BLOCK else f"a{i}{j}", False)
           for i in range(1, 5) for j in range(1, 5)}
_SOURCE.update({ij: (f"a{pi}{pj}", True) for ij, (pi, pj) in _PARTNER.items()})

PCM4 = tuple[Sheet, Sheet, Sheet]  # (X, Xb, R): entries, their bars, reflection scalars


def pack_cm4(pairs: Mapping[str, tuple[int, int]], refl: Sheet = ((0, 0), (0, 0))) -> PCM4:
    """X holds every entry packed, a class function by its pair-class line,
    Xb their bars, and R = refl the reflection scalars of the upper left
    block.  pairs maps each field to its packed pair (P, Pb)."""
    flat = [[pairs[f][side ^ barred] for f, barred in _SOURCE.values()] for side in (0, 1)]
    X, Xb = (tuple(tuple(v[i:i + 4]) for i in range(0, 16, 4)) for v in flat)
    return X, Xb, refl


def cm4_mul(x: PCM4, y: PCM4) -> PCM4:
    """The constrained product.  A class function times a Laurent entry is
    its pair-class line times it, so the lines multiply as one
    four-by-four matrix, and the reflection scalars multiply in their own
    block, out of which none can leak."""
    (X, Xb, R), (Y, Yb, S) = x, y
    Z, Zb = mat_mul(X, Y), mat_mul(Xb, Yb)
    # the product must satisfy the same ties; anything else is a bug
    for (i, j), (pi, pj) in _PARTNER.items():
        if Z[i - 1][j - 1] != Zb[pi - 1][pj - 1]:
            raise CrossProdError("product broke the bar ties")
    # the Laurent cross terms arrive in bar-conjugate pairs, so the upper
    # left block is balanced and induces to class functions
    for i, j in _RF_BLOCK:
        if Z[i - 1][j - 1] != Zb[i - 1][j - 1]:
            raise CrossProdError("pair-class function must be balanced")
    return Z, Zb, mat_mul(R, S)


def psi_embed(lam: int, x: Packed, lo: int, k: int) -> PCM4:
    """The block embedding of a scalar plus a crossed element: the scalar
    sits as a class function on the diagonal of the upper block, and the
    crossed element, packed at lowest exponent lo and width k, becomes the
    lower block [[p, bar q], [q, bar p]]."""
    p, pb, q, qb = x
    s = laurent.pack({0: lam}, lo, k)
    return (((s, 0, 0, 0), (0, s, 0, 0), (0, 0, p, qb), (0, 0, q, pb)),
            ((s, 0, 0, 0), (0, s, 0, 0), (0, 0, pb, q), (0, 0, qb, p)),
            ((lam, 0), (0, lam)))


def check_psi_hom(pairs: int = 100, max_deg: int = 8, seed: int = 0) -> dict:
    rng = random.Random(seed)
    k, lo = hom_bits(max_deg)["psi"], -max_deg
    failures = 0
    for _ in range(pairs):
        lam1, lam2 = draw(rng, 4), draw(rng, 4)
        x, y = sample_crossed(rng, max_deg, k), sample_crossed(rng, max_deg, k)
        lhs = psi_embed(lam1 * lam2, crossed_mul(x, y), 2 * lo, k)
        rhs = cm4_mul(psi_embed(lam1, x, lo, k), psi_embed(lam2, y, lo, k))
        failures += lhs != rhs
    return {"checked": pairs, "failures": failures}


def random_cm4(rng: random.Random, max_deg: int, k: int) -> PCM4:
    """Draw the ten slots in _FIELDS order at lowest exponent -max_deg, a
    class function as p + bar p followed by its reflection scalar."""
    pairs, refl = {}, []
    for f in _FIELDS:
        P, Pb = sample_pair(rng, max_deg, CM4_BOUND, 0.35, k)
        if f.startswith("rf"):
            P = Pb = P + Pb
            refl.append(draw(rng, 3))
        pairs[f] = P, Pb
    return pack_cm4(pairs, (tuple(refl[:2]), tuple(refl[2:])))


def check_cm4_associativity(triples: int = 50, max_deg: int = 4, seed: int = 0) -> dict:
    rng = random.Random(seed)
    k = hom_bits(max_deg)["cm4"]
    failures = 0
    for _ in range(triples):
        a, b, c = (random_cm4(rng, max_deg, k) for _ in range(3))
        failures += cm4_mul(cm4_mul(a, b), c) != cm4_mul(a, cm4_mul(b, c))
    return {"checked": triples, "failures": failures}


# ---------------- exact module censuses --------------------------------------

def _point(z) -> Fraction:
    z = Fraction(z)
    if not z:
        raise LaurentError("cannot evaluate a Laurent polynomial at 0")
    return z


def _spanning_rows(z: Fraction) -> list[list[Fraction]]:
    """The monomial spanning set of the constrained algebra evaluated at
    z, each element flattened row by row.  A Laurent slot holding t^k gives
    z^k at its entry and z^-k at its bar partner; a class-function slot
    holding t^k + t^-k gives z^k + z^-k.  The reflection units vanish at z
    and would only add zero rows, which change no rank."""
    zk = {k: z ** k for k in range(-2, 3)}  # each power once
    slot = [(zk[k], zk[-k]) for k in range(-2, 3)]
    class_fn = [(zk[k] + zk[-k],) * 2 for k in range(3)]
    rows = []
    for f in _FIELDS:
        for at in class_fn if f.startswith("rf") else slot:
            rows.append([at[barred] if g == f else 0 for g, barred in _SOURCE.values()])
    return rows


def _restricted_rank(mats, basis) -> int:
    """Rank of the algebra, given as flattened int matrices mats,
    restricted to span(basis): every image m v is solved against the basis
    in one elimination, and an image outside the span means the subspace
    is not invariant.  The eliminator leaves pivot row i scaled by some
    nonzero l_i, which scales the coordinates against basis[i] by l_i:
    the rows below the pivots are still zero exactly when every image lies
    in the span, and scaling columns of the coordinate matrix keeps its
    rank."""
    n = len(basis)
    imgs = [[sum(m[4 * i + k] * v[k] for k in range(4)) for m in mats for v in basis]
            for i in range(4)]
    work, pivots = row_reduce([[b[i] for b in basis] + imgs[i] for i in range(4)], n)
    if len(pivots) < n or any(x for row in work[n:] for x in row[n:]):
        raise CrossProdError("expected invariant subspaces are not invariant")
    # rows 0..n-1 of column n + j*n + k: the coordinates of mats[j] basis[k],
    # row i scaled by l_i
    return matrix_rank([[work[i][n + j * n + k] for k in range(n) for i in range(n)]
                        for j in range(len(mats))])


V1_BASIS = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]
V2_BASIS = [[0, 0, 1, -1]]


def evaluate_module(z) -> dict:
    """Simple module dimensions of the constrained algebra at the pair
    class {z, 1/z}: {4} away from the self-inverse points, {3, 1} at
    them, split by the visible invariant subspaces."""
    z = _point(z)
    # scaling a spanning element changes neither a rank nor a span
    mats = [clear_denominators(m) for m in _spanning_rows(z)]
    dim = matrix_rank(mats)
    if z * z != 1:
        if dim != 16:
            raise CrossProdError(f"expected the full algebra at {z}, got {dim}")
        return {"point": z, "algebra_dim": 16, "dims": [4], "split": None}
    if dim != 10:
        raise CrossProdError(f"expected a ten dimensional algebra at {z}, got {dim}")
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
    class-function slots survive: one two dimensional simple module.  The
    spanning set meets them only through the four reflection units.  This
    takes no input and ranks four unit rows of the tie table, so it fails
    only if the table loses an upper-block slot."""
    dim = matrix_rank([[int(src == (f, False)) for src in _SOURCE.values()]
                       for f in _FIELDS[:4]])
    if dim != 4:
        raise CrossProdError(f"expected a two-by-two block, got dimension {dim}")
    return {"point": "reflection", "algebra_dim": 4, "dims": [2], "split": None}


def bottom_block_dim(z) -> int:
    """Dimension of the evaluated lower block of the embedded crossed
    product: four (irreducible two dimensional module) away from the
    self-inverse points, two (split) at them."""
    z = _point(z)
    k, rows = _bits(1), []  # the block entries are monomials
    for e in range(-2, 3):
        for x in (crossed_t(e), CrossedElement({}, {e: 1})):
            X = psi_embed(0, pack_crossed(x, -2, k), -2, k)[0]
            rows.append([laurent.evaluate(laurent.unpack(X[i][j], -2, k), z)
                         for i, j in ((2, 2), (2, 3), (3, 2), (3, 3))])
    return matrix_rank(rows)


def prim_census() -> list[Descriptor]:
    """Component census of the simple module space of the crossed
    product: a two parameter family over pair classes off the two
    self-inverse points, closing into a line with the pairs identified,
    plus one extra point over each self-inverse point where the two
    dimensional module splits in half."""
    return [LINE_INV, POINT, POINT]
