"""Crossed product of the Laurent line by inversion, and its matrix models."""

import operator
import random
from fractions import Fraction

import pytest

from heckequot import crossprod, laurent
from heckequot.laurent import LaurentError, LaurentPoly, acc_scaled
from heckequot.crossprod import (
    CrossedElement,
    CrossProdError,
    bottom_block_dim,
    check_cm4_associativity,
    check_injectivity,
    check_psi_hom,
    check_realization_hom,
    check_spectrum_hom,
    cm4_mul,
    constrained2,
    crossed_mul,
    crossed_t,
    draw,
    evaluate_module,
    evaluate_reflection_class,
    hom_bits,
    mat2_mul,
    matrix_realization,
    pack_cm4,
    pack_crossed,
    prim_census,
    psi_embed,
    random_cm4,
    sample_crossed,
    sample_pair,
    spectrum_map,
)
from oracles import barred, fraction_rank, fraction_row_reduce, random_crossed, random_poly

# a width and lowest exponent for the small hand-made elements below
K, LO = 8, -4


def crossed_one():
    return CrossedElement({0: 1}, {})


def crossed_alpha():
    return CrossedElement({}, {0: 1})


def pk(x, lo=LO):
    return pack_crossed(x, lo, K)


def _pmat(rows, lo=LO):
    """The packed (M, Mb) of a matrix of raw Laurent polynomials."""
    return tuple(tuple(tuple(pack_pair(e, lo, K)[side] for e in row) for row in rows)
                 for side in (0, 1))


def _double(x):
    return tuple(2 * v for v in x)


def pack_pair(p, lo, k):
    """(P, Pb): p and bar(p) packed at lowest exponent lo and width k."""
    return laurent.pack(p, lo, k), laurent.pack(laurent.bar(p), lo, k)


def _cm4(slots, lo=LO, refl=((0, 0), (0, 0))):
    """The packed four-by-four element of raw polynomial slots, a missing
    slot 0."""
    return pack_cm4({f: pack_pair(slots.get(f, {}), lo, K) for f in crossprod._FIELDS}, refl)


# ---- crossed algebra --------------------------------------------------------


def test_defining_relations():
    one, alpha, t = pk(crossed_one()), pk(crossed_alpha()), pk(crossed_t())
    # a product of packings sits at the sum of their lowest exponents
    assert crossed_mul(alpha, alpha) == pk(crossed_one(), 2 * LO)
    assert crossed_mul(crossed_mul(alpha, t), alpha) == pk(crossed_t(-1), 3 * LO)
    assert crossed_mul(t, pk(crossed_t(-1))) == crossed_mul(one, one)
    assert crossed_mul(t, alpha) != crossed_mul(alpha, t)


def test_realization_frozen_matrices():
    # twice the model: (t + 1/t)/2 and (t - 1/t)/2 doubled
    sym, asym = {1: 1, -1: 1}, {1: 1, -1: -1}
    assert matrix_realization(pk(crossed_t())) == _pmat([[sym, asym], [asym, sym]])
    assert matrix_realization(pk(crossed_alpha())) == _pmat([[{0: 2}, {}], [{}, {0: -2}]])


def test_realization_hom_deterministic():
    one, alpha, t = pk(crossed_one()), pk(crossed_alpha()), pk(crossed_t())
    # alpha packed at lowest exponent 0 keeps the product at LO
    alpha_t = crossed_mul(pack_crossed(crossed_alpha(), 0, K), t)
    pool = [one, alpha, t, pk(crossed_t(-1)), pk(crossed_t(2)), alpha_t,
            tuple(a + b for a, b in zip(t, alpha))]
    for x in pool:
        for y in pool:
            assert matrix_realization(_double(crossed_mul(x, y))) == mat2_mul(
                matrix_realization(x), matrix_realization(y)
            )


def test_realization_images_are_constrained():
    t_alpha = crossed_mul(pk(crossed_t()), pk(crossed_alpha()))
    for x in (pk(crossed_one()), pk(crossed_alpha()), pk(crossed_t(3)), t_alpha):
        assert constrained2(matrix_realization(x))
    bad = _pmat([[{1: 1}, {}], [{}, {0: 1}]])
    assert not constrained2(bad)


def test_spectrum_of_alpha():
    m = matrix_realization(pk(crossed_alpha()))
    diag, at_one, at_minus_one = spectrum_map(m, LO, K)
    assert diag == m
    # the doubled model carries A as diag(2, -2)
    assert at_one == 2 * Fraction(-1)
    assert at_minus_one == 2 * Fraction(-1)


def test_spectrum_straightens_the_doubled_t():
    # 2M(t) = [[t + 1/t, t - 1/t], [t - 1/t, t + 1/t]]: the upper right
    # entry becomes (t - 1/t)^2 one exponent lower, the lower left divides
    # to 1 one exponent higher, and t + 1/t is 2 at 1 and -2 at -1
    out, at_one, at_minus_one = spectrum_map(matrix_realization(pk(crossed_t())), LO, K)
    square = {2: 1, 0: -2, -2: 1}
    assert (out[0][0][1], out[1][0][1]) == pack_pair(square, LO - 1, K)
    assert (out[0][1][0], out[1][1][0]) == pack_pair({0: 1}, LO + 1, K)
    assert (at_one, at_minus_one) == (2, -2)


def test_randomized_hom_checks():
    assert check_realization_hom(100, 8, 0) == {"checked": 100, "failures": 0}
    assert check_spectrum_hom(100, 8, 0) == {"checked": 100, "failures": 0}
    assert check_psi_hom(100, 8, 0) == {"checked": 100, "failures": 0}
    assert check_cm4_associativity(50, 4, 0) == {"checked": 50, "failures": 0}


def _fraction_poly(rng, max_deg, bound, density):
    # the samplers as they were, building Fraction coefficients
    return LaurentPoly({e: Fraction(rng.randint(-bound, bound))
                        for e in range(-max_deg, max_deg + 1)
                        if rng.random() < density})


def _fraction_cm4(rng, max_deg):
    # the ten slots drawn as they were, each class function p + bar p then
    # its reflection scalar, laid out by hand: rows and columns four are the
    # bars of rows and columns three
    def poly():
        return _fraction_poly(rng, max_deg, 2, 0.35)

    def rf():
        p = poly()
        return p + barred(p), Fraction(rng.randint(-3, 3))

    (l11, r11), (l12, r12), (l21, r21), (l22, r22) = rf(), rf(), rf(), rf()
    a13, a23, a31, a32, a33, a34 = (poly() for _ in range(6))
    rows = [[l11, l12, a13, barred(a13)],
            [l21, l22, a23, barred(a23)],
            [a31, a32, a33, a34],
            [barred(a31), barred(a32), barred(a34), barred(a33)]]
    return rows, ((r11, r12), (r21, r22))


def _decoded(sheet, lo, k):
    return [[LaurentPoly(laurent.unpack(H, lo, k)) for H in row] for row in sheet]


def test_samples_equal_the_fraction_built_ones():
    # the report prints only checked/failures, so a changed sample would
    # pass the report's byte check unnoticed
    k8, k = hom_bits(8)["psi"], hom_bits(4)["cm4"]  # the narrowest widths
    for seed in range(16):
        rng, ref = random.Random(seed), random.Random(seed)
        x = sample_crossed(rng, 8, k8)
        p, q = _fraction_poly(ref, 8, 3, 0.4), _fraction_poly(ref, 8, 3, 0.4)
        assert [LaurentPoly(laurent.unpack(H, -8, k8)) for H in x] == [
            p, barred(p), q, barred(q)]
        assert all(type(H) is int for H in x)
        assert rng.getstate() == ref.getstate()
        X, Xb, R = random_cm4(rng, 4, k)
        rows, refl = _fraction_cm4(ref, 4)
        assert _decoded(X, -4, k) == rows
        assert _decoded(Xb, -4, k) == [[barred(e) for e in row] for row in rows]
        assert R == refl and all(type(a) is int for row in R for a in row)
        assert rng.getstate() == ref.getstate()


# (max_deg, bound, density): the checks' own, then the corners
SAMPLER_CASES = [(8, 3, 0.4), (4, 2, 0.35), (0, 3, 0.4), (5, 0, 0.5), (6, 3, 0.0),
                 (6, 3, 1.0), (0, 0, 1.0), (3, 7, 1.0), (2, 1, 0.0)]


@pytest.mark.parametrize("case", SAMPLER_CASES, ids=str)
def test_packed_samples_equal_the_reference_draws(case):
    # the packed sampler draws exactly what the dict sampler drew: the same
    # polynomial and its bar, from the same numbers in the same order
    max_deg, bound, density = case
    # one bit above the least width holding [-bound, bound], so that a draw
    # one past the bound still decodes (and unpack never runs at width 1)
    k = bound.bit_length() + 2
    for seed in range(64):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            P, Pb = sample_pair(rng, max_deg, bound, density, k)
            p = random_poly(ref, max_deg, bound, density)
            assert laurent.unpack(P, -max_deg, k) == p
            assert laurent.unpack(Pb, -max_deg, k) == laurent.bar(p)
            assert (P, Pb) == pack_pair(p, -max_deg, k)
            assert rng.getstate() == ref.getstate()
        x, y = sample_crossed(rng, max_deg, WIDE), random_crossed(ref, max_deg)
        assert x == pack_crossed(y, -max_deg, WIDE)
        assert rng.getstate() == ref.getstate()


def test_draw_is_randint():
    # a seed names the samples rng.randint(-b, b) drew on the running
    # interpreter; draw must make the same draws without its frames
    for bound in range(40):
        rng, ref = random.Random(bound), random.Random(bound)
        assert [draw(rng, bound) for _ in range(300)] == [
            ref.randint(-bound, bound) for _ in range(300)]
        assert rng.getstate() == ref.getstate()


def test_hom_checks_catch_wrong_maps(monkeypatch):
    # guards against the checks passing vacuously: each must fail on a
    # map that is wrong
    real_spectrum, real_psi = crossprod.spectrum_map, crossprod.psi_embed

    def transposed(x):
        # the sign of the anti-balanced part of q flipped: an
        # anti-homomorphism, still inside the constrained matrices
        p, pb, q, qb = x
        b, a, c, d = p + pb, p - pb, q + qb, q - qb
        return (((b + c, a - d), (a + d, b - c)),
                ((b + c, d - a), (-a - d, b - c)))

    def multiplies_lower_left(m, lo, k):
        # multiplies the lower left entry by t - 1/t instead of dividing
        out, at_one, at_minus_one = real_spectrum(m, lo, k)
        g = (1 << 2 * k) - 1
        (a, b), (_, d) = out[0]
        (ab, bb), (_, db) = out[1]
        lower_left, lower_left_bar = m[0][1][0] * g, -m[1][1][0] * g
        return ((((a, b), (lower_left, d)), ((ab, bb), (lower_left_bar, db))),
                at_one, at_minus_one)

    def unbarred_psi(lam, x, lo, k):
        # the lower block [[p, q], [bar q, bar p]]
        p, pb, q, qb = x
        return real_psi(lam, (p, pb, qb, q), lo, k)

    with monkeypatch.context() as mp:
        mp.setattr(crossprod, "matrix_realization", transposed)
        assert check_realization_hom(20, 8, 0)["failures"] > 0
        # the spectrum check tests the straightening on whatever
        # constrained matrices it is given, so a wrong realization that
        # stays constrained cannot fail it; a wrong straightening must
        assert check_spectrum_hom(20, 8, 0)["failures"] == 0
    with monkeypatch.context() as mp:
        mp.setattr(crossprod, "spectrum_map", multiplies_lower_left)
        assert check_spectrum_hom(20, 8, 0)["failures"] > 0
    with monkeypatch.context() as mp:
        mp.setattr(crossprod, "psi_embed", unbarred_psi)
        assert check_psi_hom(20, 8, 0)["failures"] > 0


def test_associativity_check_catches_wrong_products(monkeypatch):
    real = crossprod.cm4_mul

    def transposes_second(x, y):
        # X Y^T keeps the bar ties and the balanced block, but is not
        # associative
        Y, Yb, S = y
        return real(x, tuple(tuple(zip(*m)) for m in (Y, Yb, S)))

    def drops_bars(x, y):
        # the entries right, their bars taken to be the entries
        Z, _, R = real(x, y)
        return Z, Z, R

    with monkeypatch.context() as mp:
        mp.setattr(crossprod, "cm4_mul", transposes_second)
        assert check_cm4_associativity(20, 4, 0)["failures"] > 0
    with monkeypatch.context() as mp:
        mp.setattr(crossprod, "cm4_mul", drops_bars)
        with pytest.raises(CrossProdError, match="bar ties"):
            check_cm4_associativity(20, 4, 0)


def test_hom_checks_build_no_fraction(monkeypatch):
    built = []
    real_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert len(built) >= 3  # the counter sees constructions
    built.clear()
    check_realization_hom()
    check_spectrum_hom()
    check_psi_hom()
    check_cm4_associativity()
    assert len(built) == 0


def test_pack_collides_below_the_width_bound():
    # t - 2^k and 0 pack to the same int at width k, since the coefficient
    # 2^k is not below 2^(k-1).  Packing is a ring homomorphism at every
    # width, so the packed comparisons of correct maps hold even at a width
    # that is too narrow (only the digits read at +-1 need it): the bound on
    # the compared entries below is what shows such a width
    k = hom_bits(8)["psi"]
    p = {1: 1, 0: -(1 << k)}
    assert laurent.pack(p, -8, k) == laurent.pack({}, -8, k) == 0
    assert laurent.unpack(laurent.pack(p, -8, k + 2), -8, k + 2) == p


WIDE = 64  # far above every check width: unpacked digits are the coefficients


def _largest_coefficient(*sheets):
    # a bar sheet holds the same coefficients mirrored, so entry sheets suffice
    return max(abs(c) for sheet in sheets for row in sheet for H in row
               for c in laurent.unpack(H, 0, WIDE).values())


@pytest.mark.parametrize("seed", range(16))
def test_compared_entries_fit_the_check_widths(seed):
    # each check's compared entries, recomputed at width WIDE: every
    # coefficient lies below 2^(k-1) for the check's own width k
    bits8, bits4 = hom_bits(8), hom_bits(4)
    rng, top = random.Random(seed), 0
    for _ in range(100):
        x, y = sample_crossed(rng, 8, WIDE), sample_crossed(rng, 8, WIDE)
        top = max(top, _largest_coefficient(
            matrix_realization(_double(crossed_mul(x, y)))[0],
            mat2_mul(matrix_realization(x), matrix_realization(y))[0]))
    assert top < 1 << bits8["realization"] - 1

    rng, top = random.Random(seed), 0
    for _ in range(100):
        x = matrix_realization(sample_crossed(rng, 8, WIDE))
        y = matrix_realization(sample_crossed(rng, 8, WIDE))
        xy = mat2_mul(x, y)
        mx, my, mz = (spectrum_map(m, lo, WIDE)[0] for m, lo in ((x, -8), (y, -8), (xy, -16)))
        top = max(top, _largest_coefficient(x[0], y[0], xy[0], mz[0], mat2_mul(mx, my)[0]))
    assert top < 1 << bits8["spectrum"] - 1

    rng, top = random.Random(seed), 0
    for _ in range(100):
        lam1, lam2 = draw(rng, 4), draw(rng, 4)
        x, y = sample_crossed(rng, 8, WIDE), sample_crossed(rng, 8, WIDE)
        lhs = psi_embed(lam1 * lam2, crossed_mul(x, y), -16, WIDE)
        rhs = cm4_mul(psi_embed(lam1, x, -8, WIDE), psi_embed(lam2, y, -8, WIDE))
        top = max(top, _largest_coefficient(lhs[0], rhs[0]))
    assert top < 1 << bits8["psi"] - 1

    rng, top = random.Random(seed), 0
    for _ in range(50):
        a, b, c = (random_cm4(rng, 4, WIDE) for _ in range(3))
        ab, bc = cm4_mul(a, b), cm4_mul(b, c)
        top = max(top, _largest_coefficient(ab[0], bc[0], cm4_mul(ab, c)[0], cm4_mul(a, bc)[0]))
    assert top < 1 << bits4["cm4"] - 1


def test_injectivity_window():
    assert check_injectivity(8)


# ---- class functions ----------------------------------------------------------


def _single(field, value, lo=LO, refl=((0, 0), (0, 0))):
    return _cm4({field: value}, lo, refl)


def _zip_with(op, x, y):
    if isinstance(x, tuple):
        return tuple(_zip_with(op, a, b) for a, b in zip(x, y))
    return op(x, y)


RF11_ONE = ((1, 0), (0, 0))


def test_rf_requires_balanced_line():
    assert cm4_mul(_single("rf11", {0: 1}, refl=RF11_ONE), _single("rf11", {})) == _single(
        "rf11", {}, 2 * LO)
    # the packed product refuses an unbalanced pair-class line
    X, Xb, R = _single("rf11", {0: 1}, refl=RF11_ONE)
    t, t_inv = laurent.pack({1: 1}, LO, K), laurent.pack({-1: 1}, LO, K)
    X, Xb = ((t, 0, 0, 0),) + X[1:], ((t_inv, 0, 0, 0),) + Xb[1:]
    with pytest.raises(CrossProdError, match="balanced"):
        cm4_mul((X, Xb, R), _single("rf11", {0: 1}, refl=RF11_ONE))


def test_rf_ring_ops():
    # class functions multiply inside the upper left block of the product
    A = _single("rf11", {0: 2}, refl=((2, 0), (0, 0)))
    B = _single("rf11", {1: 1, -1: 1}, refl=((5, 0), (0, 0)))
    Z, Zb, R = cm4_mul(A, B)
    assert (Z[0][0], Zb[0][0]) == pack_pair({-1: 2, 1: 2}, 2 * LO, K)
    assert R[0][0] == 10
    assert _zip_with(operator.sub, _zip_with(operator.add, A, B), B) == A


# ---- constrained 4x4 model ------------------------------------------------------


def test_cm4_identity_and_partner_ties():
    # the identity packed at lowest exponent 0 keeps products at LO
    one = _cm4({"rf11": {0: 1}, "rf22": {0: 1}, "a33": {0: 1}}, 0, ((1, 0), (0, 1)))
    X, Xb, _ = _single("a33", {1: 1})
    assert X[2][2] == laurent.pack({1: 1}, LO, K)
    assert X[3][3] == laurent.pack({-1: 1}, LO, K)
    assert X[2][3] == 0
    assert (X[3][3], Xb[3][3]) == pack_pair({-1: 1}, LO, K)
    x = psi_embed(2, pk(crossed_t()), LO, K)
    assert cm4_mul(one, x) == x
    assert cm4_mul(x, one) == x


def test_cm4_partner_tie_under_sum():
    P = _single("a13", {0: 1})
    assert P[0][0][3] == laurent.pack({0: 1}, LO, K)
    s = _zip_with(operator.add, P, P)
    assert (s[0][0][3], s[1][0][3]) == pack_pair({0: 2}, LO, K)


# ---- modules at points ------------------------------------------------------------


def test_generic_points_give_one_four_dimensional_module():
    for z in (2, 3, Fraction(5, 2), -2, Fraction(7, 3)):
        out = evaluate_module(z)
        assert out["dims"] == [4]
        assert out["algebra_dim"] == 16
        assert out["split"] is None


def test_ramified_points_split_three_plus_one():
    for z in (1, -1):
        out = evaluate_module(z)
        assert out["dims"] == [3, 1]
        assert out["algebra_dim"] == 10
        assert out["split"]["V1"] == "span(e1, e2, e3 + e4)"
        assert out["split"]["V2"] == "span(e3 - e4)"
        assert out["split"]["restricted_ranks"] == [9, 1]


@pytest.mark.parametrize("v1", [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    [[0, 0, 1, 1]],
])
def test_non_invariant_subspace_is_rejected(monkeypatch, v1):
    for kind in (int, Fraction):
        monkeypatch.setattr(crossprod, "V1_BASIS", [[kind(x) for x in v] for v in v1])
        for z in (1, -1):
            with pytest.raises(crossprod.CrossProdError, match="not invariant"):
                evaluate_module(z)


def test_reflection_class_module():
    out = evaluate_reflection_class()
    assert out["dims"] == [2]
    assert out["algebra_dim"] == 4


def test_bottom_block_dims():
    assert [bottom_block_dim(z) for z in (2, 3, Fraction(5, 2))] == [4, 4, 4]
    assert [bottom_block_dim(z) for z in (1, -1)] == [2, 2]


def test_module_rejects_zero():
    with pytest.raises(LaurentError):
        evaluate_module(0)
    with pytest.raises(LaurentError):
        bottom_block_dim(0)


SCENARIO_POINTS = (2, 3, Fraction(5, 2), -2, Fraction(7, 3), 1, -1)


@pytest.mark.parametrize("z", SCENARIO_POINTS, ids=str)
def test_census_rows_match_the_packed_spanning_set(z):
    # an independent path to the census rows: pack each single-slot
    # spanning element, decode every entry and evaluate it as a polynomial
    expect = []
    for f in crossprod._FIELDS:
        if f.startswith("rf"):
            values = [acc_scaled({k: 1}, {-k: 1}, 1) for k in range(3)]
        else:
            values = [{k: 1} for k in range(-2, 3)]
        for v in values:
            X = _cm4({f: v}, -2)[0]
            expect.append([LaurentPoly(laurent.unpack(H, -2, K)).evaluate(z)
                           for row in X for H in row])
    assert crossprod._spanning_rows(Fraction(z)) == expect


@pytest.mark.parametrize("z", SCENARIO_POINTS, ids=str)
def test_census_matches_the_fraction_elimination(monkeypatch, z):
    # the same census with every rank taken by Gauss-Jordan over Fractions
    # on Fraction rows and bases, the eliminator's reference
    fast = evaluate_module(z), bottom_block_dim(z)
    calls = []

    def oracle_reduce(rows, ncols=None):
        calls.append(ncols)
        return fraction_row_reduce(rows, ncols)

    def oracle_rank(rows):
        calls.append(None)
        return fraction_rank(rows)

    monkeypatch.setattr(crossprod, "row_reduce", oracle_reduce)
    monkeypatch.setattr(crossprod, "matrix_rank", oracle_rank)
    monkeypatch.setattr(crossprod, "clear_denominators", lambda row: [Fraction(x) for x in row])
    for name in ("V1_BASIS", "V2_BASIS"):
        monkeypatch.setattr(crossprod, name,
                            [[Fraction(x) for x in v] for v in getattr(crossprod, name)])
    assert (evaluate_module(z), bottom_block_dim(z)) == fast
    # the spanning set and the bottom block, plus at z = +-1 two restricted
    # ranks of one elimination and one rank each
    assert len(calls) == (2 if z * z != 1 else 6)


def test_prim_census():
    assert [str(d) for d in prim_census()] == ["line/inv", "point", "point"]
