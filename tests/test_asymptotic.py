"""Asymptotic ring: unit, associativity, specializations, graded actions.

Checks run over the certified region of a radius-16 dihedral ball; pairs
whose products would touch uncertified territory are skipped and the skip
counts are frozen, so a silent loss of coverage fails the test.
"""

import contextlib
import copy
import itertools
import random
from fractions import Fraction

import pytest

from heckequot import asymptotic
from heckequot.coxeter import extended_affine_b2, infinite_dihedral
from heckequot.hecke import BallOverflowError, HeckeBall, HeckeError, UncertifiedError
from heckequot.laurent import LaurentPoly
from heckequot.asymptotic import (
    UNDECIDED,
    JElement,
    JRing,
    bernstein_central_dihedral,
    decide,
    specialize,
)
from oracles import (
    cdag_coords,
    cdag_to_t,
    check_hf_compat,
    check_jfh_compat,
    h_sum,
    hecke_element,
    j_mul_from_gamma,
    monomial,
    named,
    scaled_class,
    scaled_j,
)

SKIP = (UncertifiedError, BallOverflowError)


@pytest.fixture(scope="module")
def ring():
    hb = HeckeBall(infinite_dihedral(), 16)
    return hb, JRing(hb)


def certified(hb):
    return [x for x in hb.wp if hb.a_function(x)[1]]


# ---- the skip rule ------------------------------------------------------------


def test_decide_returns_failures_in_case_order():
    assert decide([5, 2, 4, 3, 6, 1], lambda n: n < 4) == (6, 0, [5, 4, 6])


def test_decide_skips_both_undecided_types():
    assert set(UNDECIDED) == {UncertifiedError, BallOverflowError}

    def check(n):
        if n == 1:
            raise UncertifiedError("uncertified")
        if n == 3:
            raise BallOverflowError("outside the ball")
        return n != 4

    assert decide(range(6), check) == (4, 2, [4])


@pytest.mark.parametrize("error", [HeckeError("plain"), ValueError("bug")])
def test_decide_lets_other_errors_through(error):
    def check(n):
        if n == 2:
            raise error
        return True

    with pytest.raises(type(error)):
        decide(range(4), check)


def test_decide_on_no_cases():
    assert decide([], lambda n: False) == (0, 0, [])


def test_unit_is_signed_sum_over_distinguished(ring):
    hb, J = ring
    u = J.unit()
    expect = {hb._idx(d): nd for d, nd in hb.distinguished_involutions()}
    assert u.coeffs == expect


def test_unit_law_certified(ring):
    hb, J = ring
    ok = skipped = 0
    for x in certified(hb):
        t_x = J.basis_element(x)
        try:
            assert J.j_mul(u := J.unit(), t_x) == t_x
            assert J.j_mul(t_x, u) == t_x
            ok += 1
        except SKIP:
            skipped += 1
    assert (ok, skipped) == (19, 2)


def test_associativity_exhaustive_small(ring):
    hb, J = ring
    small = [x for x in certified(hb) if x.length <= 3]
    count = 0
    for a, b, c in itertools.product(small, repeat=3):
        ta, tb, tc = (J.basis_element(w) for w in (a, b, c))
        assert J.j_mul(J.j_mul(ta, tb), tc) == J.j_mul(ta, J.j_mul(tb, tc))
        count += 1
    assert count == 343


def test_diagonal_idempotent(ring):
    hb, J = ring
    s1 = hb.pres.generator("s1")
    t = J.basis_element(s1)
    assert J.j_mul(t, t) == t


def test_jelement_algebra(ring):
    hb, J = ring
    s1 = hb.pres.generator("s1")
    s2 = hb.pres.generator("s2")
    a = J.basis_element(s1) + J.basis_element(s2, 2)
    assert a.support() == sorted([s1, s2], key=lambda x: x.key())
    assert (a - J.basis_element(s2, 2)) == J.basis_element(s1)
    assert scaled_j(a, 3).coeffs[hb._idx(s2)] == 6


def test_base_points_certified(ring):
    hb, J = ring
    ok = skipped = 0
    for x in certified(hb):
        try:
            assert J.base_point_check(x)
            ok += 1
        except SKIP:
            skipped += 1
    assert (ok, skipped) == (19, 2)


def test_cell_ideals_closed_and_cross_cell_gamma_zero(ring):
    # in-cell closure is what cell_ideal checks; cross-cell products vanish
    # by P8, since a nonzero gamma ties x, y and z into one cell
    hb, J = ring
    counts = []
    for cell in hb.cell_partition().certified_cells():
        res = J.cell_ideal(cell)
        assert res["closed"] and res["escapes"] == []
        counts.append((cell.a_value, res["checked_pairs"], res["skipped_pairs"]))
    assert counts == [(0, 1, 0), (1, 200, 160)]
    p8 = {c.name: c for c in hb.check_properties()}["P8"]
    assert not p8.counterexamples
    assert p8.checked == 489


def test_cell_ideal_of_big_cell(ring):
    hb, J = ring
    cp = hb.cell_partition()
    res = J.cell_ideal(cp.two_sided[1])
    assert res["closed"] is True
    assert res["escapes"] == []
    assert len(res["basis"]) == 20
    assert (res["checked_pairs"], res["skipped_pairs"]) == (200, 160)
    assert (res["unit_checked"], res["unit_skipped"]) == (18, 2)
    assert res["unit_failures"] == []


# ---- products on ball indices -------------------------------------------------


@pytest.mark.parametrize("factory, radius", [(infinite_dihedral, 16), (extended_affine_b2, 12)],
                         ids=["dihedral-r16", "b2-r12"])
def test_j_mul_matches_the_gamma_oracle(factory, radius):
    # every ordered pair of a pool that holds certified and uncertified
    # elements (both Omega cosets on B2, pairs over the budget on the
    # dihedral ball); then random combinations, whose refusals must come
    # from the same pair
    hb = HeckeBall(factory(), radius)
    J = JRing(hb)
    rng = random.Random(3)
    pool = [w for w in hb.ball if w.length <= 3 or w.length == radius // 2 + 1]
    # the support of phi(c_e) meets every certified cell (on B2, pairs of it
    # at different a-values have uncertified products)
    phi_e = J.phi(hb.kl_element(hb.pres.identity())).support()
    pool = phi_e + [w for w in rng.sample(pool, min(len(pool), 20)) if w not in phi_e]
    cases = [(J.basis_element(x), J.basis_element(y)) for x in pool for y in pool]
    for _ in range(30):
        a, b = (sum((J.basis_element(w, rng.choice([-2, 1, Fraction(1, 2)]))
                     for w in rng.sample(pool, rng.randint(1, 3))), JElement({}))
                for _ in range(2))
        cases.append((a, b))
    outcomes = [(_outcome(lambda p: J.j_mul(*p), c), _outcome(lambda p: j_mul_from_gamma(J, *p), c))
                for c in cases]
    for (got, want), c in zip(outcomes, cases):
        assert got == want, c
    kinds = {JElement if isinstance(got, JElement) else got for got, _ in outcomes}
    # at B2 r12 no certified pair is over the budget: l(z) <= R - 2m = R / 2
    assert kinds == {JElement, UncertifiedError} | (
        {BallOverflowError} if factory is infinite_dihedral else set())
    # the cross-cell rule decides pairs whose product the ball cannot certify
    cross = 0
    for x, y in itertools.product(pool, repeat=2):
        (ax, cx), (ay, cy) = hb.a_function(x), hb.a_function(y)
        if cx and cy and ax != ay and x.length + y.length <= radius:
            with contextlib.suppress(UncertifiedError):
                hb.gamma_row(x, y)
                continue
            cross += 1
    assert bool(cross) == (factory is extended_affine_b2)


def test_gamma_row_memo_repeats_rows_and_never_stores_a_refusal():
    # rows are looked up per ball-index pair, both Omega cosets included, and
    # checked against single gamma constants before and after the repeat
    hb = HeckeBall(extended_affine_b2(), 12)
    elems = hb.ball.elements
    pool = [i for i, w in enumerate(elems) if w.length <= 2 or w.length == 7]
    cert = [i for i, w in enumerate(elems) if hb.a_function(w)[1]]
    stored = refused = 0
    for i, j in itertools.product(pool, repeat=2):
        try:
            first = hb._gamma_row_idx(i, j)
        except UNDECIDED as e:
            assert (i, j) not in hb._gamma_rows
            with pytest.raises(type(e)):
                hb._gamma_row_idx(i, j)
            assert (i, j) not in hb._gamma_rows
            refused += 1
            continue
        want = {z: g for z in cert if (g := hb.gamma(elems[i], elems[j], elems[z]))}
        assert first == want, (i, j)
        assert hb._gamma_row_idx(i, j) == want and hb._gamma_rows[(i, j)] == want
        stored += 1
    assert len(hb._gamma_rows) == stored and stored and refused
    assert {hb._omi[i] for i, _ in hb._gamma_rows} == {hb._omi[j] for _, j in hb._gamma_rows} == {0, 1}


# ---- specialization ---------------------------------------------------------


def test_phi_of_generator_frozen(ring):
    hb, J = ring
    s1 = hb.pres.generator("s1")
    img = J.phi(hb.kl_element(s1))
    got = {hb.ball.elements[x].key_str(): p for x, p in img.coeffs.items()}
    assert got == {
        "-1;0": LaurentPoly.const(-1),
        "0;0": LaurentPoly({-1: 1, 1: 1}),
        "1;1": LaurentPoly({-1: 1, 1: 1}),
    }


def test_phi_q_evaluates_phi(ring):
    hb, J = ring
    s1 = hb.pres.generator("s1")
    c = hb.kl_element(s1)
    img = J.phi(c)
    for q, root in [(1, 1), (4, 2), (Fraction(9, 4), Fraction(3, 2))]:
        got = specialize(J.phi(c), q)
        expect = {x: p.evaluate(root) for x, p in img.coeffs.items()}
        assert {x: v for x, v in got.coeffs.items()} == expect


def test_phi_q_rejects_non_square(ring):
    hb, J = ring
    c = hb.kl_element(hb.pres.generator("s1"))
    for q in (2, 3, Fraction(1, 2), 0, -4):
        with pytest.raises(HeckeError):
            specialize(J.phi(c), q)
        with pytest.raises(HeckeError):  # a refusal is never remembered
            specialize(J.phi(c), q)


def test_specialize_takes_each_square_root_once(ring):
    # the phi-hom checks specialize hundreds of images at one or two q,
    # each a Fraction, as the command line parses it
    hb, J = ring
    img = J.phi(hb.kl_element(hb.pres.generator("s1")))
    asymptotic._sqrt_fraction.cache_clear()
    for q in map(Fraction, (4, 4, 1, Fraction(9, 4), 4, 1)):
        specialize(img, q)
    assert asymptotic._sqrt_fraction.cache_info().misses == 3


def test_phi_is_multiplicative(ring):
    hb, J = ring
    pool = [x for x in hb.wp if x.length <= 3]
    for q in (1, 4):
        for x, y in itertools.product(pool, repeat=2):
            lhs = specialize(J.phi(hb.mul_T(hb.kl_element(x), hb.kl_element(y))), q)
            rhs = J.j_mul(specialize(J.phi(hb.kl_element(x)), q), specialize(J.phi(hb.kl_element(y)), q))
            assert lhs == rhs, (x, y, q)


def test_cdag_coords_validates_basis(ring):
    hb, J = ring
    c = hb.kl_element(hb.pres.generator("s1"))
    bad = JElement.__new__(JElement)  # not a Hecke element at all
    with pytest.raises((HeckeError, AttributeError)):
        cdag_coords(J, bad)
    roundtrip = cdag_to_t(hb, cdag_coords(J, c.__class__("T", dict(c.terms))))
    assert roundtrip == c.__class__("T", dict(c.terms))


def _phi_oracle(J, h):
    """sum over x of [t_to_c(dagger(h))]_x phi(cdag_x), through the public
    basis changes: no memoized dagger coordinates of a T_w.  phi(cdag_x) runs
    in descending ball index, the order in which phi meets them."""
    hb, out = J.hb, JElement({})
    for x, p in named(hb.t_to_c(hb.dagger(h))).items():
        out = out + scaled_j(J.phi(hecke_element(hb, "cdag", {x: LaurentPoly.one()})), p)
    return out


def _outcome(f, h):
    try:
        return f(h)
    except UNDECIDED as e:
        return type(e)


@pytest.mark.parametrize("factory, radius", [(infinite_dihedral, 12), (extended_affine_b2, 8)],
                         ids=["dihedral-r12", "b2-r8"])
def test_phi_matches_the_dagger_coordinate_oracle(factory, radius):
    hb = HeckeBall(factory(), radius)
    J = JRing(hb)
    rng = random.Random(7)
    pool = list(hb.ball)

    def coeff():
        return LaurentPoly({e: rng.choice([-2, -1, 1, 2]) for e in rng.sample(range(-2, 3), 2)})

    cases = [hecke_element(hb, "T", {w: coeff() for w in rng.sample(pool, rng.randint(1, 4))})
             for _ in range(12)]
    # T-expansions of dagger-basis elements: nearly every term cancels in
    # the dagger coordinates, which are those of the cdag input
    for _ in range(6):
        coords = hecke_element(hb, "cdag", {w: coeff() for w in rng.sample(pool, rng.randint(1, 2))})
        h = cdag_to_t(hb, coords)
        assert cdag_coords(J, h) == coords
        cases.append(h)
        cases.append(h_sum(h, hecke_element(hb, "T", {rng.choice(pool): coeff()})))
    outcomes = [(_outcome(J.phi, h), _outcome(lambda h: _phi_oracle(J, h), h)) for h in cases]
    for got, want in outcomes:
        assert got == want
    # some cases are decided, and each refusal occurs: the overflow of a long
    # x, and on B2 the truncated left cells that nhat cannot read
    kinds = {JElement if isinstance(got, JElement) else got for got, _ in outcomes}
    assert kinds == {JElement, BallOverflowError} | (
        set() if factory is infinite_dihedral else {UncertifiedError})


def test_phi_leaves_the_dagger_memos_intact():
    # dagger and phi share the memoized t_to_c(dagger(T_w)), and
    # _t_to_c_idx accumulates into the polynomial dicts it is given: no
    # later call may write into a memoized column
    hb, fresh = HeckeBall(infinite_dihedral(), 12), HeckeBall(infinite_dihedral(), 12)
    J = JRing(hb)

    def element(ball):  # the same element, over either ball's presentation
        s1, s2 = ball.pres.generator("s1"), ball.pres.generator("s2")
        support = [s1 * s2 * s1, s2 * s1, s1, ball.pres.identity()]
        return hecke_element(ball, "T", {w: LaurentPoly({i: 1, -i: 1}) for i, w in enumerate(support)})

    def basis(ball):
        return [hecke_element(ball, "T", {w: LaurentPoly.one()}) for w in named(element(ball))]

    h = element(hb)
    for tw in basis(hb):
        hb.dagger(tw)
    first = J.phi(h)
    assert first.coeffs
    assert repr(first) == repr(_phi_oracle(JRing(fresh), element(fresh)))
    cdaggers = copy.deepcopy(hb._cdaggers)
    assert set(cdaggers) == {hb._idx(w) for w in named(h)}
    assert J.phi(h) == first
    for tw, fw in zip(basis(hb), basis(fresh)):
        assert repr(hb.dagger(tw)) == repr(fresh.dagger(fw))
        assert repr(hb.t_to_c(hb.dagger(tw))) == repr(fresh.t_to_c(fresh.dagger(fw)))
    assert hb._cdaggers == cdaggers


# ---- central elements ---------------------------------------------------------


def test_bernstein_element_is_central_in_t_basis(ring):
    hb, J = ring
    z = bernstein_central_dihedral(hb)
    for x in hb.wp:
        if x.length > 6:
            continue
        c = hb.kl_element(x)
        assert hb.mul_T(z, c) == hb.mul_T(c, z), x


def test_bernstein_element_terms(ring):
    hb, J = ring
    z = bernstein_central_dihedral(hb)
    gen = LaurentPoly({1: 1}) - monomial(-1)
    got = {x.key_str(): p for x, p in named(z).items()}
    assert got["0;0"] == gen * gen
    assert got["0;1"] == -gen
    assert got["1;1"] == -gen
    assert got["1;0"] == LaurentPoly.one()
    assert got["-1;0"] == LaurentPoly.one()
    assert len(got) == 5


def test_center_commutation(ring):
    hb, J = ring
    z = bernstein_central_dihedral(hb)
    r1, r4 = J.center_commutation_check(z, (1, 4))
    for res in (r1, r4):
        assert res["central"] is True
        assert res["failures"] == []
        assert (res["commuted"], res["skipped"]) == (15, 6)


# ---- graded classes ---------------------------------------------------------


def test_graded_compatibilities(ring):
    hb, J = ring
    s1 = hb.pres.generator("s1")
    h = hb.kl_element(s1)
    checked = 0
    for i in range(2):
        f = J.base_point(i)
        for q in (1, 4):
            try:
                assert check_hf_compat(J, h, f, q)
                assert check_jfh_compat(J, J.basis_element(s1), f, h, q)
                checked += 1
            except SKIP:
                pass
    assert checked == 4


def test_star_action_linear(ring):
    hb, J = ring
    s1 = hb.pres.generator("s1")
    f = J.base_point(0)
    g = J.star_action(J.basis_element(s1), f)
    two_g = J.star_action(J.basis_element(s1, 2), f)
    assert scaled_class(g, 2) == two_g
