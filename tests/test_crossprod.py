"""Crossed product of the Laurent line by inversion, and its matrix models."""

import random
from fractions import Fraction

import pytest

from heckequot import crossprod, laurent
from heckequot.laurent import LaurentError, LaurentPoly, parse
from heckequot.crossprod import (
    ConstrainedMatrix4,
    CrossProdError,
    RF,
    bottom_block_dim,
    check_cm4_associativity,
    check_injectivity,
    check_psi_hom,
    check_realization_hom,
    check_spectrum_hom,
    cm4_one,
    cm4_single,
    constrained2,
    crossed_alpha,
    crossed_one,
    crossed_t,
    evaluate_module,
    evaluate_reflection_class,
    ind,
    mat2_mul,
    matrix_realization,
    prim_census,
    psi_embed,
    random_cm4,
    random_crossed,
    res,
    rf_one,
    rf_scalar,
    rf_zero,
    spectrum_map,
)

HALF = Fraction(1, 2)


# ---- crossed algebra --------------------------------------------------------


def test_defining_relations():
    one, alpha, t = crossed_one(), crossed_alpha(), crossed_t()
    assert (alpha * alpha - one).is_zero()
    assert (alpha * t * alpha - crossed_t(-1)).is_zero()
    assert (t * crossed_t(-1) - one).is_zero()
    assert not (t * alpha - alpha * t).is_zero()


def test_realization_frozen_matrices():
    sym = LaurentPoly({1: HALF, -1: HALF})
    asym = LaurentPoly({1: HALF, -1: -HALF})
    assert matrix_realization(crossed_t()) == ((sym, asym), (asym, sym))
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    assert matrix_realization(crossed_alpha()) == ((one, zero), (zero, -one))


def test_realization_hom_deterministic():
    one, alpha, t = crossed_one(), crossed_alpha(), crossed_t()
    pool = [one, alpha, t, crossed_t(-1), crossed_t(2), alpha * t, t + alpha]
    for x in pool:
        for y in pool:
            assert matrix_realization(x * y) == mat2_mul(
                matrix_realization(x), matrix_realization(y)
            )


def test_realization_images_are_constrained():
    for x in (crossed_one(), crossed_alpha(), crossed_t(3), crossed_t() * crossed_alpha()):
        assert constrained2(matrix_realization(x))
    v = LaurentPoly.gen()
    bad = ((v, LaurentPoly.zero()), (LaurentPoly.zero(), LaurentPoly.one()))
    assert not constrained2(bad)


def test_spectrum_of_alpha():
    m = matrix_realization(crossed_alpha())
    diag, at_one, at_minus_one = spectrum_map(m)
    assert diag == m
    assert at_one == Fraction(-1)
    assert at_minus_one == Fraction(-1)


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
    def poly():
        return _fraction_poly(rng, max_deg, 2, 0.35)

    def rf():
        p = poly()
        return RF(p + p.bar(), Fraction(rng.randint(-3, 3)))

    return ConstrainedMatrix4(rf(), rf(), rf(), rf(),
                              poly(), poly(), poly(), poly(), poly(), poly())


def _all_int(polys):
    return all(type(a) is int for p in polys for a in p.c.values())


def test_samples_equal_the_fraction_built_ones():
    # the report prints only checked/failures, so a changed sample would
    # pass the report's byte check unnoticed
    for seed in range(16):
        rng, ref = random.Random(seed), random.Random(seed)
        x = random_crossed(rng, 8)
        assert (x.p, x.q) == (_fraction_poly(ref, 8, 3, 0.4), _fraction_poly(ref, 8, 3, 0.4))
        assert _all_int([x.p, x.q])
        assert rng.getstate() == ref.getstate()
        m = random_cm4(rng, 4)
        assert m == _fraction_cm4(ref, 4)
        assert _all_int([getattr(m, f).line if f.startswith("rf") else getattr(m, f)
                         for f in crossprod._FIELDS])
        assert rng.getstate() == ref.getstate()


def test_hom_checks_catch_wrong_maps(monkeypatch):
    # guards against the checks passing vacuously: each must fail on a
    # map that is wrong
    real_spectrum = crossprod.spectrum_map

    def transposed(x):
        # the sign of the anti-balanced part of q flipped: an
        # anti-homomorphism, still inside the constrained matrices
        dp, dq = laurent.decompose(x.p), laurent.decompose(x.q)
        return ((dp.balanced + dq.balanced, dp.antibalanced - dq.antibalanced),
                (dp.antibalanced + dq.antibalanced, dp.balanced - dq.balanced))

    def multiplies_lower_left(m):
        # multiplies the lower left entry by t - 1/t instead of dividing
        out, at_one, at_minus_one = real_spectrum(m)
        lower_left = m[1][0] * laurent.generator()
        return (out[0], (lower_left, out[1][1])), at_one, at_minus_one

    def unbarred_psi(lam, x):
        z = LaurentPoly.zero()
        lam = rf_scalar(lam)
        return ConstrainedMatrix4(lam, rf_zero(), rf_zero(), lam,
                                  z, z, z, z, x.p, x.q)

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


def test_injectivity_window():
    assert check_injectivity(8)


# ---- class functions ----------------------------------------------------------


def test_rf_requires_balanced_line():
    with pytest.raises(CrossProdError):
        RF(LaurentPoly.gen(), Fraction(0))
    assert rf_one() * rf_zero() == RF(LaurentPoly.zero(), Fraction(0))


def test_ind_symmetrizes_res_restricts():
    p = parse("v^2 - 3 + v^-1")
    f = ind(p)
    assert f.refl == 0
    assert res(f) == p + p.bar()
    assert res(ind(p)).is_balanced()


def test_rf_ring_ops():
    a = rf_scalar(2)
    b = RF(parse("v + v^-1"), Fraction(5))
    assert (a * b).line == parse("2*v^-1 + 2*v")
    assert (a * b).refl == 10
    assert (a + b - b) == a


# ---- constrained 4x4 model ------------------------------------------------------


def test_cm4_identity_and_partner_ties():
    one = cm4_one()
    v = LaurentPoly.gen()
    m = cm4_single("a33", v)
    assert m.entry(3, 3) == v
    assert m.entry(4, 4) == LaurentPoly.monomial(-1)
    assert m.entry(3, 4) == LaurentPoly.zero()
    x = psi_embed(Fraction(2), crossed_t())
    assert (one * x - x).is_zero()
    assert (x * one - x).is_zero()


def test_cm4_partner_tie_under_sum():
    m = cm4_single("a13", LaurentPoly.one())
    assert m.entry(1, 4) == LaurentPoly.one()
    s = m + m
    assert s.entry(1, 4) == LaurentPoly.const(2)


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
    monkeypatch.setattr(crossprod, "V1_BASIS", [[Fraction(x) for x in v] for v in v1])
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


def test_prim_census():
    assert [str(d) for d in prim_census()] == ["line/inv", "point", "point"]
