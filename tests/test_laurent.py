"""Exact Laurent polynomial arithmetic, bar symmetry, decomposition."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heckequot.laurent import (
    ONE,
    ZERO,
    BalancedPair,
    LaurentError,
    LaurentPoly,
    decompose,
    divide_by_generator,
    generator,
)

coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6), coeffs, max_size=6
).map(LaurentPoly)


def test_zero_strips_and_normalizes():
    p = LaurentPoly({3: 0, 1: 2, -1: Fraction(4, 2)})
    assert p.coeff(3) == 0
    assert p.coeff(1) == 2
    assert p.coeff(-1) == 2
    assert p == LaurentPoly({1: 2, -1: 2})
    assert not LaurentPoly({5: 0})
    assert LaurentPoly() == ZERO
    # an integral Fraction and the int it equals give one polynomial
    assert LaurentPoly({1: 2}) == LaurentPoly({1: Fraction(2)})
    assert hash(LaurentPoly({1: 2})) == hash(LaurentPoly({1: Fraction(2)}))
    assert len({LaurentPoly({1: 2}), LaurentPoly({1: Fraction(2)})}) == 1


def test_constructors():
    assert LaurentPoly.one() == LaurentPoly({0: 1}) == ONE
    assert LaurentPoly.const(7) == LaurentPoly({0: 7})
    assert LaurentPoly.monomial(-2, 3) == LaurentPoly({-2: 3})
    assert LaurentPoly.gen() == LaurentPoly({1: 1})
    assert generator() == LaurentPoly({1: 1, -1: -1})


def test_immutability():
    p = LaurentPoly({1: 1})
    with pytest.raises(AttributeError):
        p.c = {}


def test_ring_ops_small():
    v = LaurentPoly.monomial(1)
    vi = LaurentPoly.monomial(-1)
    assert v * vi == ONE
    assert (v + vi) ** 2 == LaurentPoly({2: 1, 0: 2, -2: 1})
    assert v - v == ZERO
    assert 2 - v == LaurentPoly({0: 2, 1: -1})
    assert (v + 1) * (v - 1) == LaurentPoly({2: 1, 0: -1})


def test_pow_rejects_negative_exponents():
    v = LaurentPoly.monomial(1)
    assert v ** 0 == ONE
    assert v ** 3 == LaurentPoly.monomial(3)
    with pytest.raises(LaurentError):
        v ** -1


def test_shifted():
    p = LaurentPoly({1: 1, 0: 2})
    assert p.shifted(-2) == LaurentPoly({-1: 1, -2: 2})
    assert p.shifted(1, scale=3) == LaurentPoly({2: 3, 1: 6})
    assert p.shifted(5, scale=0) == ZERO


def test_degree_valuation():
    p = LaurentPoly({4: 1, -2: 5})
    assert p.degree() == 4
    assert p.valuation() == -2


def test_bar_and_symmetry_flags():
    p = LaurentPoly({2: 1, -2: 1, 0: 3})
    assert p.bar() == p
    assert p.is_balanced()
    q = generator()
    assert q.bar() == -q
    assert q.is_antibalanced()
    assert not q.is_balanced()
    assert ZERO.is_balanced() and ZERO.is_antibalanced()


@given(polys)
def test_bar_is_an_involution(p):
    assert p.bar().bar() == p


@given(polys, polys)
def test_bar_is_a_ring_map(p, q):
    assert (p * q).bar() == p.bar() * q.bar()
    assert (p + q).bar() == p.bar() + q.bar()


@given(polys)
def test_decompose_reassembles_and_splits_correctly(p):
    pair = decompose(p)
    assert isinstance(pair, BalancedPair)
    assert pair.total() == p
    assert pair.balanced.is_balanced()
    assert pair.antibalanced.is_antibalanced()


def _naive_product(p, q):
    out = {}
    for e1, a1 in p.c.items():
        for e2, a2 in q.c.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + Fraction(a1) * Fraction(a2)
    return {e: a for e, a in out.items() if a}


def _naive_split(p):
    bal, ant = {}, {}
    for e in set(p.c) | {-e for e in p.c}:
        a, m = Fraction(p.coeff(e)), Fraction(p.coeff(-e))
        bal[e], ant[e] = (a + m) / 2, (a - m) / 2
    return ({e: a for e, a in bal.items() if a}, {e: a for e, a in ant.items() if a})


def _int_exactly_when_integral(p):
    return all((type(a) is int) == (Fraction(a).denominator == 1) for a in p.c.values())


@given(polys, polys, coeffs.filter(bool))
def test_product_split_and_value_match_fraction_arithmetic(p, q, x):
    # the integer-first kernel against plain Fraction arithmetic, on
    # inputs mixing ints, integral Fractions and proper Fractions
    assert p.evaluate(x) == sum(Fraction(a) * Fraction(x) ** e for e, a in p.c.items())
    assert type(p.evaluate(x)) is Fraction
    prod = p * q
    assert prod.c == _naive_product(p, q)
    assert _int_exactly_when_integral(prod)
    pair = decompose(p)
    assert (pair.balanced.c, pair.antibalanced.c) == _naive_split(p)
    assert _int_exactly_when_integral(pair.balanced)
    assert _int_exactly_when_integral(pair.antibalanced)


def test_decompose_one_sided_exponents():
    # regression: an exponent whose mirror is absent still needs both
    # halves recorded on the mirror side
    p = LaurentPoly({-3: 3, -1: -3})
    pair = decompose(p)
    assert pair.balanced.is_balanced()
    assert pair.antibalanced.is_antibalanced()
    assert pair.total() == p
    assert pair.balanced == LaurentPoly(
        {3: Fraction(3, 2), -3: Fraction(3, 2), 1: Fraction(-3, 2), -1: Fraction(-3, 2)}
    )


def test_divide_by_generator_telescopes():
    g = generator()
    for n in range(1, 7):
        p = LaurentPoly.monomial(n) - LaurentPoly.monomial(-n)
        q = divide_by_generator(p)
        assert q * g == p
    assert divide_by_generator(ZERO) == ZERO


def test_divide_by_generator_rejects_remainders():
    with pytest.raises(LaurentError):
        divide_by_generator(ONE)
    with pytest.raises(LaurentError):
        divide_by_generator(LaurentPoly({2: 1}))


@given(polys)
def test_divide_by_generator_is_a_section(p):
    # any anti-balanced polynomial is an exact multiple of the generator
    ant = decompose(p).antibalanced
    assert divide_by_generator(ant) * generator() == ant


def test_max_nonneg_part_is_balanced_extension():
    p = LaurentPoly({3: 2, 0: 1, -2: 7})
    out = p.max_nonneg_part()
    assert out == LaurentPoly({3: 2, -3: 2, 0: 1})
    assert out.is_balanced()
    assert ZERO.max_nonneg_part() == ZERO


def test_evaluate_exact():
    p = LaurentPoly({2: 1, 0: -2, -1: Fraction(1, 3)})
    x = Fraction(3, 2)
    assert p.evaluate(x) == x ** 2 - 2 + Fraction(1, 3) / x
    assert p.evaluate(1) == 1 - 2 + Fraction(1, 3)
    with pytest.raises(LaurentError):
        p.evaluate(0)


def test_to_str_examples():
    # terms print in ascending exponent order
    cases = {
        "0": {},
        "1": {0: 1},
        "v": {1: 1},
        "-v^-1": {-1: -1},
        "3*v^-2 + v": {-2: 3, 1: 1},
        "v^-2 - 2 + v^2": {-2: 1, 0: -2, 2: 1},
        "1/2*v^-1 + 1/2*v": {-1: Fraction(1, 2), 1: Fraction(1, 2)},
        "-2/3 - v^3": {0: Fraction(-2, 3), 3: -1},
    }
    for text, c in cases.items():
        assert LaurentPoly(c).to_str() == text
    assert LaurentPoly({1: 1}).to_str("q") == "q"
    # every polynomial on v^-1, 1, v with small coefficients prints distinctly
    small = [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]
    texts = {LaurentPoly(dict(zip((-1, 0, 1), cs))).to_str()
             for cs in itertools.product(small, repeat=3)}
    assert len(texts) == len(small) ** 3


# few enough polynomials that equal and nearly equal pairs come up often
small_polys = st.dictionaries(
    st.integers(min_value=-1, max_value=1),
    st.sampled_from([-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2]),
    max_size=3,
).map(LaurentPoly)


@given(small_polys, small_polys)
def test_to_str_injective(p, q):
    # reports and cache P lines identify a polynomial by its text
    assert (p.to_str() == q.to_str()) == (p == q)
