"""Exact Laurent polynomial arithmetic, bar symmetry, decomposition."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from heckequot import laurent
from heckequot.laurent import (
    BalancedPair,
    LaurentError,
    LaurentPoly,
    acc_apply,
    acc_scaled,
    decompose,
    evaluate,
    pack,
    unpack,
)
from oracles import barred, monomial

coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6), coeffs, max_size=6
).map(LaurentPoly)


def test_zero_strips_and_normalizes():
    p = LaurentPoly({3: 0, 1: 2, -1: Fraction(4, 2)})
    assert p.c.get(3, 0) == 0
    assert p.c.get(1, 0) == 2
    assert p.c.get(-1, 0) == 2
    assert p == LaurentPoly({1: 2, -1: 2})
    assert not LaurentPoly({5: 0})
    assert LaurentPoly() == LaurentPoly({0: 0})
    # an integral Fraction and the int it equals give one polynomial
    assert LaurentPoly({1: 2}) == LaurentPoly({1: Fraction(2)})
    assert hash(LaurentPoly({1: 2})) == hash(LaurentPoly({1: Fraction(2)}))
    assert len({LaurentPoly({1: 2}), LaurentPoly({1: Fraction(2)})}) == 1


def test_a_constant_hashes_as_the_value_it_equals():
    # == holds between a constant and its value, so hash must agree too
    for a in (3, -1, Fraction(1, 2), Fraction(4, 2), Fraction(0), 0):
        assert LaurentPoly.const(a) == a
        assert hash(LaurentPoly.const(a)) == hash(a)
        assert len({a, LaurentPoly.const(a)}) == 1
    assert len({3, LaurentPoly.const(3), LaurentPoly({0: Fraction(3)})}) == 1
    assert len({0, LaurentPoly(), LaurentPoly({2: 0})}) == 1
    assert len({3, LaurentPoly({1: 3})}) == 2


def test_constructors():
    assert LaurentPoly.one() == LaurentPoly({0: 1})
    assert LaurentPoly() == LaurentPoly({})
    assert LaurentPoly.const(7) == LaurentPoly({0: 7})
    assert monomial(-2, 3) == LaurentPoly({-2: 3})
    assert monomial(1) == LaurentPoly({1: 1})


def test_immutability():
    p = LaurentPoly({1: 1})
    with pytest.raises(AttributeError):
        p.c = {}


def test_ring_ops_small():
    v = monomial(1)
    vi = monomial(-1)
    assert v * vi == LaurentPoly.one()
    assert (v + vi) ** 2 == LaurentPoly({2: 1, 0: 2, -2: 1})
    assert v - v == LaurentPoly()
    assert 2 - v == LaurentPoly({0: 2, 1: -1})
    assert (v + 1) * (v - 1) == LaurentPoly({2: 1, 0: -1})


def test_pow_rejects_negative_exponents():
    v = monomial(1)
    assert v ** 0 == LaurentPoly.one()
    assert v ** 3 == monomial(3)
    with pytest.raises(LaurentError):
        v ** -1


def test_degree_valuation():
    p = LaurentPoly({4: 1, -2: 5})
    assert max(p.c) == 4
    # the valuation is the degree of the bar, negated
    assert -max(barred(p).c) == -2


def test_bar_and_symmetry_flags():
    p = LaurentPoly({2: 1, -2: 1, 0: 3})
    assert barred(p) == p
    q = LaurentPoly({1: 1, -1: -1})
    assert barred(q) == -q
    assert barred(q) != q
    assert barred(LaurentPoly()) == LaurentPoly() == -barred(LaurentPoly())


@given(polys)
def test_bar_is_an_involution(p):
    assert barred(barred(p)) == p


@given(polys, polys)
def test_bar_is_a_ring_map(p, q):
    assert barred(p * q) == barred(p) * barred(q)
    assert barred(p + q) == barred(p) + barred(q)


@given(polys)
def test_decompose_reassembles_and_splits_correctly(p):
    pair = decompose(p)
    assert isinstance(pair, BalancedPair)
    assert pair.balanced + pair.antibalanced == p
    assert barred(pair.balanced) == pair.balanced
    assert barred(pair.antibalanced) == -pair.antibalanced


def _naive_product(p, q):
    out = {}
    for e1, a1 in p.c.items():
        for e2, a2 in q.c.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + Fraction(a1) * Fraction(a2)
    return {e: a for e, a in out.items() if a}


def _naive_split(p):
    bal, ant = {}, {}
    for e in set(p.c) | {-e for e in p.c}:
        a, m = Fraction(p.c.get(e, 0)), Fraction(p.c.get(-e, 0))
        bal[e], ant[e] = (a + m) / 2, (a - m) / 2
    return ({e: a for e, a in bal.items() if a}, {e: a for e, a in ant.items() if a})


def _int_exactly_when_integral(p):
    return all((type(a) is int) == (Fraction(a).denominator == 1) for a in p.c.values())


@given(polys, polys, coeffs.filter(bool))
def test_product_split_and_value_match_fraction_arithmetic(p, q, x):
    # the kernels against plain Fraction arithmetic, on inputs mixing
    # ints, integral Fractions and proper Fractions; the split is
    # integer-first
    assert p.evaluate(x) == sum(Fraction(a) * Fraction(x) ** e for e, a in p.c.items())
    assert type(p.evaluate(x)) is Fraction
    assert (p * q).c == _naive_product(p, q)
    pair = decompose(p)
    assert (pair.balanced.c, pair.antibalanced.c) == _naive_split(p)
    assert _int_exactly_when_integral(pair.balanced)
    assert _int_exactly_when_integral(pair.antibalanced)


def test_decompose_one_sided_exponents():
    # regression: an exponent whose mirror is absent still needs both
    # halves recorded on the mirror side
    p = LaurentPoly({-3: 3, -1: -3})
    pair = decompose(p)
    assert barred(pair.balanced) == pair.balanced
    assert barred(pair.antibalanced) == -pair.antibalanced
    assert pair.balanced + pair.antibalanced == p
    assert pair.balanced == LaurentPoly(
        {3: Fraction(3, 2), -3: Fraction(3, 2), 1: Fraction(-3, 2), -1: Fraction(-3, 2)}
    )


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


# ---- raw sparse helpers -----------------------------------------------------

raw_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6), coeffs.filter(bool), max_size=6)
# few exponents and coefficients, so that terms cancel often
tiny_raw = st.dictionaries(
    st.integers(min_value=-1, max_value=1), st.sampled_from([-2, -1, 1, 2]), max_size=3)


@given(raw_polys, raw_polys, st.sampled_from([-1, 0, 1, 2, Fraction(1, 2)]))
def test_acc_scaled_is_the_termwise_sum(p, q, c):
    acc = dict(p)
    assert acc_scaled(acc, q, c) is acc
    expect = {e: p.get(e, 0) + c * q.get(e, 0) for e in [*p, *q]}
    assert acc == {e: a for e, a in expect.items() if a}
    # kept keys stay in place, new ones follow in q's order
    assert list(acc) == [e for e in expect if expect[e]]


def test_acc_scaled_sums_sparse_dicts_of_polynomials():
    acc = {1: LaurentPoly({1: 1}), 3: LaurentPoly.one()}
    acc_scaled(acc, {1: LaurentPoly({1: -1}), 2: LaurentPoly({-1: 2})}, 1)
    assert acc == {3: LaurentPoly.one(), 2: LaurentPoly({-1: 2})}


def _naive_apply(acc, cols, vec):
    out = {x: dict(q) for x, q in acc.items()}
    for w, p in vec.items():
        for x, q in cols[w].items():
            d = out.setdefault(x, {})
            for e1, a1 in q.items():
                for e2, a2 in p.items():
                    d[e1 + e2] = d.get(e1 + e2, 0) + a1 * a2
    return {x: {e: a for e, a in d.items() if a} for x, d in out.items()}


@given(st.dictionaries(st.integers(0, 3), tiny_raw, max_size=3),
       st.lists(st.dictionaries(st.integers(0, 3), tiny_raw, max_size=3), min_size=4, max_size=4),
       st.dictionaries(st.integers(0, 3), tiny_raw, max_size=4))
def test_acc_apply_is_the_double_sum(acc, cols, vec):
    # keys whose sum cancels are kept as empty dicts, for the caller to drop
    expect = _naive_apply(acc, cols, vec)
    acc = {x: dict(q) for x, q in acc.items()}
    assert acc_apply(acc, cols.__getitem__, vec) is acc
    assert acc == expect


def test_acc_apply_keeps_a_cancelled_key_empty():
    cols = {0: {5: {1: 1}, 6: {0: 1}}, 1: {5: {1: -1}}}
    assert acc_apply({}, cols.__getitem__, {0: {0: 1}, 1: {0: 1}}) == {5: {}, 6: {0: 1}}
    assert acc_apply({6: {0: 2}}, cols.__getitem__, {0: {-1: 3}}) == {6: {0: 2, -1: 3}, 5: {0: 3}}


@given(raw_polys, coeffs.filter(bool))
def test_evaluate_matches_the_method_and_a_power_sum(p, x):
    value = evaluate(p, x)
    assert type(value) is Fraction
    assert value == LaurentPoly(p).evaluate(x)
    assert value == sum(Fraction(a) * Fraction(x) ** e for e, a in p.items())
    with pytest.raises(LaurentError):
        evaluate(p, 0)


# ---- Kronecker packing ------------------------------------------------------

int_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-40, max_value=40),
    max_size=6,
).map(LaurentPoly)
widths = st.integers(min_value=1, max_value=14)


def test_pack_matches_the_definition_and_refuses_low_exponents():
    assert pack({-2: 3, 0: -1, 1: 5}, -3, 4) == 3 * 16 - 16 ** 3 + 5 * 16 ** 4
    assert pack({}, 7, 5) == 0
    with pytest.raises(ValueError):
        pack({-4: 1}, -3, 4)


@given(int_polys, st.integers(min_value=-9, max_value=0))
def test_unpack_inverts_pack_at_a_wide_enough_width(p, shift):
    # balanced digits decode exactly once every coefficient is below 2^(k-1);
    # the zero polynomial takes 2, the narrowest width unpack accepts
    k = max((abs(a) for a in p.c.values()), default=1).bit_length() + 1
    lo = min(p.c, default=0) + shift
    assert unpack(pack(p.c, lo, k), lo, k) == p.c


def test_unpack_refuses_a_width_below_two():
    # at width 1 the balanced digits are -1 and 0, and the digit loop maps
    # H = 1 onto itself while its dict grows; the refusal is run in a child
    # with a memory cap and a timeout, so a lost guard fails here and can
    # neither hang the suite nor fill the machine's memory
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from heckequot.laurent import LaurentError, unpack\n"
        "for H in (1, 2, 0, -1):\n"
        "    for k in (1, 0, -3):\n"
        "        try:\n"
        "            unpack(H, 0, k)\n"
        "        except LaurentError:\n"
        "            continue\n"
        "        raise SystemExit(f'unpack({H}, 0, {k}) was not refused')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(laurent.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_width_two_round_trips_the_coefficients_minus_two_to_one():
    # [-2^(k-1), 2^(k-1)) at k = 2, the narrowest width unpack accepts
    for lo in (-3, 0, 2):
        for cs in itertools.product(range(-2, 2), repeat=3):
            c = {lo + i: a for i, a in enumerate(cs) if a}
            assert unpack(pack(c, lo, 2), lo, 2) == c


@given(int_polys, int_polys, widths)
def test_pack_is_a_ring_homomorphism_at_every_width(p, q, k):
    # products land at the sum of the lowest exponents, sums at a common one
    P, Q = pack(p.c, -6, k), pack(q.c, -6, k)
    assert P * Q == pack((p * q).c, -12, k)
    assert P + Q == pack((p + q).c, -6, k)
    # t - 1/t packs as B^2 - 1 one exponent lower
    assert P * ((1 << 2 * k) - 1) == pack((p * LaurentPoly({1: 1, -1: -1})).c, -7, k)
