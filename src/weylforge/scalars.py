"""Exact numbers: Gaussian rationals, the base of the coefficient ring.

GaussianRational is an exact complex number (a + b*i)/d with integer a,
b and d.  The coefficient ring itself, Gaussian rationals with formal
hbar and s, is polynomial.Scalar, the sparse polynomial over no dofs;
this module supplies only the numbers it is made of, the bounded power,
and the coercions of int and Fraction.  There is no floating point
anywhere.
"""

from fractions import Fraction
from math import gcd as _gcd

__all__ = ["GaussianRational", "NegativeHbarPower"]

# Largest size, in bits of numerator or denominator, of a power of a
# Gaussian rational.  It keeps every such power well inside what prints
# as a decimal (Python refuses ints of more than 4300 digits, ~14300
# bits) and bounds the time a power can take.
MAX_POWER_BITS = 10000


class NegativeHbarPower(ArithmeticError):
    """An inverse power of hbar survived where it must have cancelled."""


def _frac(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class GaussianRational:
    """An exact complex number (a + b*i)/d with integer a, b, d.

    Values are immutable and kept canonical: d > 0 and
    gcd(a, b, d) == 1, so zero is (0, 0, 1) and equal numbers are
    structurally equal.  Ring arithmetic works on the three integers
    alone; ``re`` and ``im`` hand out the parts as Fractions for
    parsing, rendering and comparison at the edges.  A real value
    equals, and hashes like, the int or Fraction it stands for.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re = _frac(re)
        im = _frac(im)
        d = re.denominator * im.denominator
        self._a, self._b, self._d = _reduced(
            re.numerator * im.denominator, im.numerator * re.denominator, d
        )

    @classmethod
    def _raw(cls, a, b, d):
        # Trusted constructor: (a, b, d) already canonical.
        out = object.__new__(cls)
        out._a = a
        out._b = b
        out._d = d
        return out

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (
                self._a == other._a and self._b == other._b and self._d == other._d
            )
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                not self._b
                and self._d == other.denominator
                and self._a == other.numerator
            )
        return NotImplemented

    def __hash__(self):
        # Equal to a plain rational when real, so it must hash like one.
        if not self._b:
            return hash(self.re)
        return hash((self._a, self._b, self._d))

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce_gaussian(other)
            if other is None:
                return NotImplemented
        d1 = self._d
        d2 = other._d
        if d1 == d2:
            a = self._a + other._a
            b = self._b + other._b
            if d1 == 1:
                return _new(a, b, 1)
        else:
            a = self._a * d2 + other._a * d1
            b = self._b * d2 + other._b * d1
            d1 *= d2
        g = _gcd(a, b, d1)
        if g == 1:
            return _new(a, b, d1)
        return _new(a // g, b // g, d1 // g)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce_gaussian(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_gaussian(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce_gaussian(other)
            if other is None:
                return NotImplemented
        a1 = self._a
        b1 = self._b
        a2 = other._a
        b2 = other._b
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        d = self._d * other._d
        if d == 1:
            return _new(a, b, 1)
        g = _gcd(a, b, d)
        if g == 1:
            return _new(a, b, d)
        return _new(a // g, b // g, d // g)

    __rmul__ = __mul__

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __truediv__(self, other):
        other = _coerce_gaussian(other)
        if other is None:
            return NotImplemented
        a2 = other._a
        b2 = other._b
        norm = a2 * a2 + b2 * b2
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i)/norm
        a1 = self._a
        b1 = self._b
        d2 = other._d
        a, b, d = _reduced(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * norm
        )
        return _new(a, b, d)

    def __rtruediv__(self, other):
        other = _coerce_gaussian(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent):
        """Integer power; refused past MAX_POWER_BITS before any work.

        The size is bounded by the exponent times the bits of the base's
        norm (halved, for the numerator) and of its denominator, so a
        unit-modulus base such as i never grows.
        """
        if not isinstance(exponent, int):
            raise ValueError("GaussianRational powers must be integers")
        base = self if exponent >= 0 else _new(1, 0, 1) / self
        exponent = abs(exponent)
        norm = base._a * base._a + base._b * base._b
        # twice the bound, to keep the halving exact
        bits2 = exponent * max(
            (norm - 1).bit_length(), 2 * (base._d - 1).bit_length()
        )
        if bits2 > 2 * MAX_POWER_BITS:
            raise ValueError(
                f"power of about {bits2 // 2} bits exceeds the limit of "
                f"{MAX_POWER_BITS} bits"
            )
        return _power(_new(1, 0, 1), base, exponent)

    def conjugate(self):
        return _new(self._a, -self._b, self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = GaussianRational._raw


def _power(one, base, exponent):
    """base**exponent for a nonnegative int exponent, by repeated squaring:
    one multiplication per bit and one per set bit, not one per unit."""
    out = one
    while exponent:
        if exponent & 1:
            out = out * base
        exponent >>= 1
        if exponent:
            base = base * base
    return out


def _reduced(a, b, d):
    """(a, b, d) divided through by gcd(a, b, d), for positive d."""
    g = _gcd(a, b, d)
    return a // g, b // g, d // g


def _coerce_gaussian(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _new(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _new(value.numerator, 0, value.denominator)
    return None
