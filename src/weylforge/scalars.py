"""Exact coefficient ring: Gaussian rationals with formal hbar and s.

Scalar is the coefficient type at the package's edges: polynomial
constructors take it, items() hands it out, and expressions evaluate to
it.  A Scalar is a finite sum

    sum_{k,j}  c[k,j] * hbar**k * s**j

with Gaussian-rational c[k,j], integer k, and nonnegative integer j.
Inside a polynomial the same values are stored flat, as Gaussian-integer
numerators over one shared denominator (see polynomial), and products
run on those integers; this module supplies the class powers and
constants they meet.
Negative k (inverse powers of hbar) may appear in intermediate results;
public bracket operations verify they have cancelled before returning.
There is no floating point anywhere.

`s` is the ordering parameter of the rest of the package.  It stays
formal through every computation; numeric values only ever enter through
``substitute`` / ``subs_s``, which are ring homomorphisms and therefore
commute with everything else.
"""

from fractions import Fraction
from math import gcd as _gcd

__all__ = [
    "GaussianRational",
    "Scalar",
    "NegativeHbarPower",
    "ZERO",
    "ONE",
    "I",
    "HBAR",
    "S",
    "I_OVER_HBAR",
    "NEG_I_OVER_HBAR",
]

_CONJ_RULES = ("fix_s", "negate_s")

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


class Scalar:
    """A polynomial in formal s times a Laurent polynomial in hbar.

    Stored sparsely as {(hbar_exp, s_exp): GaussianRational} with zero
    coefficients dropped, so equality is structural.  Iteration for
    printing and serialization is always in sorted exponent order.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                k, j = key
                if not isinstance(k, int) or not isinstance(j, int):
                    raise TypeError("Scalar exponents must be integers")
                if j < 0:
                    raise ValueError("negative powers of s are not part of the ring")
                coeff = _coerce_gaussian(coeff)
                if coeff is None:
                    raise TypeError("Scalar coefficients must be Gaussian rationals")
                if coeff:
                    clean[(k, j)] = coeff
        self._terms = clean

    @classmethod
    def _raw(cls, terms):
        # Trusted constructor: terms already canonical, ownership transferred.
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def constant(cls, re, im=0):
        if isinstance(re, GaussianRational):
            coeff = re + GaussianRational(0, 1) * im
        else:
            coeff = GaussianRational(re, im)
        return cls._raw({(0, 0): coeff} if coeff else {})

    @classmethod
    def term(cls, hbar_exp, s_exp, coeff=1):
        coeff = _coerce_gaussian(coeff)
        return cls._raw({(hbar_exp, s_exp): coeff} if coeff else {})

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self):
        return not self._terms

    def sorted_terms(self):
        """Terms as a list sorted by (hbar_exp, s_exp)."""
        return sorted(self._terms.items())

    def items(self):
        return self._terms.items()

    def __eq__(self, other):
        other = _coerce_scalar(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # A constant equals its coefficient (and zero equals 0), so it
        # must hash like one.
        constant = self.as_constant()
        if constant is not None:
            return hash(constant)
        return hash(tuple(self.sorted_terms()))

    def as_constant(self):
        """The value as a GaussianRational when free of hbar and s, else None."""
        if not self._terms:
            return GaussianRational(0)
        if len(self._terms) == 1:
            return self._terms.get((0, 0))
        return None

    def __add__(self, other):
        other = _coerce_scalar(other)
        if other is None:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            got = merged.get(key)
            total = coeff if got is None else got + coeff
            if total:
                merged[key] = total
            elif got is not None:
                del merged[key]
        return Scalar._raw(merged)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_scalar(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_scalar(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Scalar._raw({key: -coeff for key, coeff in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            factor = _coerce_gaussian(other)
            if factor is None:
                return NotImplemented
            if not factor:
                return ZERO
            return Scalar._raw(
                {key: coeff * factor for key, coeff in self._terms.items()}
            )
        if not self._terms or not other._terms:
            return ZERO
        out = {}
        for (k1, j1), c1 in self._terms.items():
            for (k2, j2), c2 in other._terms.items():
                key = (k1 + k2, j1 + j2)
                prod = c1 * c2
                got = out.get(key)
                total = prod if got is None else got + prod
                if total:
                    out[key] = total
                elif got is not None:
                    del out[key]
        return Scalar._raw(out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("Scalar powers must be nonnegative integers")
        constant = self.as_constant()
        if constant is not None:
            return _coerce_scalar(constant**exponent)
        return _power(ONE, self, exponent)

    def conjugate(self, s_rule="fix_s"):
        """Complex conjugation, with a declared convention for formal s.

        ``fix_s`` treats s as real (s stays put); ``negate_s`` treats s as
        pure imaginary (s -> -s alongside i -> -i).  Both are involutions.
        """
        if s_rule not in _CONJ_RULES:
            raise ValueError(f"unknown s_rule {s_rule!r}; expected one of {_CONJ_RULES}")
        flip = s_rule == "negate_s"
        out = {}
        for (k, j), coeff in self._terms.items():
            coeff = coeff.conjugate()
            if flip and j % 2:
                coeff = -coeff
            out[(k, j)] = coeff
        return Scalar._raw(out)

    def negate_s(self):
        """Substitute s -> -s."""
        return Scalar._raw(
            {
                key: (-coeff if key[1] % 2 else coeff)
                for key, coeff in self._terms.items()
            }
        )

    def substitute(self, s_value=None, hbar_value=None):
        """Evaluate at a numeric s and/or hbar; None leaves it formal.

        s_value may be any Gaussian rational; hbar_value must be a plain
        rational.  Substituting hbar = 0 into a term holding a negative
        hbar power raises ZeroDivisionError, as division by zero should.
        """
        if s_value is None and hbar_value is None:
            return self
        if s_value is not None:
            s_value = _coerce_gaussian(s_value)
            if s_value is None:
                raise TypeError("s_value must be an exact Gaussian rational")
        if hbar_value is not None:
            hbar_value = _frac(hbar_value)
        out = {}
        s_powers = [_new(1, 0, 1)]
        for (k, j), coeff in self._terms.items():
            if s_value is not None:
                while len(s_powers) <= j:
                    s_powers.append(s_powers[-1] * s_value)
                coeff = coeff * s_powers[j]
                j = 0
            if hbar_value is not None:
                coeff = coeff * hbar_value**k  # 0**negative raises ZeroDivisionError
                k = 0
            if not coeff:
                continue
            key = (k, j)
            got = out.get(key)
            total = coeff if got is None else got + coeff
            if total:
                out[key] = total
            elif got is not None:
                del out[key]
        return Scalar._raw(out)

    def subs_s(self, value):
        """Substitute an arbitrary Scalar for s (polynomial composition).

        ``a.subs_s(S)`` is the identity; ``a.subs_s(-S)`` equals
        ``a.negate_s()``.  The replacement value may involve hbar.
        """
        if not isinstance(value, Scalar):
            raise TypeError("subs_s expects a Scalar replacement")
        powers = {0: ONE}
        out = ZERO
        for (k, j), coeff in self.sorted_terms():
            power = powers.get(j)
            if power is None:
                power = value**j
                powers[j] = power
            out = out + Scalar.term(k, 0, coeff) * power
        return out

    def limit_hbar_zero(self):
        """Drop every positive power of hbar; negative powers are an error."""
        out = {}
        for (k, j), coeff in self._terms.items():
            if k < 0:
                raise NegativeHbarPower(
                    f"cannot take the hbar -> 0 limit of a term with hbar**{k}"
                )
            if k == 0:
                out[(0, j)] = coeff
        return Scalar._raw(out)

    def min_hbar_exp(self):
        """Lowest hbar exponent present, or None for the zero scalar."""
        if not self._terms:
            return None
        return min(k for k, _ in self._terms)

    def __repr__(self):
        if not self._terms:
            return "Scalar(0)"
        bits = []
        for (k, j), coeff in self.sorted_terms():
            piece = f"({coeff.re}{'+' if coeff.im >= 0 else '-'}{abs(coeff.im)}i)"
            if k:
                piece += f"*hbar^{k}"
            if j:
                piece += f"*s^{j}"
            bits.append(piece)
        return "Scalar(" + " + ".join(bits) + ")"


def _coerce_scalar(value):
    if isinstance(value, Scalar):
        return value
    coeff = _coerce_gaussian(value)
    if coeff is None:
        return None
    return Scalar._raw({(0, 0): coeff} if coeff else {})


ZERO = Scalar._raw({})
ONE = Scalar.constant(1)
I = Scalar.constant(0, 1)
HBAR = Scalar.term(1, 0)
S = Scalar.term(0, 1)
I_OVER_HBAR = Scalar.term(-1, 0, GaussianRational(0, 1))
# 1/(i*hbar) = -i/hbar, so this constant serves both roles.
NEG_I_OVER_HBAR = Scalar.term(-1, 0, GaussianRational(0, -1))
