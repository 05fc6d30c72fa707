"""Exact coefficient ring: Gaussian rationals with formal hbar and s.

Every coefficient in this package is a finite sum

    sum_{k,j}  c[k,j] * hbar**k * s**j

with Gaussian-rational c[k,j], integer k, and nonnegative integer j.
Negative k (inverse powers of hbar) may appear in intermediate results;
public bracket operations verify they have cancelled before returning.
There is no floating point anywhere.

`s` is the ordering parameter of the rest of the package.  It stays
formal through every computation; numeric values only ever enter through
``substitute`` / ``subs_s``, which are ring homomorphisms and therefore
commute with everything else.
"""

from fractions import Fraction

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


class NegativeHbarPower(ArithmeticError):
    """An inverse power of hbar survived where it must have cancelled."""


def _frac(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class GaussianRational:
    """An exact complex number re + im*i with rational parts.

    Values are immutable; Fraction keeps both parts reduced with a
    positive denominator, so equal numbers are structurally equal.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # Equal to a plain rational when real, so it must hash like one.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _coerce_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __truediv__(self, other):
        other = _coerce_gaussian(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        return self * GaussianRational(other.re / norm, -other.im / norm)

    def __rtruediv__(self, other):
        other = _coerce_gaussian(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise ValueError("GaussianRational powers must be integers")
        base = self if exponent >= 0 else GaussianRational(1) / self
        out = GaussianRational(1)
        for _ in range(abs(exponent)):
            out = out * base
        return out

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce_gaussian(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
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
        if not self._terms:
            return hash(0)
        constant = self._terms.get((0, 0))
        if constant is not None and len(self._terms) == 1:
            return hash(constant)
        return hash(tuple(self.sorted_terms()))

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
        if isinstance(other, (int, Fraction, GaussianRational)):
            factor = _coerce_gaussian(other)
            if not factor:
                return ZERO
            return Scalar._raw(
                {key: coeff * factor for key, coeff in self._terms.items()}
            )
        if not isinstance(other, Scalar):
            return NotImplemented
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
        out = ONE
        for _ in range(exponent):
            out = out * self
        return out

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
        for (k, j), coeff in self._terms.items():
            if s_value is not None:
                coeff = coeff * s_value**j
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
    if isinstance(value, (int, Fraction, GaussianRational)):
        coeff = _coerce_gaussian(value)
        return Scalar._raw({(0, 0): coeff} if coeff else {})
    return None


ZERO = Scalar._raw({})
ONE = Scalar.constant(1)
I = Scalar.constant(0, 1)
HBAR = Scalar.term(1, 0)
S = Scalar.term(0, 1)
I_OVER_HBAR = Scalar.term(-1, 0, GaussianRational(0, 1))
# 1/(i*hbar) = -i/hbar, so this constant serves both roles.
NEG_I_OVER_HBAR = Scalar.term(-1, 0, GaussianRational(0, -1))
