"""Weyl algebra on polynomial operators: normal forms, products, adjoints.

The basis is the normal-ordered monomial family: per degree of freedom,
all position factors stand left of all momentum factors, and degrees of
freedom appear in index order.  Generators of distinct degrees of
freedom commute outright; within one, ph*qh = qh*ph - i*hbar sums to
the closed reordering identity

    ph^m qh^n = sum_k k! C(m,k) C(n,k) (-i*hbar)^k  qh^(n-k) ph^(m-k),

min(m, n) + 1 terms, through which every product, adjoint and word is
brought to normal form.  Coefficients are exact (see scalars).

The module also provides the one-parameter family of ordered monomials
interpolating between the standard (all positions left), antistandard,
and symmetric arrangements, in the closed form

    t(n, m) = sum_k k! C(n,k) C(m,k) ((1-s)/2)^k (-i*hbar)^k  qh^(n-k) ph^(m-k),

together with the change of basis in both directions.
"""

import functools
import itertools
import math
from fractions import Fraction

from .scalars import GaussianRational, Scalar, ONE

__all__ = [
    "OpPoly",
    "OpWord",
    "normalize",
    "commutator",
    "t_monomial",
    "to_t_basis",
]

# (-i)^k by k mod 4.
_MINUS_I_POWERS = (
    GaussianRational(1),
    GaussianRational(0, -1),
    GaussianRational(-1),
    GaussianRational(0, 1),
)


def _reorder_weight(k, m, n):
    """k! C(m,k) C(n,k): the k-th weight of ph^m qh^n, less (-i*hbar)^k."""
    return math.factorial(k) * math.comb(m, k) * math.comb(n, k)


@functools.cache
def _dof_pair(n1, m1, n2, m2):
    """Normal form of (qh^n1 ph^m1)(qh^n2 ph^m2) within one dof.

    The inner ph^m1 qh^n2 is reordered by the closed form, so the result
    has min(m1, n2) + 1 terms:
        sum_k k! C(m1,k) C(n2,k) (-i*hbar)^k  qh^(n1+n2-k) ph^(m1+m2-k).
    Returns {(n, m): Scalar}; callers must treat the dict as frozen.
    """
    return {
        (n1 + n2 - k, m1 + m2 - k): Scalar._raw(
            {(k, 0): _MINUS_I_POWERS[k % 4] * _reorder_weight(k, m1, n2)}
        )
        for k in range(min(m1, n2) + 1)
    }


def _combine_dof(partial, factor):
    # Tensor step: extend every accumulated key by one dof's (n, m) block.
    out = {}
    for pkey, pco in partial.items():
        for block, fco in factor.items():
            out[pkey + (block,)] = pco * fco
    return out


def _accumulate(terms, key, coeff):
    got = terms.get(key)
    total = coeff if got is None else got + coeff
    if total:
        terms[key] = total
    elif got is not None:
        del terms[key]


def _coerce_coeff(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return Scalar.term(0, 0, value)
    return None


class OpPoly:
    """Polynomial operator in canonical normal form.

    terms maps exponent vectors ((n1, m1), ..., (nd, md)) to Scalar
    coefficients; the vector stands for the product over dofs of
    qh_i^n_i ph_i^m_i.  Two OpPolys are equal exactly when their term
    maps are equal, so normal forms double as identity certificates.
    """

    __slots__ = ("dof_count", "_terms")

    def __init__(self, dof_count, terms=None):
        if not isinstance(dof_count, int) or dof_count < 1:
            raise ValueError("dof_count must be a positive integer")
        clean = {}
        if terms:
            for key, coeff in terms.items():
                key = tuple((int(n), int(m)) for n, m in key)
                if len(key) != dof_count:
                    raise ValueError("exponent vector length != dof_count")
                if any(n < 0 or m < 0 for n, m in key):
                    raise ValueError("negative exponents")
                coeff = _coerce_coeff(coeff)
                if coeff is None:
                    raise TypeError("coefficients must be Scalars")
                if coeff:
                    _accumulate(clean, key, coeff)
        self.dof_count = dof_count
        self._terms = clean

    @classmethod
    def _raw(cls, dof_count, terms):
        out = object.__new__(cls)
        out.dof_count = dof_count
        out._terms = terms
        return out

    @classmethod
    def zero(cls, dof_count=1):
        return cls._raw(dof_count, {})

    @classmethod
    def identity(cls, dof_count=1):
        return cls._raw(dof_count, {((0, 0),) * dof_count: ONE})

    @classmethod
    def generator(cls, kind, dof_index=0, dof_count=1):
        """qh or ph for one dof: kind is 'q' or 'p'."""
        if kind not in ("q", "p"):
            raise ValueError(f"kind must be 'q' or 'p', got {kind!r}")
        if not 0 <= dof_index < dof_count:
            raise IndexError("dof_index out of range")
        block = (1, 0) if kind == "q" else (0, 1)
        key = tuple(
            block if i == dof_index else (0, 0) for i in range(dof_count)
        )
        return cls._raw(dof_count, {key: ONE})

    @classmethod
    def monomial(cls, exponents, coeff=ONE):
        key = tuple((int(n), int(m)) for n, m in exponents)
        return cls(len(key), {key: coeff})

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self):
        return not self._terms

    def items(self):
        return self._terms.items()

    def sorted_terms(self):
        return sorted(self._terms.items())

    def _check_dof(self, other):
        if self.dof_count != other.dof_count:
            raise ValueError(
                f"dof_count mismatch: {self.dof_count} vs {other.dof_count}"
            )

    def __eq__(self, other):
        if not isinstance(other, OpPoly):
            return NotImplemented
        return self.dof_count == other.dof_count and self._terms == other._terms

    def __add__(self, other):
        scalar = _coerce_coeff(other)
        if scalar is not None:
            other = OpPoly._raw(
                self.dof_count, {((0, 0),) * self.dof_count: scalar}
            )
        elif not isinstance(other, OpPoly):
            return NotImplemented
        self._check_dof(other)
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            _accumulate(merged, key, coeff)
        return OpPoly._raw(self.dof_count, merged)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, OpPoly):
            return self + (-other)
        scalar = _coerce_coeff(other)
        if scalar is None:
            return NotImplemented
        return self + (-scalar)

    def __rsub__(self, other):
        scalar = _coerce_coeff(other)
        if scalar is None:
            return NotImplemented
        return (-self) + scalar

    def __neg__(self):
        return OpPoly._raw(
            self.dof_count, {k: -c for k, c in self._terms.items()}
        )

    def __mul__(self, other):
        scalar = _coerce_coeff(other)
        if scalar is not None:
            if not scalar:
                return OpPoly.zero(self.dof_count)
            return OpPoly._raw(
                self.dof_count,
                {k: c * scalar for k, c in self._terms.items()},
            )
        if not isinstance(other, OpPoly):
            return NotImplemented
        self._check_dof(other)
        out = {}
        for key1, c1 in self._terms.items():
            for key2, c2 in other._terms.items():
                weight = c1 * c2
                partial = {(): ONE}
                for (n1, m1), (n2, m2) in zip(key1, key2):
                    partial = _combine_dof(partial, _dof_pair(n1, m1, n2, m2))
                for key, factor in partial.items():
                    _accumulate(out, key, weight * factor)
        return OpPoly._raw(self.dof_count, out)

    def __rmul__(self, other):
        scalar = _coerce_coeff(other)
        if scalar is None:
            return NotImplemented
        return self * scalar

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("operator powers must be nonnegative integers")
        out = OpPoly.identity(self.dof_count)
        for _ in range(exponent):
            out = out * self
        return out

    def dagger(self, s_rule="fix_s"):
        """Adjoint: reverse every word, conjugate coefficients, renormalize.

        The generators are self-adjoint, so per dof the reversed block is
        ph^m qh^n, which is pushed back to normal order.
        """
        out = {}
        for key, coeff in self._terms.items():
            weight = coeff.conjugate(s_rule)
            partial = {(): ONE}
            for n, m in key:
                partial = _combine_dof(partial, _dof_pair(0, m, n, 0))
            for new_key, factor in partial.items():
                _accumulate(out, new_key, weight * factor)
        return OpPoly._raw(self.dof_count, out)

    def map_scalars(self, fn):
        out = {}
        for key, coeff in self._terms.items():
            coeff = fn(coeff)
            if coeff:
                out[key] = coeff
        return OpPoly._raw(self.dof_count, out)

    def substitute(self, s_value=None, hbar_value=None):
        return self.map_scalars(
            lambda c: c.substitute(s_value=s_value, hbar_value=hbar_value)
        )

    def negate_s(self):
        return self.map_scalars(lambda c: c.negate_s())

    def subs_s(self, value):
        return self.map_scalars(lambda c: c.subs_s(value))

    def min_hbar_exp(self):
        exps = [c.min_hbar_exp() for c in self._terms.values()]
        return min(exps) if exps else None

    def depends_on_s(self):
        return any(
            j > 0 for c in self._terms.values() for (_k, j), _v in c.items()
        )

    def total_degree(self):
        """Largest summed exponent over all terms; None when zero."""
        if not self._terms:
            return None
        return max(sum(n + m for n, m in key) for key in self._terms)

    def __repr__(self):
        if not self._terms:
            return f"OpPoly.zero({self.dof_count})"
        bits = [f"{key}: {coeff!r}" for key, coeff in self.sorted_terms()]
        return "OpPoly{" + ", ".join(bits) + "}"


class OpWord:
    """A raw product of generators, before normal ordering.

    letters is a sequence of (kind, dof_index) with kind 'q' or 'p',
    read left to right.  dof_count defaults to one more than the largest
    index used (at least 1).
    """

    __slots__ = ("dof_count", "letters")

    def __init__(self, letters, dof_count=None):
        letters = tuple((kind, int(index)) for kind, index in letters)
        for kind, index in letters:
            if kind not in ("q", "p"):
                raise ValueError(f"letter kind must be 'q' or 'p', got {kind!r}")
            if index < 0:
                raise ValueError("dof indices must be nonnegative")
        if dof_count is None:
            dof_count = max((index for _, index in letters), default=0) + 1
        if any(index >= dof_count for _, index in letters):
            raise ValueError("letter dof index out of range")
        self.dof_count = dof_count
        self.letters = letters


def normalize(word, coeff=ONE):
    """Rewrite a free word into canonical normal form, scaled by coeff.

    An iterative left fold over the maximal runs of one repeated letter:
    each run qh_i^r or ph_i^r multiplies the normal form so far from the
    right, and every product is closed form (see _dof_pair).  For a single
    letter that is the rule
        qh^a ph^b * qh = qh^(a+1) ph^b - i*hbar*b qh^a ph^(b-1),
        qh^a ph^b * ph = qh^a ph^(b+1),
    while letters of distinct degrees of freedom commute.
    """
    coeff = _coerce_coeff(coeff)
    if coeff is None:
        raise TypeError("coeff must be a Scalar")
    dof_count = word.dof_count
    out = OpPoly.identity(dof_count) * coeff
    for (kind, index), run in itertools.groupby(word.letters):
        length = sum(1 for _ in run)
        block = (length, 0) if kind == "q" else (0, length)
        key = tuple(block if i == index else (0, 0) for i in range(dof_count))
        out = out * OpPoly._raw(dof_count, {key: ONE})
    return out


def commutator(left, right):
    return left * right - right * left


def _exp_vector(value):
    if isinstance(value, int):
        if value < 0:
            raise ValueError("exponents must be nonnegative")
        return (value,)
    out = tuple(int(v) for v in value)
    if any(v < 0 for v in out):
        raise ValueError("exponents must be nonnegative")
    return out


def _t_single(n, m):
    """One-dof ordered monomial as {(a, b): Scalar}, formal parameter.

    The position-led binomial average
        2^-n sum_j C(n,j) (1+s)^j (1-s)^(n-j)  qh^j ph^m qh^(n-j)
    and its momentum-led mirror both collapse, through
        sum_j C(n,j) C(n-j,k) (1+s)^j (1-s)^(n-j) = 2^(n-k) C(n,k) (1-s)^k,
    to min(n, m) + 1 terms:
        sum_k k! C(n,k) C(m,k) ((1-s)/2)^k (-i*hbar)^k  qh^(n-k) ph^(m-k).
    """
    out = {}
    for k in range(min(n, m) + 1):
        weight = _MINUS_I_POWERS[k % 4] * Fraction(_reorder_weight(k, m, n), 2**k)
        out[(n - k, m - k)] = Scalar._raw(
            {(k, j): weight * ((-1) ** j * math.comb(k, j)) for j in range(k + 1)}
        )
    return out


@functools.cache
def _t_multi(n_vector, m_vector):
    partial = {(): ONE}
    for n, m in zip(n_vector, m_vector):
        partial = _combine_dof(partial, _t_single(n, m))
    return OpPoly._raw(len(n_vector), dict(partial))


def t_monomial(n, m, form="q", s_value=None):
    """Ordered monomial for the formal ordering parameter.

    n and m are ints (one dof) or equal-length sequences (one entry per
    dof).  s_value, when given, substitutes a numeric value for the
    ordering parameter in the result; the construction itself is always
    formal, so substitution commutes with every identity.  form names
    the position-led ("q") or momentum-led ("p") binomial average the
    monomial is defined by; both are the same operator.
    """
    if form not in ("q", "p"):
        raise ValueError(f"form must be 'q' or 'p', got {form!r}")
    n_vector = _exp_vector(n)
    m_vector = _exp_vector(m)
    if len(n_vector) != len(m_vector):
        raise ValueError("n and m must cover the same dofs")
    out = _t_multi(n_vector, m_vector)
    if s_value is not None:
        out = out.substitute(s_value=s_value)
    return out


def _t_for_key(key):
    n_vector = tuple(n for n, _ in key)
    m_vector = tuple(m for _, m in key)
    return _t_multi(n_vector, m_vector)


def to_t_basis(operator, s_value=None):
    """Expand an operator over the ordered-monomial basis.

    Returns {exponent vector: Scalar}.  Each ordered monomial equals its
    normal-ordered leading term plus lower-total-degree corrections, so
    peeling coefficients from the top degree downward terminates; hitting
    an exact zero remainder is the roundtrip guarantee.  s_value, when
    given, evaluates the expansion coefficients at that ordering.
    """
    remaining = operator
    coeffs = {}
    while remaining:
        degree = remaining.total_degree()
        top = [
            key
            for key in remaining._terms
            if sum(n + m for n, m in key) == degree
        ]
        for key in top:
            coeff = remaining._terms[key]
            coeffs[key] = coeff
            remaining = remaining - _t_for_key(key) * coeff
        new_degree = remaining.total_degree()
        if new_degree is not None and new_degree >= degree:
            raise AssertionError("basis expansion failed to reduce degree")
    if s_value is not None:
        coeffs = {
            key: value
            for key, value in (
                (k, c.substitute(s_value=s_value)) for k, c in coeffs.items()
            )
            if value
        }
    return coeffs
