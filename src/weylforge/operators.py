"""Weyl algebra on polynomial operators: normal forms, products, adjoints.

The basis is the normal-ordered monomial family: per degree of freedom,
all position factors stand left of all momentum factors, and degrees of
freedom appear in index order.  Generators of distinct degrees of
freedom commute outright; within one, ph*qh = qh*ph - i*hbar sums to
the closed reordering identity

    ph^m qh^n = sum_k k! C(m,k) C(n,k) (-i*hbar)^k  qh^(n-k) ph^(m-k),

min(m, n) + 1 terms, through which every product, adjoint and word is
brought to normal form.  The kernel weights k! C(m,k) C(n,k) are ints;
the products sum them per power of (-i*hbar) and apply each power once
(see polynomial._kernel_terms).  Coefficients are exact (see scalars).

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

from .polynomial import SparsePoly, _kernel_terms
from .scalars import GaussianRational, Scalar, ONE, _coerce_scalar

__all__ = [
    "OpPoly",
    "OpWord",
    "normalize",
    "commutator",
    "t_monomial",
    "to_t_basis",
]

# Largest total degree sum(n) + sum(m) t_monomial builds and to_t_basis
# expands.  The formal result has about n*m/2 terms whose coefficients
# grow with the degree, so time, memory and printed size grow as a high
# power of it.
MAX_T_DEGREE = 400

# (-i)^k by k mod 4.
_MINUS_I_POWERS = (
    GaussianRational(1),
    GaussianRational(0, -1),
    GaussianRational(-1),
    GaussianRational(0, 1),
)


@functools.cache
def _dof_pair(n1, m1, n2, m2):
    """Kernel of (qh^n1 ph^m1)(qh^n2 ph^m2) within one dof.

    The inner ph^m1 qh^n2 is reordered by the closed form, so the
    product has min(m1, n2) + 1 terms:
        sum_k k! C(m1,k) C(n2,k) (-i*hbar)^k  qh^(n1+n2-k) ph^(m1+m2-k).
    Returns a tuple of (block, k, weight) with the int
    weight = k! C(m1,k) C(n2,k); the coefficient of block is
    weight * (-i*hbar)^k (see _reorder_power).
    """
    return tuple(
        (
            (n1 + n2 - k, m1 + m2 - k),
            k,
            math.factorial(k) * math.comb(m1, k) * math.comb(n2, k),
        )
        for k in range(min(m1, n2) + 1)
    )


def _reversed(n, m, _k, _l):
    """Kernel of the reversed block ph^m qh^n pushed to normal order, for
    one-operand passes, whose right operand is the unit (see _t_pass and
    dagger)."""
    return _dof_pair(0, m, n, 0)


@functools.cache
def _reorder_power(k):
    """(-i*hbar)^k, the class power of the reordering kernel."""
    return Scalar._raw({(k, 0): _MINUS_I_POWERS[k % 4]})


class OpPoly(SparsePoly):
    """Polynomial operator in canonical normal form.

    An exponent vector stands for the product over dofs of
    qh_i^n_i ph_i^m_i, so equal normal forms double as identity
    certificates.
    """

    __slots__ = ()

    @classmethod
    def identity(cls, dof_count=1):
        return cls.constant(ONE, dof_count)

    def _product(self, other):
        return _kernel_terms(OpPoly, self, other, _dof_pair, _reorder_power)

    def dagger(self, s_rule="fix_s"):
        """Adjoint: reverse every word, conjugate coefficients, renormalize.

        The generators are self-adjoint, so per dof the reversed block is
        ph^m qh^n, which is pushed back to normal order.
        """
        return _kernel_terms(
            OpPoly, self._conjugate(s_rule), None, _reversed, _reorder_power
        )


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
    coeff = _coerce_scalar(coeff)
    if coeff is None:
        raise TypeError("coeff must be a Scalar")
    dof_count = word.dof_count
    out = OpPoly.identity(dof_count) * coeff
    for (kind, index), run in itertools.groupby(word.letters):
        length = sum(1 for _ in run)
        block = (length, 0) if kind == "q" else (0, length)
        key = tuple(block if i == index else (0, 0) for i in range(dof_count))
        out = out * OpPoly.monomial(key)
    return out


def commutator(left, right):
    return left * right - right * left


def _exp_vector(value):
    if isinstance(value, int):
        if value < 0:
            raise ValueError("exponents must be nonnegative")
        return (value,)
    out = tuple(int(v) for v in value)
    if not out:
        raise ValueError("exponents must cover at least one dof")
    if any(v < 0 for v in out):
        raise ValueError("exponents must be nonnegative")
    return out


@functools.cache
def _t_power(k):
    """((1-s)/2)^k (-i*hbar)^k, the class power of the ordered monomials."""
    weight = _MINUS_I_POWERS[k % 4] * Fraction(1, 2**k)
    return Scalar._raw(
        {(k, j): weight * ((-1) ** j * math.comb(k, j)) for j in range(k + 1)}
    )


def _check_t_degree(degree):
    if degree > MAX_T_DEGREE:
        raise ValueError(
            f"ordered monomial of total degree {degree} exceeds the limit "
            f"of {MAX_T_DEGREE}"
        )


def _t_pass(cls, poly, class_power):
    """One kernel pass between the normal-ordered and ordered bases.

    Per dof, the position-led binomial average defining the ordered
    monomial,
        2^-n sum_j C(n,j) (1+s)^j (1-s)^(n-j)  qh^j ph^m qh^(n-j),
    and its momentum-led mirror both collapse, through
        sum_j C(n,j) C(n-j,k) (1+s)^j (1-s)^(n-j) = 2^(n-k) C(n,k) (1-s)^k,
    to min(n, m) + 1 terms:
        t(n, m) = sum_k k! C(n,k) C(m,k) ((1-s)/2)^k (-i*hbar)^k  qh^(n-k) ph^(m-k).
    That is the reordering kernel of ph^m qh^n (_reversed) with
    (-i*hbar)^k replaced by _t_power(k), so with class_power _t_power
    the pass sums coeff * t(key) in normal order, and with
    _t_inverse_power it expands in the ordered basis (see to_t_basis).
    Returns a cls over the dofs of poly.  A term of total degree above
    MAX_T_DEGREE raises ValueError before any work.
    """
    _check_t_degree(poly.total_degree() or 0)
    return _kernel_terms(cls, poly, None, _reversed, class_power)


def t_monomial(n, m):
    """Ordered monomial for the formal ordering parameter.

    n and m are ints (one dof) or equal-length sequences (one entry per
    dof).  The monomial is the position-led, equivalently momentum-led,
    binomial average of words (see _t_pass).  A total degree above
    MAX_T_DEGREE raises ValueError.
    """
    n_vector = _exp_vector(n)
    m_vector = _exp_vector(m)
    if len(n_vector) != len(m_vector):
        raise ValueError("n and m must cover the same dofs")
    key = tuple(zip(n_vector, m_vector))
    return _t_pass(OpPoly, OpPoly.monomial(key), _t_power)


@functools.cache
def _t_inverse_power(k):
    """(-(1-s)/2)^k (-i*hbar)^k, the class power of the inverse expansion."""
    return _t_power(k) if k % 2 == 0 else -_t_power(k)


def to_t_basis(operator):
    """Expand an operator over the ordered-monomial basis.

    Returns {exponent vector: Scalar}.  The ordered monomials are
    t(n, m) = exp(c D) qh^n ph^m with c = ((1-s)/2)(-i*hbar) and
    D qh^n ph^m = n m qh^(n-1) ph^(m-1) (see _t_pass), so each normal
    ordered monomial inverts in closed form, per dof,
        qh^n ph^m = sum_k k! C(n,k) C(m,k) (-c)^k  t(n-k, m-k):
    the kernel of t_monomial with (-1)^k on its class power, taken in one
    pass over the operator.  An operator of total degree above
    MAX_T_DEGREE raises ValueError.
    """
    return dict(_t_pass(OpPoly, operator, _t_inverse_power).items())
