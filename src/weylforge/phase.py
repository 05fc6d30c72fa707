"""Commutative phase-space polynomials and their two bracket structures.

PhasePoly is the plain polynomial algebra in q_i, p_i over exact
coefficients.  On top of it live the star product, the deformed bracket
and the Poisson bracket, each one pass over a slice of the one pairing
kernel (polynomial._dof_kernel).  That kernel pairs momentum-derivatives
on the left with position-derivatives on the right, at weight
(i*hbar/2)(1-s) in the star product, and the crossed pairing at
-(i*hbar/2)(1+s); the Poisson bracket keeps one pairing of either kind.

Sign convention, fixed once here and leaned on everywhere else:

    {q, p}_PB = -1

i.e. the Poisson bracket is sum_i d_p f d_q g - d_q f d_p g.  The
deformed bracket then satisfies {q, p} = -i*hbar and contracts onto the
Poisson bracket after dividing by i*hbar and dropping hbar.
"""

import math
from fractions import Fraction

from .polynomial import (
    ZERO,
    ONE,
    I,
    HBAR,
    S,
    NEG_I_OVER_HBAR,
    SparsePoly,
    _PAIRINGS,
    _kernel_terms,
)

__all__ = [
    "PhasePoly",
    "poisson_bracket",
    "star_product",
    "moyal_bracket",
    "winf_pb_structure",
    "winf_mb_closed_form",
    "classical_limit_bracket",
]

# Kernel weights of the star product's two directed pairings.
_STAR_A = I * HBAR * Fraction(1, 2) * (ONE - S)
_STAR_B = -(I * HBAR * Fraction(1, 2)) * (ONE + S)

# hbar(1+s)/2 and hbar(1-s)/2, the only ordering-dependent factors of the
# closed-form deformed structure constants.
_S_PLUS = HBAR * (ONE + S) * Fraction(1, 2)
_S_MINUS = HBAR * (ONE - S) * Fraction(1, 2)


class PhasePoly(SparsePoly):
    """Sparse polynomial in q_i, p_i with Scalar coefficients.

    An exponent vector stands for prod_i q_i^n_i p_i^m_i.
    Multiplication is the ordinary commutative convolution.
    """

    __slots__ = ()

    @classmethod
    def one(cls, dof_count=1):
        return cls.constant(ONE, dof_count)

    def _product(self, other):
        return self._convolved(other)


def _paired(f, g, class_power, most=None):
    """One kernel pass of f against g, both PhasePolys over one dof count."""
    if not (isinstance(f, PhasePoly) and isinstance(g, PhasePoly)):
        raise TypeError("the star product and the brackets take PhasePoly operands")
    f._check_dof(g)
    return _kernel_terms(PhasePoly, f, g, class_power, most=most)


def _poisson_power(pairings):
    """+1 for one direct pairing in total, -1 for one crossed pairing, and
    zero for every other class."""
    if pairings == 1:
        return ONE
    if pairings == _PAIRINGS:
        return -ONE
    return ZERO


def poisson_bracket(f, g):
    """sum_i d_p f d_q g - d_q f d_p g, so that {q, p} comes out -1: the
    kernel pass that keeps the classes of exactly one pairing."""
    return _paired(f, g, _poisson_power, most=1)


def _star_power(pairings):
    """A^a B^b for the class a + b*_PAIRINGS."""
    b, a = divmod(pairings, _PAIRINGS)
    return _STAR_A**a * _STAR_B**b


def _moyal_power(pairings):
    """A^a B^b - A^b B^a for the class a + b*_PAIRINGS; zero when a == b."""
    b, a = divmod(pairings, _PAIRINGS)
    return _star_power(pairings) - _star_power(b + a * _PAIRINGS)


def star_product(f, g):
    """Deformed product; associative, with 1 as two-sided identity.

    Multi-dof inputs apply the kernel diagonally per dof (each dof pairs
    only with itself); the per-dof weights multiply and the pairing
    counts add.
    """
    return _paired(f, g, _star_power)


def moyal_bracket(f, g):
    """Star commutator: star(f, g) - star(g, f), in one pass.

    Swapping the arguments swaps the two pairings of every dof at the
    same int weight, since C(m,a) perm(k,a) = C(k,a) perm(m,a): star(g, f)
    has the (key, a, b) sums of star(f, g) with A^b B^a in place of
    A^a B^b.  So the bracket is one pass with class power
    A^a B^b - A^b B^a, in which the classes with a == b drop out.

    Always divisible by hbar; dividing by i*hbar and letting hbar go to
    zero recovers the Poisson bracket (see classical_limit_bracket).
    """
    return _paired(f, g, _moyal_power)


def winf_pb_structure(n, m, k, l):
    """Poisson bracket of q^n p^m with q^k p^l in closed form (one dof).

    (mk - nl) q^(n+k-1) p^(m+l-1); the prefactor vanishes whenever an
    exponent would go negative, which the assert pins down.
    """
    coeff = m * k - n * l
    if coeff == 0:
        return PhasePoly.zero(1)
    assert n + k >= 1 and m + l >= 1
    return PhasePoly.monomial(((n + k - 1, m + l - 1),), coeff)


def winf_mb_closed_form(n, m, k, l):
    """Deformed bracket of q^n p^m with q^k p^l in closed form (one dof).

    Double sum over derivative order j and pairing split r.  The inner
    factor
        f = sminus^r (-splus)^(j-r) - sminus^(j-r) (-splus)^r
    carries all ordering dependence; the combinatorial factor
        a = n! m! k! l! / ((n+r-j)! (m-r)! (k-r)! (l+r-j)!)
    is taken as zero whenever a factorial argument is negative, which is
    what truncates the sums.  The j=0 term cancels identically and the
    j=1 term reproduces i*hbar times the Poisson structure.
    """
    r_max = min(m, k)
    j_max = min(n + r_max, l + r_max)
    out = {}
    for j in range(j_max + 1):
        inner = ZERO
        for r in range(r_max + 1):
            choose = math.comb(j, r)
            if choose == 0:
                continue
            if n + r - j < 0 or m - r < 0 or k - r < 0 or l + r - j < 0:
                continue
            a_factor = Fraction(
                math.factorial(n) * math.factorial(m)
                * math.factorial(k) * math.factorial(l),
                math.factorial(n + r - j) * math.factorial(m - r)
                * math.factorial(k - r) * math.factorial(l + r - j),
            )
            f_factor = (
                _S_MINUS**r * (-_S_PLUS) ** (j - r)
                - _S_MINUS ** (j - r) * (-_S_PLUS) ** r
            )
            inner = inner + f_factor * (choose * a_factor)
        if not inner:
            continue
        coeff = I**j * Fraction(1, math.factorial(j)) * inner
        if not coeff:
            continue
        assert n + k - j >= 0 and m + l - j >= 0
        out[((n + k - j, m + l - j),)] = coeff
    return PhasePoly(1, out)


def classical_limit_bracket(f, g):
    """Divide the deformed bracket by i*hbar and drop hbar.

    Equals poisson_bracket(f, g); the division is exact because the
    bracket is divisible by hbar, so no negative power survives.
    """
    scaled = moyal_bracket(f, g) * NEG_I_OVER_HBAR
    return scaled.limit_hbar_zero()
