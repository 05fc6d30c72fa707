"""The Weyl-Wigner correspondence between the two polynomial algebras.

ms sends the commutative monomial q^n p^m to the ordered operator
monomial t_monomial(n, m) and extends linearly; ms_inverse expands an
operator in that basis and reads the exponents back off.  Both are exact
bijections on polynomials, and they exchange the bracket structures of
the two sides:

    ms({f, g}_PB)  is the Poisson-type bracket of ms(f), ms(g)
    ms({f, g}_MB)  = -commutator(ms(f), ms(g))

The second line is the anti-homomorphism checked by antihom_check; the
first is how superops.pmb computes the operator bracket by default, and
is checked there against the paper's four superoperator forms.
"""

from .operators import OpPoly, _t_inverse_power, _t_pass, _t_power, commutator
from .phase import PhasePoly, moyal_bracket
from .polynomial import I_OVER_HBAR

__all__ = [
    "ms",
    "ms_inverse",
    "derivative_image",
    "antihom_check",
    "commutator_classical_limit",
]


def ms(f):
    """Map a commutative polynomial to its ordered operator counterpart.

    Coefficients pass through unchanged.  The image is taken in one
    kernel pass over f (operators._t_pass), the mirror of to_t_basis.
    A term of total degree above MAX_T_DEGREE raises ValueError, and an
    operand other than a PhasePoly TypeError.
    """
    if not isinstance(f, PhasePoly):
        raise TypeError("ms takes a PhasePoly")
    return _t_pass(OpPoly, f, _t_power)


def ms_inverse(F):
    """Inverse map: expand in ordered monomials, return the exponents.

    Exact two-sided inverse of ms on polynomials.  An operand other than
    an OpPoly raises TypeError.
    """
    if not isinstance(F, OpPoly):
        raise TypeError("ms_inverse takes an OpPoly")
    return _t_pass(PhasePoly, F, _t_inverse_power)


def derivative_image(f, var, dof_index=0):
    """Image of a partial derivative of f: the same derivative of ms(f).

    It is the adjoint action of the conjugate generator on ms(f),

        image of d_p f = -(i/hbar) [qhat, ms(f)]
        image of d_q f =  (i/hbar) [phat, ms(f)]

    each commutator being +-i*hbar times that derivative (ad_apply).  It
    equals ms(f.derivative(var, dof_index)) identically.
    """
    return ms(f).derivative(var, dof_index)


def antihom_check(f, g):
    """Check ms({f, g}_MB) = -commutator(ms f, ms g).

    Returns (True, None) on success and (False, (lhs, rhs)) with both
    operator polynomials on failure.
    """
    lhs = ms(moyal_bracket(f, g))
    rhs = -commutator(ms(f), ms(g))
    if lhs == rhs:
        return True, None
    return False, (lhs, rhs)


def commutator_classical_limit(F, G):
    """Pull the commutator back, rescale by -1/(i*hbar), drop hbar.

    The result is the Poisson bracket of the pullbacks of F and G.  The
    rescaled pullback is polynomial in hbar, so the limit is plain
    truncation; a surviving negative power raises NegativeHbarPower.
    """
    F._check_dof(G)
    pulled = ms_inverse(commutator(F, G)) * I_OVER_HBAR
    return pulled.limit_hbar_zero()
