"""Equations of motion and truncated formal flows.

Time evolution lives here in two parallel pictures.  On the commutative
side the generator is the Poisson bracket with the Hamiltonian; on the
operator side it is the bracket of superops.pmb with the Hamiltonian's
operator image in the first slot:

    Fdot = pmb(ms(H), F)

Both flows are represented as truncated Taylor series in the time
parameter (FlowSeries); the ordering map sends one series to the other
coefficient by coefficient.  Because ms carries the Poisson bracket onto
pmb, the operator flow is computed that way: the classical flow of the
pullback, mapped by ms (so a coefficient above ms's degree limit raises
ValueError).  The definition, iterating pmb variant 4 with ms(H) in the
first slot, stays as _pmb_flow_by_definition, the reference the tests
and conformance checks hold the flow against.

hamilton_rhs and observable_rhs are the closed-form right-hand sides
for the generators and for observables depending on position or
momentum alone, with the Hamiltonian of mechanical type (kinetic term
plus potential).
"""

import math
from fractions import Fraction

from .operators import OpPoly
from .phase import PhasePoly, poisson_bracket
from .superops import _assert_no_inverse_hbar, _pmb_impl, liouvillian_apply
from .wwgm import derivative_image, ms, ms_inverse

__all__ = [
    "FlowSeries",
    "hamilton_rhs",
    "pmb_flow_series",
    "classical_flow_series",
    "observable_rhs",
]

# Largest order the truncated flows compute.  Each order brackets the
# previous coefficient once more, whose size grows with the order.
MAX_FLOW_ORDER = 64


class FlowSeries:
    """Truncated Taylor series of an evolving observable.

    coefficients[k] is the k-th Taylor coefficient (the 1/k! included),
    either all OpPoly or all PhasePoly; coefficients[0] is the initial
    observable.
    """

    __slots__ = ("order", "coefficients")

    def __init__(self, order, coefficients):
        coefficients = tuple(coefficients)
        if not isinstance(order, int) or order < 0:
            raise ValueError("order must be a nonnegative integer")
        if len(coefficients) != order + 1:
            raise ValueError("need exactly order + 1 coefficients")
        kinds = {type(c) for c in coefficients}
        if not kinds <= {OpPoly} and not kinds <= {PhasePoly}:
            raise TypeError("coefficients must be all OpPoly or all PhasePoly")
        dofs = {c.dof_count for c in coefficients}
        if len(dofs) != 1:
            raise ValueError("coefficients disagree on dof_count")
        self.order = order
        self.coefficients = coefficients

    @property
    def space(self):
        return "operator" if isinstance(self.coefficients[0], OpPoly) else "phase"

    @property
    def dof_count(self):
        return self.coefficients[0].dof_count

    def __eq__(self, other):
        if not isinstance(other, FlowSeries):
            return NotImplemented
        return (
            self.order == other.order
            and self.coefficients == other.coefficients
        )

    def __iter__(self):
        return iter(self.coefficients)

    def __getitem__(self, k):
        return self.coefficients[k]

    def map_coefficients(self, fn):
        return FlowSeries(self.order, [fn(c) for c in self.coefficients])

    def __repr__(self):
        return f"FlowSeries(order={self.order}, {list(self.coefficients)!r})"


def _check_order(order):
    if not isinstance(order, int) or order < 0:
        raise ValueError("order must be a nonnegative integer")
    if order > MAX_FLOW_ORDER:
        raise ValueError(
            f"flow order {order} exceeds the limit of {MAX_FLOW_ORDER}"
        )


def hamilton_rhs(H, dof_index=0):
    """Right-hand sides of the generator equations of motion.

    Returns (qdot, pdot) for one dof: the images of dH/dp and -dH/dq,
    1/(i*hbar) [qhat, ms(H)] and [phat, ms(H)], taken as derivatives of
    ms(H) (see wwgm.derivative_image) with no commutator or hbar division.
    """
    return (
        _assert_no_inverse_hbar(derivative_image(H, "p", dof_index)),
        _assert_no_inverse_hbar(-derivative_image(H, "q", dof_index)),
    )


def pmb_flow_series(F0, H, order):
    """Truncated operator flow generated by bracketing with ms(H).

    coefficient k = (1/k!) (ad_H)^k F0, where ad_H is the pmb bracket
    with ms(H) in the first slot.  Taken as the classical flow of
    ms_inverse(F0) under H, mapped back by ms coefficient by
    coefficient.  Like each pmb step, a coefficient past the first that
    keeps an inverse power of hbar raises NegativeHbarPower.  An order
    above MAX_FLOW_ORDER raises ValueError.
    """
    _check_order(order)
    F0._check_dof(H)
    series = classical_flow_series(ms_inverse(F0), H, order).map_coefficients(ms)
    for coefficient in series.coefficients[1:]:
        _assert_no_inverse_hbar(coefficient)
    return series


def _pmb_flow_by_definition(F0, H, order):
    """The operator flow by its definition: iterate pmb variant 4 with
    ms(H) in the first slot.  The reference pmb_flow_series is checked
    against.
    """
    _check_order(order)
    F0._check_dof(H)
    H_op = ms(H)
    return _flow(lambda F: _pmb_impl(H_op, F, 4), F0, order)


def classical_flow_series(f0, H, order):
    """Truncated phase-space flow: coefficient k = (1/k!) {H, .}_PB^k f0.

    An order above MAX_FLOW_ORDER raises ValueError.
    """
    _check_order(order)
    f0._check_dof(H)
    return _flow(lambda f: poisson_bracket(H, f), f0, order)


def _flow(step, f0, order):
    """Taylor coefficients (1/k!) step^k f0 for k = 0..order."""
    coefficients = [f0]
    current = f0
    for k in range(1, order + 1):
        current = step(current)
        coefficients.append(current * Fraction(1, math.factorial(k)))
    return FlowSeries(order, coefficients)


def _split_mechanical(H):
    """Split H = (sum_i p_i^2)/(2m) + V(q) and return (mass, V).

    Every dof must carry the same kinetic coefficient, a positive plain
    rational; everything else must be free of momenta.
    """
    dof = H.dof_count
    kinetic = {}
    potential_terms = {}
    for key, coeff in H.items():
        hot = [i for i, (n, m) in enumerate(key) if m > 0]
        if not hot:
            potential_terms[key] = coeff
            continue
        if len(hot) == 1:
            i = hot[0]
            if key[i] == (0, 2) and all(
                key[j] == (0, 0) for j in range(dof) if j != i
            ):
                kinetic[i] = coeff
                continue
        raise ValueError("hamiltonian is not of mechanical type")
    if sorted(kinetic) != list(range(dof)):
        raise ValueError("every dof needs a kinetic term")
    values = set(kinetic.values())
    if len(values) > 1:
        raise ValueError("kinetic coefficients differ between dofs")
    gaussian = values.pop().as_constant()
    if gaussian is None:
        raise ValueError("kinetic coefficient must be a plain constant")
    if gaussian.im != 0 or gaussian.re <= 0:
        raise ValueError("kinetic coefficient must be a positive rational")
    mass = 1 / (2 * gaussian.re)
    return mass, PhasePoly(dof, potential_terms)


def observable_rhs(f, g, H):
    """Closed-form motion equations for f(q) and g(p).

    H must be of mechanical type.  Returns (Fdot, Gdot):

        Fdot = (1/m) sum_i L(d_qi f)(phat_i)
        Gdot = -(i/hbar) sum_i L(d_pi g)([phat_i, ms(V)])

    both equal to the pmb bracket with ms(H) in the first slot.  Since
    [phat_i, ms V] = -i*hbar d ms(V)/dqhat_i, the Gdot term is taken as
    -L(d_pi g)(d ms(V)/dqhat_i), with no factor of hbar to cancel.
    """
    f._check_dof(g)
    f._check_dof(H)
    if any(m > 0 for key, _c in f.items() for _n, m in key):
        raise ValueError("f must depend on positions only")
    if any(n > 0 for key, _c in g.items() for n, _m in key):
        raise ValueError("g must depend on momenta only")
    mass, potential = _split_mechanical(H)
    dof = H.dof_count
    V_op = ms(potential)
    f_dot = OpPoly.zero(dof)
    g_dot = OpPoly.zero(dof)
    for i in range(dof):
        p_i = OpPoly.generator("p", i, dof)
        f_dot = f_dot + liouvillian_apply(f.derivative("q", i), p_i)
        g_dot = g_dot - liouvillian_apply(g.derivative("p", i), V_op.derivative("q", i))
    f_dot = f_dot * Fraction(1, mass) if mass != 1 else f_dot
    return _assert_no_inverse_hbar(f_dot), _assert_no_inverse_hbar(g_dot)
