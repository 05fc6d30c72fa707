"""Superoperators on the ordered-operator algebra.

The primitive is the two-sided multiplication map

    t_super_apply: F -> (1 + sigma*s) A F + (1 - sigma*s) F A

for a generator A and a sign choice sigma, in closed form on the normal
ordered basis.  Within the generator's dof, qh raises n from either
side, and qh^n ph^m qh also lowers m:

    qh * F = qh^(n+1) ph^m
    F * qh = qh^(n+1) ph^m + m (-i*hbar) qh^n ph^(m-1)
    ph * F = qh^n ph^(m+1) + n (-i*hbar) qh^(n-1) ph^m
    F * ph = qh^n ph^(m+1)

so the map is twice the raised term plus count x lowered term, which is
dF/dph for qh and dF/dqh for ph (as in ad_apply), times (1 - sigma*s)
(-i*hbar) or (1 + sigma*s) (-i*hbar): no operator product.  Position
generators enter with sigma=+1 and momentum generators with sigma=-1 in
the normalized ordering superoperator, whose action on the identity
produces the ordered monomials.  Summing ordering superoperators with the
coefficients of a phase-space polynomial gives its Liouvillian; these
all commute with one another as maps.

On top of that sit two derived structures taking operator arguments:

    diamond(F, G)   commutative product, the image of pointwise
                    multiplication under the ordering map
    pmb(F, G)       Lie bracket, the image of the Poisson bracket,
                    computable in four equivalent ways (variant 1..4)

The paper's central result is that the ordering map ms is an
isomorphism carrying pointwise multiplication and the Poisson bracket
onto these two.  Production therefore takes its consequences, each a
kernel pass or two through ms and ms_inverse:

    Liouvillian(f)(F) = ms(f * ms_inverse(F))
    diamond(F, G)     = ms(ms_inverse(F) * ms_inverse(G))
    pmb(F, G)         = ms(PB(ms_inverse(F), ms_inverse(G)))

The paper's definitions stay as references the conformance checks and
tests hold these against: t_super_apply and ordering_super_apply (and
_liouvillian_by_definition, their coefficient-weighted sum) for the
Liouvillian, and the four superoperator expressions, selected by
pmb(F, G, variant=1..4), for the bracket.  Since they pass through
ms and ms_inverse, all three closed forms refuse an operand or result
of total degree above operators.MAX_T_DEGREE (ValueError).
"""

import functools
from fractions import Fraction

from .operators import OpPoly, _exp_vector
from .phase import PhasePoly, poisson_bracket
from .polynomial import HBAR, I, ONE, S, I_OVER_HBAR, NEG_I_OVER_HBAR
from .scalars import NegativeHbarPower
from .wwgm import ms, ms_inverse

__all__ = [
    "Liouvillian",
    "t_super_apply",
    "ordering_super_apply",
    "liouvillian_apply",
    "ad_apply",
    "diamond",
    "pmb",
    "pmb_functions",
]


def _generator_tag(gen, F):
    """(kind, dof_index) of a tag 'q', 'p' or (kind, dof_index) on F; a
    non-OpPoly F, another kind or index out of range raises."""
    if not isinstance(F, OpPoly):
        raise TypeError("generators act on OpPoly operands")
    kind, index = (gen, 0) if isinstance(gen, str) else gen
    if kind not in ("q", "p"):
        raise ValueError(f"kind must be 'q' or 'p', got {kind!r}")
    if not 0 <= index < F.dof_count:
        raise IndexError("dof_index out of range")
    return kind, index


_I_HBAR = I * HBAR


@functools.cache
def _lowering_factor(sign):
    """(1 + sign*s) (-i*hbar): the lowered term's weight per unit count."""
    return (ONE + S * sign) * (-I * HBAR)


def t_super_apply(gen, sigma, F):
    """Two-sided multiplication by a generator with s-dependent weights.

    (1 + sigma*s) A F + (1 - sigma*s) F A for A = qh_i or ph_i, taken
    by the closed form in the module docstring: 2 F at the raised block
    plus (1 -+ sigma*s) (-i*hbar) times the derivative of F in the
    conjugate generator, minus for qh and plus for ph.  sigma must be +1
    or -1 and flips the sign of s in the weights.
    """
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    kind, index = _generator_tag(gen, F)

    def raised(key):
        n, m = key[index]
        block = (n + 1, m) if kind == "q" else (n, m + 1)
        return key[:index] + (block,) + key[index + 1:], 2

    sign = -sigma if kind == "q" else sigma
    lowered = F.derivative("p" if kind == "q" else "q", index)
    return F._rekeyed(raised) + lowered * _lowering_factor(sign)


def _dof_exponents(value, dof_count):
    if isinstance(value, int) and dof_count != 1:
        raise ValueError("per-dof exponent sequence required for dof > 1")
    vec = _exp_vector(value)
    if len(vec) != dof_count:
        raise ValueError("exponent vector length != dof_count")
    return vec


def ordering_super_apply(n, m, F):
    """Normalized repeated two-sided multiplication, all dofs.

    Applies the momentum map m_i times (sigma=-1) and the position map
    n_i times (sigma=+1) for each dof, then scales by 2^-(total).  The
    order of application is irrelevant because the maps commute; acting
    on the identity yields the ordered monomial with these exponents.
    """
    n_vec = _dof_exponents(n, F.dof_count)
    m_vec = _dof_exponents(m, F.dof_count)
    out = F
    for i in range(F.dof_count):
        for _ in range(m_vec[i]):
            out = t_super_apply(("p", i), -1, out)
        for _ in range(n_vec[i]):
            out = t_super_apply(("q", i), 1, out)
    total = sum(n_vec) + sum(m_vec)
    if total:
        out = out * Fraction(1, 2**total)
    return out


def _liouvillian_by_definition(f, F):
    """The paper's Liouvillian: sum over the monomials of f of the
    coefficient times the ordering superoperator of their exponents.

    The reference Liouvillian.apply is checked against; production uses
    the closed form.
    """
    f._check_dof(F)
    out = OpPoly.zero(F.dof_count)
    for key, coeff in f.items():
        n_vec = tuple(n for n, _ in key)
        m_vec = tuple(m for _, m in key)
        out = out + ordering_super_apply(n_vec, m_vec, F) * coeff
    return out


class Liouvillian:
    """The superoperator attached to a phase-space polynomial.

    Defined linearly: each monomial of the source contributes its
    ordering superoperator, weighted by the coefficient (see
    _liouvillian_by_definition).  apply takes the closed form
    ms(source * ms_inverse(F)) instead.  Liouvillians commute:
    L(f)L(g) = L(g)L(f) on every operand.
    """

    __slots__ = ("source",)

    def __init__(self, source):
        if not isinstance(source, PhasePoly):
            raise TypeError("Liouvillian source must be a PhasePoly")
        self.source = source

    def apply(self, F):
        self.source._check_dof(F)
        return ms(self.source * ms_inverse(F))

    __call__ = apply

    def __eq__(self, other):
        if not isinstance(other, Liouvillian):
            return NotImplemented
        return self.source == other.source

    def __repr__(self):
        return f"Liouvillian({self.source!r})"


def liouvillian_apply(f, F):
    return Liouvillian(f)(F)


def ad_apply(gen, F):
    """Adjoint action [A, F] in one pass: i*hbar dF/dph_i for A = qh_i,
    -i*hbar dF/dqh_i for A = ph_i."""
    kind, index = _generator_tag(gen, F)
    if kind == "q":
        return F.derivative("p", index) * _I_HBAR
    return F.derivative("q", index) * (-_I_HBAR)


def diamond(F, G):
    """Commutative product on operators.

    Defined as the Liouvillian of the pullback of G applied to F, and
    taken in closed form as ms(ms_inverse(F) * ms_inverse(G)).
    Symmetric in its arguments, and its pullback is the pointwise
    product of the pullbacks.
    """
    F._check_dof(G)
    return ms(ms_inverse(F) * ms_inverse(G))


def _pmb_impl(F, G, variant):
    """The four equivalent bracket expressions.

    f and g are the pullbacks ms_inverse(F) and ms_inverse(G); each
    variant pulls back only the ones it needs:

        1: -(i/hbar) sum_i [ L(d_qi g)([qhat_i, F]) + L(d_pi g)([phat_i, F]) ]
        2: -(i/hbar) sum_i [ L(d_qi g)([qhat_i, F]) - L(d_qi f)([qhat_i, G]) ]
        3: +(i/hbar) sum_i [ L(d_pi f)([phat_i, G]) - L(d_pi g)([phat_i, F]) ]
        4: +(i/hbar) sum_i [ L(d_qi f)([qhat_i, G]) + L(d_pi f)([phat_i, G]) ]
    """
    if variant not in (1, 2, 3, 4):
        raise ValueError("variant must be 1, 2, 3, or 4")
    F._check_dof(G)
    dof = F.dof_count
    if variant != 4:
        g = ms_inverse(G)
    if variant != 1:
        f = ms_inverse(F)
    out = OpPoly.zero(dof)
    for i in range(dof):
        if variant == 1:
            out = out + liouvillian_apply(g.derivative("q", i), ad_apply(("q", i), F))
            out = out + liouvillian_apply(g.derivative("p", i), ad_apply(("p", i), F))
        elif variant == 2:
            out = out + liouvillian_apply(g.derivative("q", i), ad_apply(("q", i), F))
            out = out - liouvillian_apply(f.derivative("q", i), ad_apply(("q", i), G))
        elif variant == 3:
            out = out + liouvillian_apply(f.derivative("p", i), ad_apply(("p", i), G))
            out = out - liouvillian_apply(g.derivative("p", i), ad_apply(("p", i), F))
        else:
            out = out + liouvillian_apply(f.derivative("q", i), ad_apply(("q", i), G))
            out = out + liouvillian_apply(f.derivative("p", i), ad_apply(("p", i), G))
    scale = NEG_I_OVER_HBAR if variant in (1, 2) else I_OVER_HBAR
    return _assert_no_inverse_hbar(out * scale)


def _assert_no_inverse_hbar(out):
    low = out.min_hbar_exp()
    if low is not None and low < 0:
        raise NegativeHbarPower(
            "bracket result kept an inverse power of hbar"
        )
    return out


def pmb(F, G, variant=None):
    """Lie bracket on operators mirroring the Poisson bracket.

    By default the closed form ms(PB(ms_inverse(F), ms_inverse(G)));
    variant=1..4 selects one of the paper's four superoperator
    expressions instead (see _pmb_impl).  All five agree; the result
    never carries negative powers of hbar (asserted).
    """
    if variant is not None:
        return _pmb_impl(F, G, variant)
    F._check_dof(G)
    return _assert_no_inverse_hbar(
        ms(poisson_bracket(ms_inverse(F), ms_inverse(G)))
    )


def pmb_functions(f, g, variant=None):
    """Same bracket, entered from the commutative side.

    Takes the phase-space polynomials directly and returns the
    operator-side bracket of ms(f) and ms(g): by default ms(PB(f, g)),
    skipping the inverse map; variant=1..4 evaluates the paper's
    expression on ms(f) and ms(g) (see _pmb_impl).
    """
    f._check_dof(g)
    if variant is not None:
        return _pmb_impl(ms(f), ms(g), variant)
    return _assert_no_inverse_hbar(ms(poisson_bracket(f, g)))
