"""Registry of anchored conformance checks behind the check subcommand.

Each check exercises one identity of the library against an
independently written form of the same statement, tagged with the
anchor string reported alongside it.  A suite run threads one seeded
RNG through the checks in registration order, so a (suite, seed) pair
fixes every draw and the report is reproducible byte for byte.

A runner is a generator: given the RNG, it yields (label, got, want)
comparisons and judges none of them.  Conditions that are not
equalities yield one too, against the zero polynomial, a boolean or an
empty list.  run_suite judges each with got != want and stops at the
first mismatch, whose witness reads "label: got versus want"; a runner
that yields nothing fails with "no comparison made", and one that
raises fails its own row with the exception as witness.
"""

import math
import random
from collections import namedtuple
from fractions import Fraction

from .dynamics import (
    FlowSeries,
    _pmb_flow_by_definition,
    classical_flow_series,
    hamilton_rhs,
    observable_rhs,
    pmb_flow_series,
)
from .operators import OpPoly, OpWord, commutator, normalize, t_monomial, to_t_basis
from .phase import (
    PhasePoly,
    classical_limit_bracket,
    moyal_bracket,
    poisson_bracket,
    star_product,
    winf_mb_closed_form,
    winf_pb_structure,
)
from .polynomial import HBAR, I, I_OVER_HBAR, ONE, S, Scalar
from .render import render
from .sampling import random_op_poly, random_phase_poly, random_scalar
from .scalars import GaussianRational
from .superops import (
    _liouvillian_by_definition,
    ad_apply,
    diamond,
    liouvillian_apply,
    ordering_super_apply,
    pmb,
    pmb_functions,
    t_super_apply,
)
from .wwgm import antihom_check, commutator_classical_limit, derivative_image, ms, ms_inverse

__all__ = ["SUITES", "run_suite"]

_REGISTRY = []

_Check = namedtuple("_Check", "id anchor suite note params runner")


def _register(id, anchor, suite, note, params=None):
    def wrap(runner):
        _REGISTRY.append(_Check(id, anchor, suite, note, params or {}, runner))
        return runner

    return wrap


# --- ordered-monomial core -------------------------------------------------


@_register(
    "t-commuting-superoperators",
    "3",
    "weyl",
    "two-sided multiplication maps commute on arbitrary operands",
    {"operands": 10, "dofs": [1, 2]},
)
def _run_t_commute(rng):
    for dof in (1, 2):
        for _ in range(5):
            F = random_op_poly(rng, dof, max_total=3)
            one_way = t_super_apply(("q", 0), 1, t_super_apply(("p", dof - 1), -1, F))
            other = t_super_apply(("p", dof - 1), -1, t_super_apply(("q", 0), 1, F))
            yield f"dof {dof}", one_way, other


@_register(
    "t-on-identity",
    "4",
    "weyl",
    "ordering superoperators send the identity to the ordered monomials",
    {"max_exponent": 3},
)
def _run_t_on_identity(rng):
    identity = OpPoly.identity()
    for n in range(4):
        for m in range(4):
            yield f"({n},{m})", ordering_super_apply(n, m, identity), t_monomial(n, m)


def _split_average(lead, count, inner, left, right):
    """Normalized average of the words lead^j inner lead^(count-j).

    lead is one generator kind, split around the word inner (a list of
    letters); word j weighs 2^-count C(count,j) left^j right^(count-j).
    """
    total = OpPoly.zero()
    for j in range(count + 1):
        weight = Fraction(math.comb(count, j), 2**count) * left**j * right ** (count - j)
        letters = [(lead, 0)] * j + inner + [(lead, 0)] * (count - j)
        total = total + normalize(OpWord(letters), weight)
    return total


@_register(
    "t-form-agreement",
    "7",
    "weyl",
    "position-led and momentum-led expansions build the same monomial",
    {"max_exponent": 4},
)
def _run_t_form_agreement(rng):
    # The closed form is held against each binomial average of normalized
    # words, not the averages against each other.
    plus = ONE + S
    minus = ONE - S
    for n in range(5):
        for m in range(5):
            got = t_monomial(n, m)
            yield f"({n},{m}) q form", got, _split_average("q", n, [("p", 0)] * m, plus, minus)
            yield f"({n},{m}) p form", got, _split_average("p", m, [("q", 0)] * n, minus, plus)


@_register(
    "t-standard-order",
    "9",
    "weyl",
    "the ordering extremes collapse to one-sided products",
    {"max_exponent": 3},
)
def _run_t_standard_order(rng):
    qh = OpPoly.generator("q")
    ph = OpPoly.generator("p")
    for n in range(4):
        for m in range(4):
            yield f"({n},{m}) at +1", t_monomial(n, m).substitute(s_value=1), qh**n * ph**m
            yield f"({n},{m}) at -1", t_monomial(n, m).substitute(s_value=-1), ph**m * qh**n


@_register(
    "ordering-repeated-action",
    "11",
    "weyl",
    "repeated ordering superoperators add exponents on the t-basis",
    {"max_exponent": 2},
)
def _run_repeated_action(rng):
    for n in range(3):
        for m in range(3):
            for k in range(3):
                for l in range(3):
                    got = ordering_super_apply(n, m, t_monomial(k, l))
                    yield f"({n},{m})on({k},{l})", got, t_monomial(n + k, m + l)


@_register(
    "t-recursion",
    "13",
    "weyl",
    "the four-term sandwich recursion raises both exponents by one",
    {"max_exponent": 2},
)
def _run_t_recursion(rng):
    qh = OpPoly.generator("q")
    ph = OpPoly.generator("p")
    quarter = Fraction(1, 4)
    one_minus_s2 = ONE - S * S
    plus_sq = (ONE + S) * (ONE + S)
    minus_sq = (ONE - S) * (ONE - S)
    for n in range(3):
        for m in range(3):
            t = t_monomial(n, m)
            built = (
                (qh * ph * t + t * ph * qh) * one_minus_s2
                + qh * t * ph * plus_sq
                + ph * t * qh * minus_sq
            ) * quarter
            yield f"({n},{m})", built, t_monomial(n + 1, m + 1)


@_register(
    "weyl-three-way",
    "7",
    "weyl",
    "the symmetric-point monomial is the average over orderings",
    {},
)
def _run_three_way(rng):
    qh = OpPoly.generator("q")
    ph = OpPoly.generator("p")
    average = (qh * ph * ph + ph * qh * ph + ph * ph * qh) * Fraction(1, 3)
    yield "average", average, t_monomial(1, 2).substitute(s_value=0)


@_register(
    "hermiticity",
    "7",
    "weyl",
    "self-adjointness holds exactly on the imaginary ordering axis",
    {"max_exponent": 3, "values": ["0", "i/2", "-i", "1"]},
)
def _run_hermiticity(rng):
    half_i = GaussianRational(0, Fraction(1, 2))
    minus_i = GaussianRational(0, -1)
    for n in range(4):
        for m in range(4):
            formal = t_monomial(n, m)
            yield f"({n},{m}) formal adjoint", formal.dagger(s_rule="negate_s"), formal
            for value in (0, half_i, minus_i):
                fixed = formal.substitute(s_value=value)
                yield f"({n},{m}) adjoint at {value!r}", fixed.dagger(), fixed
    standard = t_monomial(1, 1).substitute(s_value=1)
    opposite = t_monomial(1, 1).substitute(s_value=-1)
    yield "one-sided ordering self-adjoint", standard.dagger() == standard, False
    yield "adjoint of one-sided ordering", standard.dagger(), opposite


# --- deformed product ------------------------------------------------------


@_register(
    "star-identity",
    "16",
    "star",
    "the constant one is a two-sided identity for the deformed product",
    {"samples": 8},
)
def _run_star_identity(rng):
    one = PhasePoly.one()
    for _ in range(8):
        f = random_phase_poly(rng)
        yield "left identity", star_product(one, f), f
        yield "right identity", star_product(f, one), f


@_register(
    "star-basic",
    "16",
    "star",
    "first-order products carry the ordering-split correction",
    {},
)
def _run_star_basic(rng):
    q = PhasePoly.generator("q")
    p = PhasePoly.generator("p")
    half = Fraction(1, 2)
    yield "case 0", star_product(q, p), q * p - PhasePoly.constant(I * HBAR * half * (ONE + S))
    yield "case 1", star_product(p, q), q * p + PhasePoly.constant(I * HBAR * half * (ONE - S))
    yield (
        "case 2",
        star_product(q * q, p * p),
        q * q * p * p
        - q * p * (I * HBAR * 2 * (ONE + S))
        - PhasePoly.constant(HBAR * HBAR * half * (ONE + S) ** 2),
    )
    yield (
        "case 3",
        star_product(p * p, q * q),
        q * q * p * p
        + q * p * (I * HBAR * 2 * (ONE - S))
        - PhasePoly.constant(HBAR * HBAR * half * (ONE - S) ** 2),
    )


@_register(
    "star-associativity",
    "16",
    "star",
    "the deformed product associates",
    {"triples": 12, "max_degree": 3, "dofs": [1, 2]},
)
def _run_star_assoc(rng):
    for dof in (1, 2):
        for _ in range(6):
            f = random_phase_poly(rng, dof, max_total=3)
            g = random_phase_poly(rng, dof, max_total=3)
            h = random_phase_poly(rng, dof, max_total=3)
            left = star_product(star_product(f, g), h)
            yield f"dof {dof}", left, star_product(f, star_product(g, h))


@_register(
    "pb-convention",
    "17",
    "star",
    "the classical bracket follows the momentum-first sign convention",
    {"pairs": 8},
)
def _run_pb_convention(rng):
    q = PhasePoly.generator("q")
    p = PhasePoly.generator("p")
    yield "{q,p}", poisson_bracket(q, p), PhasePoly.constant(-1)
    yield "{q^2 p,q p^2}", poisson_bracket(q * q * p, q * p * p), q * q * p * p * (-3)
    yield "{q p,q^2}", poisson_bracket(q * p, q * q), q * q * 2
    for _ in range(8):
        f = random_phase_poly(rng)
        g = random_phase_poly(rng)
        yield "antisymmetry", poisson_bracket(f, g), -poisson_bracket(g, f)


@_register(
    "mb-basic",
    "18",
    "star",
    "the deformed bracket is hbar-divisible and separates dofs",
    {"pairs": 8},
)
def _run_mb_basic(rng):
    q = PhasePoly.generator("q")
    p = PhasePoly.generator("p")
    yield "{q,p}", moyal_bracket(q, p), PhasePoly.constant(-(I * HBAR))
    want = q * p * (-4 * I * HBAR) - PhasePoly.constant(2 * HBAR * HBAR * S)
    yield "degree-two pair", moyal_bracket(q * q, p * p), want
    for _ in range(8):
        f = random_phase_poly(rng, coeff=lambda r: random_scalar(r, max_hbar=1, max_s=1))
        g = random_phase_poly(rng, coeff=lambda r: random_scalar(r, max_hbar=1, max_s=1))
        low = moyal_bracket(f, g).min_hbar_exp()
        yield "bracket hbar-divisible", low is None or low >= 1, True
    q1 = PhasePoly.generator("q", 0, 2)
    p2 = PhasePoly.generator("p", 1, 2)
    yield "cross-dof bracket", moyal_bracket(q1, p2), PhasePoly.zero(2)


# --- monomial structure constants -----------------------------------------


@_register(
    "winf-pb-constants",
    "47",
    "winf",
    "classical monomial brackets have the closed-form structure constants",
    {"max_exponent": 3},
)
def _run_winf_pb(rng):
    for n in range(4):
        for m in range(4):
            for k in range(4):
                for l in range(4):
                    direct = poisson_bracket(
                        PhasePoly.monomial([(n, m)]), PhasePoly.monomial([(k, l)])
                    )
                    yield f"({n},{m},{k},{l})", direct, winf_pb_structure(n, m, k, l)


@_register(
    "winf-mb-closed-form",
    "48-49",
    "winf",
    "the deformed structure constants match the double-sum closed form",
    {"max_exponent": 3},
)
def _run_winf_mb(rng):
    for n in range(4):
        for m in range(4):
            for k in range(4):
                for l in range(4):
                    direct = moyal_bracket(
                        PhasePoly.monomial([(n, m)]), PhasePoly.monomial([(k, l)])
                    )
                    yield f"({n},{m},{k},{l})", direct, winf_mb_closed_form(n, m, k, l)


@_register(
    "mb-to-pb-contraction",
    "50",
    "winf",
    "rescaling and dropping hbar contracts the deformed bracket",
    {"pairs": 10, "max_degree": 4},
)
def _run_contraction(rng):
    for _ in range(10):
        f = random_phase_poly(rng)
        g = random_phase_poly(rng)
        yield "pair", classical_limit_bracket(f, g), poisson_bracket(f, g)


# --- the ordering map ------------------------------------------------------


@_register(
    "wwgm-roundtrip",
    "19",
    "wwgm",
    "the ordering map and its inverse compose to the identity",
    {"samples": 16, "dofs": [1, 2]},
)
def _run_roundtrip(rng):
    for dof in (1, 2):
        for _ in range(4):
            f = random_phase_poly(rng, dof)
            yield f"dof {dof} phase", ms_inverse(ms(f)), f
            F = random_op_poly(rng, dof)
            yield f"dof {dof} operator", ms(ms_inverse(F)), F


@_register(
    "derivative-images",
    "30-31",
    "wwgm",
    "adjoint actions reproduce the images of partial derivatives",
    {"samples": 8, "dofs": [1, 2]},
)
def _run_derivative_images(rng):
    for dof in (1, 2):
        for _ in range(4):
            f = random_phase_poly(rng, dof)
            for var in ("q", "p"):
                for index in range(dof):
                    got = derivative_image(f, var, index)
                    yield f"{var}{index}", got, ms(f.derivative(var, index))


@_register(
    "pb-homomorphism",
    "40",
    "wwgm",
    "the ordering map carries the classical bracket to the operator one",
    {"pairs": 12, "max_degree": 4, "dofs": [1, 2]},
)
def _run_pb_homomorphism(rng):
    for dof in (1, 2):
        for _ in range(6):
            f = random_phase_poly(rng, dof)
            g = random_phase_poly(rng, dof)
            yield f"dof {dof}", ms(poisson_bracket(f, g)), pmb_functions(f, g, variant=1)


@_register(
    "mb-antihomomorphism",
    "18",
    "wwgm",
    "the deformed bracket maps to the negated commutator",
    {"pairs": 10},
)
def _run_antihom(rng):
    for _ in range(10):
        f = random_phase_poly(rng)
        g = random_phase_poly(rng)
        ok, pair = antihom_check(f, g)
        # On failure the pair is (lhs, rhs); on success there is only ok.
        yield ("pair", *pair) if pair else ("pair", ok, True)


@_register(
    "commutator-contraction",
    "56",
    "wwgm",
    "the pulled-back commutator contracts onto the classical bracket",
    {"pairs": 8},
)
def _run_commutator_contraction(rng):
    for _ in range(8):
        f = random_phase_poly(rng)
        g = random_phase_poly(rng)
        yield "pair", commutator_classical_limit(ms(f), ms(g)), poisson_bracket(f, g)


# --- commutative operator product ------------------------------------------


@_register(
    "diamond-product-law",
    "29",
    "diamond",
    "the commutative operator product adds monomial exponents",
    {"max_exponent": 2, "pairs": 6},
)
def _run_diamond_law(rng):
    for n1 in range(3):
        for m1 in range(3):
            for n2 in range(3):
                for m2 in range(3):
                    got = diamond(t_monomial(n1, m1), t_monomial(n2, m2))
                    yield f"({n1},{m1},{n2},{m2})", got, t_monomial(n1 + n2, m1 + m2)
    for _ in range(6):
        F = random_op_poly(rng, max_total=3)
        G = random_op_poly(rng, max_total=3)
        by_definition = _liouvillian_by_definition(ms_inverse(G), F)
        yield "closed form", diamond(F, G), by_definition
        yield "pullback", ms_inverse(by_definition), ms_inverse(F) * ms_inverse(G)


@_register(
    "diamond-symmetry",
    "29",
    "diamond",
    "the commutative operator product is symmetric and associative",
    {"samples": 6},
)
def _run_diamond_symmetry(rng):
    identity = OpPoly.identity()
    for _ in range(6):
        F = random_op_poly(rng, max_total=3)
        G = random_op_poly(rng, max_total=3)
        H = random_op_poly(rng, max_total=2)
        yield "symmetry", diamond(F, G), _liouvillian_by_definition(ms_inverse(F), G)
        yield "associativity", diamond(diamond(F, G), H), diamond(F, diamond(G, H))
        yield "identity element", diamond(F, identity), F


# --- the operator-side classical bracket -----------------------------------


@_register(
    "pmb-four-forms",
    "41-44",
    "pmb",
    "all four superoperator expressions of the bracket agree",
    {"pairs": 10, "max_degree": 3, "dofs": [1, 2]},
)
def _run_pmb_four_forms(rng):
    for dof in (1, 2):
        for _ in range(5):
            F = random_op_poly(rng, dof, max_total=3)
            G = random_op_poly(rng, dof, max_total=3)
            first = pmb(F, G, variant=1)
            for variant in (2, 3, 4):
                yield f"variant {variant}", pmb(F, G, variant=variant), first


@_register(
    "pmb-lie-axioms",
    "40",
    "pmb",
    "the operator bracket is antisymmetric and satisfies Jacobi",
    {"triples": 6, "max_degree": 3},
)
def _run_pmb_lie(rng):
    for _ in range(6):
        F = random_op_poly(rng, max_total=3)
        G = random_op_poly(rng, max_total=3)
        H = random_op_poly(rng, max_total=2)
        yield "antisymmetry", pmb(F, G), -pmb(G, F)
        jacobi = pmb(F, pmb(G, H)) + pmb(G, pmb(H, F)) + pmb(H, pmb(F, G))
        yield "jacobi", jacobi, OpPoly.zero()
        scalar = random_scalar(rng, max_hbar=1, max_s=1)
        yield "bilinearity", pmb(F * scalar + G, H), pmb(F, H) * scalar + pmb(G, H)


@_register(
    "pmb-affine-reduction",
    "58",
    "pmb",
    "on affine operators the bracket is the rescaled commutator",
    {"samples": 8, "dofs": [1, 2]},
)
def _run_pmb_affine(rng):
    for dof in (1, 2):
        for _ in range(4):
            affine = OpPoly.identity(dof) * random_scalar(rng)
            for i in range(dof):
                affine = affine + OpPoly.generator("q", i, dof) * random_scalar(rng)
                affine = affine + OpPoly.generator("p", i, dof) * random_scalar(rng)
            H = random_op_poly(rng, dof)
            yield f"dof {dof}", pmb(affine, H), commutator(affine, H) * I_OVER_HBAR


@_register(
    "monomial-derivative-superops",
    "52-54",
    "pmb",
    "generator adjoints and derivative superoperators act as index shifts",
    {"max_exponent": 3},
)
def _run_monomial_superops(rng):
    for n in range(4):
        for m in range(4):
            t = t_monomial(n, m)
            want_q = t_monomial(n, m - 1) * (I * HBAR * m) if m else OpPoly.zero()
            yield f"({n},{m}) position adjoint", ad_apply("q", t), want_q
            want_p = t_monomial(n - 1, m) * (-(I * HBAR) * n) if n else OpPoly.zero()
            yield f"({n},{m}) momentum adjoint", ad_apply("p", t), want_p
    for k in range(1, 4):
        for l in range(4):
            for n in range(4):
                for m in range(1, 4):
                    lhs = ordering_super_apply(k - 1, l, t_monomial(n, m - 1))
                    yield f"shift ({k},{l},{n},{m})", lhs, t_monomial(n + k - 1, m + l - 1)
    monomial = PhasePoly.monomial([(2, 3)])
    operand = random_op_poly(rng, max_total=2)
    via_derivative = liouvillian_apply(monomial.derivative("q"), operand)
    yield "derivative superoperator", via_derivative, ordering_super_apply(1, 3, operand) * 2


# --- closed families -------------------------------------------------------

_FAMILIES = [
    ("momentum-powers", lambda n, m: n == 0, [(0, m) for m in range(5)], True),
    ("position-powers", lambda n, m: m == 0, [(n, 0) for n in range(5)], True),
    ("balanced", lambda n, m: n == m, [(n, n) for n in range(4)], True),
    ("affine", lambda n, m: n + m <= 1, [(0, 0), (1, 0), (0, 1)], False),
    (
        "quadratic",
        lambda n, m: n + m == 2,
        [(2, 0), (1, 1), (0, 2)],
        False,
    ),
    (
        "inhomogeneous-quadratic",
        lambda n, m: n + m <= 2,
        [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)],
        False,
    ),
    (
        "momentum-degree-one",
        lambda n, m: m == 1,
        [(n, 1) for n in range(5)],
        False,
    ),
    (
        "position-degree-one",
        lambda n, m: n == 1,
        [(1, m) for m in range(5)],
        False,
    ),
]

_QUADRATIC_PAIR = ((2, 0), (0, 2))


def _family_residual(a, b):
    """Formal-order defect of the rescaled commutator on one pair.

    Zero everywhere except the opposite-quadratic pair, which carries an
    identity shift linear in both hbar and the order parameter.
    """
    if (a, b) == _QUADRATIC_PAIR:
        return Scalar.term(1, 1, GaussianRational(0, -2))
    if (b, a) == _QUADRATIC_PAIR:
        return Scalar.term(1, 1, GaussianRational(0, 2))
    return Scalar.constant(0)


@_register(
    "subalgebra-closure",
    "55",
    "subalgebras",
    "each monomial family closes under the operator bracket",
    {"families": [name for name, *_ in _FAMILIES]},
)
def _run_subalgebra_closure(rng):
    for name, predicate, window, abelian in _FAMILIES:
        for a in window:
            for b in window:
                bracket = pmb(t_monomial(*a), t_monomial(*b))
                if abelian:
                    yield f"{name} {a},{b}", bracket, OpPoly.zero()
                    continue
                outside = [key[0] for key in to_t_basis(bracket) if not predicate(*key[0])]
                yield f"{name} {a},{b} exponents outside the family", outside, []


@_register(
    "subalgebra-exactness",
    "55-56",
    "subalgebras",
    "the rescaled commutator matches the bracket on the families, with "
    "the opposite-quadratic pair's formal-order shift asserted exactly",
    {"families": [name for name, *_ in _FAMILIES]},
)
def _run_subalgebra_exactness(rng):
    for name, predicate, window, abelian in _FAMILIES:
        for a in window:
            for b in window:
                F = t_monomial(*a)
                G = t_monomial(*b)
                defect = pmb(F, G) - commutator(F, G) * I_OVER_HBAR
                yield f"{name} {a},{b}", defect, OpPoly.identity() * _family_residual(a, b)
                yield f"{name} {a},{b} at s = 0", defect.substitute(s_value=0), OpPoly.zero()


# --- dynamics --------------------------------------------------------------


@_register(
    "hamilton-rhs-chain",
    "58",
    "dynamics",
    "three routes to the generator equations of motion agree",
    {"samples": 6},
)
def _run_hamilton_chain(rng):
    q = PhasePoly.generator("q")
    qh = OpPoly.generator("q")
    for _ in range(6):
        H = random_phase_poly(rng, max_total=3)
        via_map = ms(-poisson_bracket(q, H))
        via_bracket = -pmb(qh, ms(H), variant=1)
        yield "map and bracket", via_map, via_bracket
        yield "bracket and commutator", via_bracket, hamilton_rhs(H)[0]
    qdot, pdot = hamilton_rhs(PhasePoly.generator("q") * PhasePoly.generator("p"))
    yield "bilinear hamiltonian position", qdot, qh
    yield "bilinear hamiltonian momentum", pdot, -OpPoly.generator("p")


@_register(
    "motion-equation-slots",
    "59",
    "dynamics",
    "both generator slots obey the commutator form of the bracket",
    {"samples": 6},
)
def _run_motion_slots(rng):
    qh = OpPoly.generator("q")
    ph = OpPoly.generator("p")
    for _ in range(6):
        H = random_phase_poly(rng, max_total=3)
        Hop = ms(H)
        qdot, pdot = hamilton_rhs(H)
        yield "position slot", -pmb(qh, Hop), qdot
        yield "momentum slot", -pmb(ph, Hop), pdot


@_register(
    "ehrenfest",
    "60",
    "dynamics",
    "mechanical hamiltonians give order-free velocity and force laws",
    {"potentials": 3},
)
def _run_ehrenfest(rng):
    q = PhasePoly.generator("q")
    p = PhasePoly.generator("p")
    ph = OpPoly.generator("p")
    half = Fraction(1, 2)
    potentials = [q * q * half, q * q * q, q * q * q * q - q * 3]
    for V in potentials:
        H = p * p * half + V
        qdot, pdot = hamilton_rhs(H)
        yield "velocity", qdot, ph
        yield "force", pdot, ms(-V.derivative("q"))
        yield "velocity depends on s", qdot.depends_on_s(), False
        yield "force depends on s", pdot.depends_on_s(), False


@_register(
    "classical-flow",
    "63",
    "dynamics",
    "classical series flows reproduce hand-iterated brackets",
    {"order": 3},
)
def _run_classical_flow(rng):
    q = PhasePoly.generator("q")
    p = PhasePoly.generator("p")
    zero = PhasePoly.zero()
    half = Fraction(1, 2)
    H = (q * q + p * p) * half
    want = FlowSeries(3, (q, p, q * Fraction(-1, 2), p * Fraction(-1, 6)))
    yield "oscillator", classical_flow_series(q, H, 3), want
    yield "free particle", classical_flow_series(q, p * p * half, 2), FlowSeries(2, (q, p, zero))
    frozen = FlowSeries(3, (H, zero, zero, zero))
    yield "energy", classical_flow_series(H, H, 3), frozen


@_register(
    "pmb-flow",
    "64",
    "dynamics",
    "the operator flow is the image of the classical flow",
    {"samples": 4, "order": 3},
)
def _run_pmb_flow(rng):
    q = PhasePoly.generator("q")
    p = PhasePoly.generator("p")
    qh = OpPoly.generator("q")
    ph = OpPoly.generator("p")
    zero = OpPoly.zero()
    half = Fraction(1, 2)
    H = (q * q + p * p) * half
    want = FlowSeries(3, (qh, ph, qh * Fraction(-1, 2), ph * Fraction(-1, 6)))
    yield "oscillator", pmb_flow_series(qh, H, 3), want
    for _ in range(4):
        f0 = random_phase_poly(rng, max_total=2)
        Hr = random_phase_poly(rng, max_total=2)
        classical = classical_flow_series(f0, Hr, 3)
        operator = _pmb_flow_by_definition(ms(f0), Hr, 3)
        yield "image of the classical flow", operator, classical.map_coefficients(ms)
    frozen = FlowSeries(3, (ms(H), zero, zero, zero))
    yield "energy", pmb_flow_series(ms(H), H, 3), frozen


@_register(
    "observable-rhs",
    "65",
    "dynamics",
    "position and momentum observables obey the split motion equations",
    {"samples": 4},
)
def _run_observable_rhs(rng):
    q = PhasePoly.generator("q")
    p = PhasePoly.generator("p")
    qh = OpPoly.generator("q")
    ph = OpPoly.generator("p")
    identity = OpPoly.identity()
    half = Fraction(1, 2)
    f_dot, _ = observable_rhs(q * q, p, p * p * half + q * q * half)
    want = qh * ph * 2 - identity * (I * HBAR * (ONE - S))
    yield "position observable", f_dot, want
    _, g_dot = observable_rhs(q, p * p, p * p * half + q)
    yield "momentum observable", g_dot, ph * (-2)
    for _ in range(4):
        exponent = rng.randint(1, 3)
        fobs = PhasePoly.monomial([(exponent, 0)])
        gobs = PhasePoly.monomial([(0, rng.randint(1, 3))])
        V = PhasePoly.monomial([(rng.randint(1, 3), 0)]) * rng.randint(-2, 2)
        H = p * p * half + V
        f_dot, g_dot = observable_rhs(fobs, gobs, H)
        Hop = ms(H)
        yield "split position equation", f_dot, pmb(Hop, ms(fobs), variant=1)
        yield "split momentum equation", g_dot, pmb(Hop, ms(gobs), variant=1)


# --- plumbing --------------------------------------------------------------

SUITES = (
    "all",
    "weyl",
    "star",
    "winf",
    "wwgm",
    "diamond",
    "pmb",
    "subalgebras",
    "dynamics",
)

assert len({check.id for check in _REGISTRY}) == len(_REGISTRY)
assert {check.suite for check in _REGISTRY} == set(SUITES[1:])


def _text(value):
    if isinstance(value, (PhasePoly, OpPoly, FlowSeries)):
        return render(value, "text")
    return str(value)


def _witness(runner, rng):
    """Judge one runner's comparisons: None when all hold, else the
    witness of the first mismatch (the runner is not resumed after it),
    of a runner that compared nothing, or of the exception it raised."""
    compared = False
    try:
        for label, got, want in runner(rng):
            if got != want:
                return f"{label}: {_text(got)} versus {_text(want)}"
            compared = True
    except Exception as error:  # a broken check fails its row, not the report
        return f"{type(error).__name__}: {error}"
    return None if compared else "no comparison made"


def run_suite(suite="all", seed=0):
    """Run one suite; returns the JSON-ready report dict.

    A check whose runner raises is reported as failing, with the
    exception as its witness, and the remaining checks still run.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    rng = random.Random(seed)
    checks = [c for c in _REGISTRY if suite == "all" or c.suite == suite]
    rows = []
    for check in checks:
        witness = _witness(check.runner, rng)
        rows.append(
            {
                "id": check.id,
                "anchor": check.anchor,
                "suite": check.suite,
                "params": check.params,
                "status": "pass" if witness is None else "fail",
                "witness": witness,
                "note": check.note,
            }
        )
    passed = sum(row["witness"] is None for row in rows)
    return {
        "kind": "conformance_report",
        "suite": suite,
        "seed": seed,
        "passed": passed,
        "failed": len(rows) - passed,
        "checks": rows,
    }
