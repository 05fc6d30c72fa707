"""Registry of anchored conformance checks behind the check subcommand.

Each check exercises one identity of the library against an
independently written form of the same statement, tagged with the
anchor string reported alongside it.  A suite run threads one seeded
RNG through the checks in registration order, so a (suite, seed) pair
fixes every draw and the report is reproducible byte for byte.

Runners return (ok, witness): witness is a short rendered text fragment
pinpointing the first failure, None when the check passes.
"""

import math
import random
from fractions import Fraction

from .dynamics import (
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


class _Check:
    __slots__ = ("id", "anchor", "suite", "note", "params", "runner")

    def __init__(self, id, anchor, suite, note, params, runner):
        self.id = id
        self.anchor = anchor
        self.suite = suite
        self.note = note
        self.params = params
        self.runner = runner


def _register(id, anchor, suite, note, params=None):
    def wrap(runner):
        _REGISTRY.append(_Check(id, anchor, suite, note, params or {}, runner))
        return runner

    return wrap


def _text(value):
    return render(value, "text")


def _mismatch(label, lhs, rhs):
    return f"{label}: {_text(lhs)} versus {_text(rhs)}"


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
            if one_way != other:
                return False, _mismatch(f"dof {dof}", one_way, other)
    return True, None


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
            got = ordering_super_apply(n, m, identity)
            want = t_monomial(n, m)
            if got != want:
                return False, _mismatch(f"({n},{m})", got, want)
    return True, None


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
            for form, want in (
                ("q", _split_average("q", n, [("p", 0)] * m, plus, minus)),
                ("p", _split_average("p", m, [("q", 0)] * n, minus, plus)),
            ):
                if got != want:
                    return False, _mismatch(f"({n},{m}) {form} form", got, want)
    return True, None


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
            standard = t_monomial(n, m).substitute(s_value=1)
            if standard != qh**n * ph**m:
                return False, _mismatch(f"({n},{m}) at +1", standard, qh**n * ph**m)
            antistandard = t_monomial(n, m).substitute(s_value=-1)
            if antistandard != ph**m * qh**n:
                return False, _mismatch(f"({n},{m}) at -1", antistandard, ph**m * qh**n)
    return True, None


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
                    want = t_monomial(n + k, m + l)
                    if got != want:
                        return False, _mismatch(f"({n},{m})on({k},{l})", got, want)
    return True, None


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
            want = t_monomial(n + 1, m + 1)
            if built != want:
                return False, _mismatch(f"({n},{m})", built, want)
    return True, None


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
    want = t_monomial(1, 2).substitute(s_value=0)
    if average != want:
        return False, _mismatch("average", average, want)
    return True, None


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
            if formal.dagger(s_rule="negate_s") != formal:
                return False, (f"({n},{m}) formal adjoint moved off the axis")
            for value in (0, half_i, minus_i):
                fixed = formal.substitute(s_value=value)
                if fixed.dagger() != fixed:
                    return False, f"({n},{m}) not self-adjoint at {value!r}"
    standard = t_monomial(1, 1).substitute(s_value=1)
    if standard.dagger() == standard:
        return False, "one-sided ordering reported self-adjoint"
    if standard.dagger() != t_monomial(1, 1).substitute(s_value=-1):
        return False, "adjoint of one-sided ordering is not the opposite extreme"
    return True, None


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
        if star_product(one, f) != f or star_product(f, one) != f:
            return False, _text(f)
    return True, None


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
    checks = [
        (star_product(q, p), q * p - PhasePoly.constant(I * HBAR * half * (ONE + S))),
        (star_product(p, q), q * p + PhasePoly.constant(I * HBAR * half * (ONE - S))),
        (
            star_product(q * q, p * p),
            q * q * p * p
            - q * p * (I * HBAR * 2 * (ONE + S))
            - PhasePoly.constant(HBAR * HBAR * half * (ONE + S) ** 2),
        ),
        (
            star_product(p * p, q * q),
            q * q * p * p
            + q * p * (I * HBAR * 2 * (ONE - S))
            - PhasePoly.constant(HBAR * HBAR * half * (ONE - S) ** 2),
        ),
    ]
    for index, (got, want) in enumerate(checks):
        if got != want:
            return False, _mismatch(f"case {index}", got, want)
    return True, None


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
            right = star_product(f, star_product(g, h))
            if left != right:
                return False, _mismatch(f"dof {dof}", left, right)
    return True, None


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
    if poisson_bracket(q, p) != PhasePoly.constant(-1):
        return False, _text(poisson_bracket(q, p))
    if poisson_bracket(q * q * p, q * p * p) != q * q * p * p * (-3):
        return False, _text(poisson_bracket(q * q * p, q * p * p))
    if poisson_bracket(q * p, q * q) != q * q * 2:
        return False, _text(poisson_bracket(q * p, q * q))
    for _ in range(8):
        f = random_phase_poly(rng)
        g = random_phase_poly(rng)
        if poisson_bracket(f, g) != -poisson_bracket(g, f):
            return False, _mismatch("antisymmetry", poisson_bracket(f, g), poisson_bracket(g, f))
    return True, None


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
    if moyal_bracket(q, p) != PhasePoly.constant(-(I * HBAR)):
        return False, _text(moyal_bracket(q, p))
    want = q * p * (-4 * I * HBAR) - PhasePoly.constant(2 * HBAR * HBAR * S)
    if moyal_bracket(q * q, p * p) != want:
        return False, _mismatch("degree-two pair", moyal_bracket(q * q, p * p), want)
    for _ in range(8):
        f = random_phase_poly(rng, coeff=lambda r: random_scalar(r, max_hbar=1, max_s=1))
        g = random_phase_poly(rng, coeff=lambda r: random_scalar(r, max_hbar=1, max_s=1))
        bracket = moyal_bracket(f, g)
        low = bracket.min_hbar_exp()
        if low is not None and low < 1:
            return False, f"bracket not hbar-divisible: {_text(bracket)}"
    q1 = PhasePoly.generator("q", 0, 2)
    p2 = PhasePoly.generator("p", 1, 2)
    if not moyal_bracket(q1, p2).is_zero():
        return False, "cross-dof bracket did not vanish"
    return True, None


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
                    closed = winf_pb_structure(n, m, k, l)
                    if direct != closed:
                        return False, _mismatch(f"({n},{m},{k},{l})", direct, closed)
    return True, None


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
                    closed = winf_mb_closed_form(n, m, k, l)
                    if direct != closed:
                        return False, _mismatch(f"({n},{m},{k},{l})", direct, closed)
    return True, None


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
        limit = classical_limit_bracket(f, g)
        classical = poisson_bracket(f, g)
        if limit != classical:
            return False, _mismatch("pair", limit, classical)
    return True, None


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
            if ms_inverse(ms(f)) != f:
                return False, _text(f)
            F = random_op_poly(rng, dof)
            if ms(ms_inverse(F)) != F:
                return False, _text(F)
    return True, None


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
                    want = ms(f.derivative(var, index))
                    if got != want:
                        return False, _mismatch(f"{var}{index}", got, want)
    return True, None


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
            lhs = ms(poisson_bracket(f, g))
            rhs = pmb_functions(f, g, variant=1)
            if lhs != rhs:
                return False, _mismatch(f"dof {dof}", lhs, rhs)
    return True, None


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
        ok, witness = antihom_check(f, g)
        if not ok:
            return False, _mismatch("pair", witness[0], witness[1])
    return True, None


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
        limit = commutator_classical_limit(ms(f), ms(g))
        classical = poisson_bracket(f, g)
        if limit != classical:
            return False, _mismatch("pair", limit, classical)
    return True, None


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
                    want = t_monomial(n1 + n2, m1 + m2)
                    if got != want:
                        return False, _mismatch(f"({n1},{m1},{n2},{m2})", got, want)
    for _ in range(6):
        F = random_op_poly(rng, max_total=3)
        G = random_op_poly(rng, max_total=3)
        by_definition = _liouvillian_by_definition(ms_inverse(G), F)
        if diamond(F, G) != by_definition:
            return False, _mismatch("closed form", diamond(F, G), by_definition)
        if ms_inverse(by_definition) != ms_inverse(F) * ms_inverse(G):
            return False, "pullback of the product is not the product of pullbacks"
    return True, None


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
        swapped = _liouvillian_by_definition(ms_inverse(F), G)
        if diamond(F, G) != swapped:
            return False, _mismatch("symmetry", diamond(F, G), swapped)
        if diamond(diamond(F, G), H) != diamond(F, diamond(G, H)):
            return False, "associativity failed"
        if diamond(F, identity) != F:
            return False, "identity element failed"
    return True, None


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
                other = pmb(F, G, variant=variant)
                if other != first:
                    return False, _mismatch(f"variant {variant}", other, first)
    return True, None


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
        if pmb(F, G) != -pmb(G, F):
            return False, "antisymmetry failed"
        jacobi = pmb(F, pmb(G, H)) + pmb(G, pmb(H, F)) + pmb(H, pmb(F, G))
        if not jacobi.is_zero():
            return False, f"jacobi defect {_text(jacobi)}"
        scalar = random_scalar(rng, max_hbar=1, max_s=1)
        if pmb(F * scalar + G, H) != pmb(F, H) * scalar + pmb(G, H):
            return False, "bilinearity failed"
    return True, None


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
            lhs = pmb(affine, H)
            rhs = commutator(affine, H) * I_OVER_HBAR
            if lhs != rhs:
                return False, _mismatch(f"dof {dof}", lhs, rhs)
    return True, None


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
            if ad_apply("q", t) != want_q:
                return False, _mismatch(f"({n},{m}) position adjoint", ad_apply("q", t), want_q)
            want_p = t_monomial(n - 1, m) * (-(I * HBAR) * n) if n else OpPoly.zero()
            if ad_apply("p", t) != want_p:
                return False, _mismatch(f"({n},{m}) momentum adjoint", ad_apply("p", t), want_p)
    for k in range(1, 4):
        for l in range(4):
            for n in range(4):
                for m in range(1, 4):
                    lhs = ordering_super_apply(k - 1, l, t_monomial(n, m - 1))
                    rhs = t_monomial(n + k - 1, m + l - 1)
                    if lhs != rhs:
                        return False, _mismatch(f"shift ({k},{l},{n},{m})", lhs, rhs)
    monomial = PhasePoly.monomial([(2, 3)])
    operand = random_op_poly(rng, max_total=2)
    via_derivative = liouvillian_apply(monomial.derivative("q"), operand)
    via_shift = ordering_super_apply(1, 3, operand) * 2
    if via_derivative != via_shift:
        return False, "derivative superoperator is not the shifted ordering map"
    return True, None


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
                    if not bracket.is_zero():
                        return False, f"{name} {a},{b}: {_text(bracket)}"
                    continue
                for key in to_t_basis(bracket):
                    n, m = key[0]
                    if not predicate(n, m):
                        return False, f"{name} {a},{b} left the family at ({n},{m})"
    return True, None


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
                bracket = pmb(F, G)
                rescaled = commutator(F, G) * I_OVER_HBAR
                residual = OpPoly.identity() * _family_residual(a, b)
                if bracket - rescaled != residual:
                    return False, _mismatch(
                        f"{name} {a},{b}", bracket - rescaled, residual
                    )
                at_zero = (bracket - rescaled).substitute(s_value=0)
                if not at_zero.is_zero():
                    return False, f"{name} {a},{b} deviates at the symmetric point"
    return True, None


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
        via_commutator = hamilton_rhs(H)[0]
        if via_map != via_bracket or via_bracket != via_commutator:
            return False, _mismatch("chain", via_map, via_commutator)
    qdot, pdot = hamilton_rhs(PhasePoly.generator("q") * PhasePoly.generator("p"))
    if qdot != qh or pdot != -OpPoly.generator("p"):
        return False, _mismatch("bilinear hamiltonian", qdot, pdot)
    return True, None


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
        if -pmb(qh, Hop) != qdot:
            return False, "position slot mismatch"
        if -pmb(ph, Hop) != pdot:
            return False, "momentum slot mismatch"
    return True, None


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
        if qdot != ph:
            return False, _mismatch("velocity", qdot, ph)
        force = ms(-V.derivative("q"))
        if pdot != force:
            return False, _mismatch("force", pdot, force)
        if qdot.depends_on_s() or pdot.depends_on_s():
            return False, "motion equations picked up order dependence"
    return True, None


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
    half = Fraction(1, 2)
    H = (q * q + p * p) * half
    series = classical_flow_series(q, H, 3)
    want = (q, p, q * Fraction(-1, 2), p * Fraction(-1, 6))
    if series.coefficients != want:
        return False, _text(series)
    free = classical_flow_series(q, p * p * half, 2)
    if free.coefficients != (q, p, PhasePoly.zero()):
        return False, _text(free)
    energy = classical_flow_series(H, H, 3)
    if any(not c.is_zero() for c in energy.coefficients[1:]):
        return False, "energy series did not freeze"
    return True, None


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
    half = Fraction(1, 2)
    H = (q * q + p * p) * half
    series = pmb_flow_series(qh, H, 3)
    want = (qh, ph, qh * Fraction(-1, 2), ph * Fraction(-1, 6))
    if series.coefficients != want:
        return False, _text(series)
    for _ in range(4):
        f0 = random_phase_poly(rng, max_total=2)
        Hr = random_phase_poly(rng, max_total=2)
        classical = classical_flow_series(f0, Hr, 3)
        operator = _pmb_flow_by_definition(ms(f0), Hr, 3)
        if classical.map_coefficients(ms).coefficients != operator.coefficients:
            return False, "flows diverged"
    energy = pmb_flow_series(ms(H), H, 3)
    if any(not c.is_zero() for c in energy.coefficients[1:]):
        return False, "operator energy series did not freeze"
    return True, None


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
    if f_dot != want:
        return False, _mismatch("position observable", f_dot, want)
    _, g_dot = observable_rhs(q, p * p, p * p * half + q)
    if g_dot != ph * (-2):
        return False, _mismatch("momentum observable", g_dot, ph * (-2))
    for _ in range(4):
        exponent = rng.randint(1, 3)
        fobs = PhasePoly.monomial([(exponent, 0)])
        gobs = PhasePoly.monomial([(0, rng.randint(1, 3))])
        V = PhasePoly.monomial([(rng.randint(1, 3), 0)]) * rng.randint(-2, 2)
        H = p * p * half + V
        f_dot, g_dot = observable_rhs(fobs, gobs, H)
        Hop = ms(H)
        f_want = pmb(Hop, ms(fobs), variant=1)
        g_want = pmb(Hop, ms(gobs), variant=1)
        if f_dot != f_want or g_dot != g_want:
            return False, "split equations disagree with the bracket flow"
    return True, None


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
    passed = 0
    for check in checks:
        try:
            ok, witness = check.runner(rng)
        except Exception as error:  # a broken check fails its row, not the report
            ok, witness = False, f"{type(error).__name__}: {error}"
        passed += bool(ok)
        rows.append(
            {
                "id": check.id,
                "anchor": check.anchor,
                "suite": check.suite,
                "params": check.params,
                "status": "pass" if ok else "fail",
                "witness": witness,
                "note": check.note,
            }
        )
    return {
        "kind": "conformance_report",
        "suite": suite,
        "seed": seed,
        "passed": passed,
        "failed": len(rows) - passed,
        "checks": rows,
    }
