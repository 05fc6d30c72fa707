"""Two-sided multiplication maps, Liouvillians, and the operator-side
bracket that mirrors the Poisson bracket."""

import functools
import random

import pytest
from hypothesis import example, given, settings

from weylforge import (
    HBAR,
    I,
    I_OVER_HBAR,
    ONE,
    S,
    GaussianRational,
    Liouvillian,
    NegativeHbarPower,
    OpPoly,
    PhasePoly,
    Scalar,
    ad_apply,
    commutator,
    diamond,
    liouvillian_apply,
    ms,
    ms_inverse,
    ordering_super_apply,
    pmb,
    pmb_functions,
    t_monomial,
    t_super_apply,
)
from weylforge.cli import run_command
from weylforge.sampling import random_op_poly, random_phase_poly
from weylforge.superops import _liouvillian_by_definition

from helpers import diamond_by_definition
from strategies import same_dof

QH = OpPoly.generator("q")
PH = OpPoly.generator("p")
IDENT = OpPoly.identity()
I_HBAR = I * HBAR


class TestTwoSidedMaps:
    def test_on_identity_doubles(self):
        assert t_super_apply("q", 1, IDENT) == QH * 2
        assert t_super_apply("q", -1, IDENT) == QH * 2
        assert t_super_apply("p", 1, IDENT) == PH * 2

    def test_weighted_reordering(self):
        # (1+s) qh ph + (1-s) ph qh = 2 qh ph - i hbar (1 - s)
        got = t_super_apply("q", 1, PH)
        assert got == OpPoly.monomial([(1, 1)]) * 2 - IDENT * (
            I_HBAR * (ONE - S)
        )

    def test_q_and_p_maps_commute(self):
        """The position map at +s and momentum map at -s commute.

        Without this the ordering superoperator would depend on the
        order its factors are applied in.
        """
        rng = random.Random(61)
        for _ in range(60):
            F = random_op_poly(rng, max_total=4, max_terms=3)
            one_way = t_super_apply("q", 1, t_super_apply("p", -1, F))
            other = t_super_apply("p", -1, t_super_apply("q", 1, F))
            assert one_way == other

    def test_same_sigma_maps_do_not_commute(self):
        # Only the opposite-sign pairing commutes; at matching signs the
        # order matters, which is worth pinning so nobody "simplifies"
        # the sigma plumbing away.
        one_way = t_super_apply("q", 1, t_super_apply("p", 1, IDENT))
        other = t_super_apply("p", 1, t_super_apply("q", 1, IDENT))
        assert one_way - other == IDENT * (I_HBAR * S * 4)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            t_super_apply("q", 0, IDENT)

    def test_dof_tagged_generator(self):
        F = OpPoly.identity(2)
        got = t_super_apply(("p", 1), -1, F)
        assert got == OpPoly.generator("p", 1, dof_count=2) * 2


# Both generator maps share one check of the generator and the operand.
GENERATOR_MAPS = [
    pytest.param(functools.partial(t_super_apply, sigma=1), id="t_super_apply"),
    pytest.param(ad_apply, id="ad_apply"),
]


@pytest.mark.parametrize("apply", GENERATOR_MAPS)
class TestGeneratorChecks:
    def test_bad_kind(self, apply):
        with pytest.raises(ValueError):
            apply(("x", 0), F=IDENT)

    def test_index_out_of_range(self, apply):
        with pytest.raises(IndexError):
            apply(("q", 1), F=IDENT)
        with pytest.raises(IndexError):
            apply(("p", -1), F=OpPoly.identity(2))

    def test_non_operator_operand(self, apply):
        for operand in (PhasePoly.generator("q"), PhasePoly.zero(), ONE):
            with pytest.raises(TypeError):
                apply("q", F=operand)


class TestOrderingSuperop:
    def test_identity_yields_ordered_monomial(self):
        for n in range(4):
            for m in range(4):
                assert ordering_super_apply(n, m, IDENT) == t_monomial(n, m)

    def test_repeated_action_shifts_exponents(self):
        # O_kl on the (n, m) ordered monomial gives the (n+k, m+l) one.
        for n in range(3):
            for m in range(3):
                for k in range(3):
                    for l in range(3):
                        got = ordering_super_apply(k, l, t_monomial(n, m))
                        assert got == t_monomial(n + k, m + l), (n, m, k, l)

    def test_single_step_recursions(self):
        rng = random.Random(63)
        for _ in range(20):
            n, m = rng.randrange(4), rng.randrange(4)
            t = t_monomial(n, m)
            assert ordering_super_apply(1, 0, t) == t_monomial(n + 1, m)
            assert ordering_super_apply(0, 1, t) == t_monomial(n, m + 1)

    def test_two_dof(self):
        got = ordering_super_apply((1, 0), (1, 2), OpPoly.identity(2))
        assert got == t_monomial((1, 0), (1, 2))

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            ordering_super_apply((1,), (1, 2), OpPoly.identity(2))
        with pytest.raises(ValueError):
            ordering_super_apply(2, 1, OpPoly.identity(2))


class TestLiouvillian:
    def test_acting_on_identity_is_the_quantization(self):
        rng = random.Random(71)
        for _ in range(40):
            f = random_phase_poly(rng, max_total=4, max_terms=3)
            assert _liouvillian_by_definition(f, IDENT) == ms(f)

    def test_liouvillians_commute(self):
        rng = random.Random(72)
        for _ in range(40):
            f = random_phase_poly(rng, max_total=3, max_terms=2)
            g = random_phase_poly(rng, max_total=3, max_terms=2)
            F = random_op_poly(rng, max_total=2, max_terms=2)
            L_f = functools.partial(_liouvillian_by_definition, f)
            L_g = functools.partial(_liouvillian_by_definition, g)
            assert L_f(L_g(F)) == L_g(L_f(F))

    def test_linearity_in_source(self):
        rng = random.Random(73)
        for _ in range(30):
            f = random_phase_poly(rng, max_total=3, max_terms=2)
            g = random_phase_poly(rng, max_total=3, max_terms=2)
            F = random_op_poly(rng, max_total=3, max_terms=2)
            assert liouvillian_apply(f + g, F) == liouvillian_apply(
                f, F
            ) + liouvillian_apply(g, F)

    def test_class_interface(self):
        f = PhasePoly.generator("q")
        L = Liouvillian(f)
        assert L(IDENT) == QH
        assert L == Liouvillian(PhasePoly.generator("q"))
        assert L != Liouvillian(PhasePoly.generator("p"))
        assert "Liouvillian" in repr(L)

    def test_source_type_checked(self):
        with pytest.raises(TypeError):
            Liouvillian(QH)

    def test_dof_mismatch(self):
        with pytest.raises(ValueError):
            Liouvillian(PhasePoly.generator("q"))(OpPoly.identity(2))


def _bracket_or_refusal(*args):
    try:
        return pmb(*args)
    except NegativeHbarPower:
        return NegativeHbarPower


class TestClosedForms:
    """Each closed form against the paper's definition it replaces."""

    @given(same_dof(PhasePoly, OpPoly))
    def test_liouvillian_is_the_ordering_superoperator_sum(self, pair):
        f, F = pair
        assert Liouvillian(f).apply(F) == _liouvillian_by_definition(f, F)

    @given(same_dof(OpPoly, OpPoly))
    def test_diamond_is_the_liouvillian_of_the_pullback(self, pair):
        F, G = pair
        assert diamond(F, G) == diamond_by_definition(F, G)

    # The closed form raises NegativeHbarPower exactly when the variants do.
    @settings(max_examples=60)
    @given(same_dof(OpPoly, OpPoly, max_terms=2))
    @example((QH * Scalar.term(-1, 0, GaussianRational(1)), PH))
    def test_pmb_matches_every_variant(self, pair):
        F, G = pair
        closed = _bracket_or_refusal(F, G)
        for variant in (1, 2, 3, 4):
            assert _bracket_or_refusal(F, G, variant) == closed


class TestDegreeLimit:
    """The closed forms pass through ms and ms_inverse, so a result above
    MAX_T_DEGREE is refused with ms's message."""

    def test_diamond_result_above_the_limit(self):
        code, out = run_command(["eval", "diamond(qh^201, qh^201)"])
        assert code == 2
        assert out == (
            "error: ordered monomial of total degree 402 exceeds the limit of 400"
        )
        code, out = run_command(["eval", "diamond(qh^200, qh^200)"])
        assert (code, out) == (0, "qh^400")


class TestAdjointAction:
    def test_on_ordered_monomials(self):
        # ad_qh lowers m, ad_ph lowers n, with i hbar weights.
        for n in range(4):
            for m in range(4):
                t = t_monomial(n, m)
                dq = ad_apply("q", t)
                dp = ad_apply("p", t)
                if m:
                    assert dq == t_monomial(n, m - 1) * (I_HBAR * m)
                else:
                    assert dq.is_zero()
                if n:
                    assert dp == t_monomial(n - 1, m) * (-(I_HBAR) * n)
                else:
                    assert dp.is_zero()

    def test_matches_commutator(self):
        rng = random.Random(81)
        for _ in range(20):
            F = random_op_poly(rng, max_total=4, max_terms=3)
            assert ad_apply("q", F) == commutator(QH, F)
            assert ad_apply(("p", 0), F) == commutator(PH, F)


class TestDiamond:
    def test_symmetry(self):
        rng = random.Random(91)
        for _ in range(40):
            F = random_op_poly(rng, max_total=3, max_terms=2)
            G = random_op_poly(rng, max_total=3, max_terms=2)
            assert diamond(F, G) == diamond_by_definition(G, F)

    def test_identity_element(self):
        rng = random.Random(92)
        for _ in range(20):
            F = random_op_poly(rng, max_total=4, max_terms=3)
            assert diamond(F, IDENT) == F

    def test_pullback_multiplicativity(self):
        rng = random.Random(93)
        for _ in range(40):
            f = random_phase_poly(rng, max_total=3, max_terms=2)
            g = random_phase_poly(rng, max_total=3, max_terms=2)
            assert diamond_by_definition(ms(f), ms(g)) == ms(f * g)

    def test_inverse_map_sends_diamond_to_product(self):
        rng = random.Random(94)
        for _ in range(30):
            F = random_op_poly(rng, max_total=3, max_terms=2)
            G = random_op_poly(rng, max_total=3, max_terms=2)
            by_definition = diamond_by_definition(F, G)
            assert ms_inverse(by_definition) == ms_inverse(F) * ms_inverse(G)

    def test_simple_value(self):
        # qh diamond ph quantizes the commuting product q p.
        assert diamond(QH, PH) == t_monomial(1, 1)


class TestPmb:
    def test_canonical_pair_all_variants(self):
        for variant in (1, 2, 3, 4):
            assert pmb(QH, PH, variant) == -IDENT
            assert pmb(PH, QH, variant) == IDENT

    def test_variants_agree(self):
        rng = random.Random(111)
        for _ in range(30):
            F = random_op_poly(rng, max_total=3, max_terms=2)
            G = random_op_poly(rng, max_total=3, max_terms=2)
            first = pmb(F, G, 1)
            for variant in (2, 3, 4):
                assert pmb(F, G, variant) == first

    def test_lie_axioms(self):
        rng = random.Random(112)
        for _ in range(20):
            F = random_op_poly(rng, max_total=3, max_terms=2)
            G = random_op_poly(rng, max_total=3, max_terms=2)
            H = random_op_poly(rng, max_total=2, max_terms=2)
            assert pmb(F, G) == -pmb(G, F)
            cyc = (
                pmb(F, pmb(G, H))
                + pmb(G, pmb(H, F))
                + pmb(H, pmb(F, G))
            )
            assert cyc.is_zero()

    def test_leibniz_over_diamond(self):
        rng = random.Random(113)
        for _ in range(15):
            F = random_op_poly(rng, max_total=3, max_terms=2)
            G = random_op_poly(rng, max_total=2, max_terms=2)
            H = random_op_poly(rng, max_total=2, max_terms=2)
            assert pmb(F, diamond(G, H)) == diamond(pmb(F, G), H) + diamond(
                G, pmb(F, H)
            )

    def test_monomial_structure(self):
        for n in range(3):
            for m in range(3):
                for k in range(3):
                    for l in range(3):
                        if n + m == 0 or k + l == 0:
                            continue
                        got = pmb(t_monomial(n, m), t_monomial(k, l))
                        weight = m * k - n * l
                        if weight == 0:
                            assert got.is_zero(), (n, m, k, l)
                        else:
                            assert got == t_monomial(
                                n + k - 1, m + l - 1
                            ) * weight, (n, m, k, l)

    def test_affine_arguments_reduce_to_commutator(self):
        rng = random.Random(114)
        for _ in range(30):
            affine = (
                QH * rng.randrange(-3, 4)
                + PH * rng.randrange(-3, 4)
                + IDENT * rng.randrange(-3, 4)
            )
            G = random_op_poly(rng, max_total=4, max_terms=3)
            assert pmb(affine, G) == commutator(affine, G) * I_OVER_HBAR

    def test_quadratic_deviation_from_commutator(self):
        # The one spot in the quadratic family where the bracket and the
        # rescaled commutator disagree at formal s, and by exactly this.
        t20, t02 = t_monomial(2, 0), t_monomial(0, 2)
        residual = pmb(t20, t02) - commutator(t20, t02) * I_OVER_HBAR
        expected = IDENT * Scalar.term(1, 1, GaussianRational(0, -2))
        assert residual == expected
        flipped = pmb(t02, t20) - commutator(t02, t20) * I_OVER_HBAR
        assert flipped == -expected

    def test_function_entry_point(self):
        rng = random.Random(115)
        for _ in range(20):
            f = random_phase_poly(rng, max_total=3, max_terms=2)
            g = random_phase_poly(rng, max_total=3, max_terms=2)
            assert pmb_functions(f, g) == pmb(ms(f), ms(g), 1)
            for variant in (1, 4):
                assert pmb_functions(f, g, variant) == pmb(
                    ms(f), ms(g), variant
                )

    def test_variant_validated(self):
        with pytest.raises(ValueError):
            pmb(QH, PH, 5)

    def test_two_dof_cross_bracket_vanishes(self):
        q1 = OpPoly.generator("q", 0, dof_count=2)
        p2 = OpPoly.generator("p", 1, dof_count=2)
        assert pmb(q1, p2).is_zero()
