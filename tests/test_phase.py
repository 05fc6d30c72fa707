"""Phase-space products and brackets on commuting variables."""

import random
from fractions import Fraction

import pytest

from weylforge import (
    HBAR,
    I,
    ONE,
    S,
    GaussianRational,
    PhasePoly,
    Scalar,
    classical_limit_bracket,
    moyal_bracket,
    poisson_bracket,
    star_product,
    winf_mb_closed_form,
    winf_pb_structure,
)
from weylforge.sampling import random_phase_poly

Q = PhasePoly.generator("q")
P = PhasePoly.generator("p")
I_HBAR = I * HBAR


def mono(n, m, coeff=ONE):
    return PhasePoly.monomial([(n, m)], coeff)


class TestPoissonBracket:
    """Momentum-derivative-first convention, so {q, p} = -1."""

    def test_canonical_pair(self):
        assert poisson_bracket(Q, P) == PhasePoly.constant(-1)
        assert poisson_bracket(P, Q) == PhasePoly.constant(1)

    def test_scaling_example(self):
        assert poisson_bracket(Q * P, Q * Q) == mono(2, 0) * 2

    def test_cubic_example(self):
        got = poisson_bracket(mono(2, 1), mono(1, 2))
        assert got == mono(2, 2) * (-3)

    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(21)
        for _ in range(60):
            f = random_phase_poly(rng, max_total=3, max_terms=2)
            g = random_phase_poly(rng, max_total=3, max_terms=2)
            h = random_phase_poly(rng, max_total=3, max_terms=2)
            assert poisson_bracket(f, g) == -poisson_bracket(g, f)
            cyc = (
                poisson_bracket(f, poisson_bracket(g, h))
                + poisson_bracket(g, poisson_bracket(h, f))
                + poisson_bracket(h, poisson_bracket(f, g))
            )
            assert cyc.is_zero()

    def test_leibniz(self):
        rng = random.Random(22)
        for _ in range(60):
            f = random_phase_poly(rng, max_total=3, max_terms=2)
            g = random_phase_poly(rng, max_total=3, max_terms=2)
            h = random_phase_poly(rng, max_total=3, max_terms=2)
            assert poisson_bracket(f, g * h) == poisson_bracket(
                f, g
            ) * h + g * poisson_bracket(f, h)

    def test_two_dof_cross_terms_vanish(self):
        q2 = PhasePoly.generator("q", 1, dof_count=2)
        p1 = PhasePoly.generator("p", 0, dof_count=2)
        assert poisson_bracket(q2, p1).is_zero()


class TestStarProduct:
    def test_identity_element(self):
        rng = random.Random(31)
        one = PhasePoly.one()
        for _ in range(40):
            f = random_phase_poly(rng, max_total=4)
            assert star_product(one, f) == f
            assert star_product(f, one) == f

    def test_basic_pair(self):
        half = Fraction(1, 2)
        assert star_product(Q, P) == mono(1, 1) - PhasePoly.constant(
            (I_HBAR * half) * (ONE + S)
        )
        assert star_product(P, Q) == mono(1, 1) + PhasePoly.constant(
            (I_HBAR * half) * (ONE - S)
        )

    def test_quadratic_pair(self):
        got = star_product(mono(2, 0), mono(0, 2))
        expected = (
            mono(2, 2)
            - mono(1, 1) * (I_HBAR * 2) * (ONE + S)
            - PhasePoly.constant(
                HBAR * HBAR * Fraction(1, 2) * (ONE + S) ** 2
            )
        )
        assert got == expected
        got_rev = star_product(mono(0, 2), mono(2, 0))
        expected_rev = (
            mono(2, 2)
            + mono(1, 1) * (I_HBAR * 2) * (ONE - S)
            - PhasePoly.constant(
                HBAR * HBAR * Fraction(1, 2) * (ONE - S) ** 2
            )
        )
        assert got_rev == expected_rev

    def test_associativity(self):
        """The product genuinely associates at formal s and hbar.

        This is the structural fact everything downstream leans on, so
        it gets its own randomized pass rather than riding along in the
        conformance suite only.
        """
        rng = random.Random(32)
        for _ in range(50):
            f = random_phase_poly(rng, max_total=3, max_terms=2)
            g = random_phase_poly(rng, max_total=3, max_terms=2)
            h = random_phase_poly(rng, max_total=3, max_terms=2)
            assert star_product(star_product(f, g), h) == star_product(
                f, star_product(g, h)
            )

    def test_two_dof_associativity(self):
        rng = random.Random(33)
        for _ in range(25):
            f = random_phase_poly(rng, dof_count=2, max_total=2, max_terms=2)
            g = random_phase_poly(rng, dof_count=2, max_total=2, max_terms=2)
            h = random_phase_poly(rng, dof_count=2, max_total=2, max_terms=2)
            assert star_product(star_product(f, g), h) == star_product(
                f, star_product(g, h)
            )

    def test_classical_term_is_pointwise_product(self):
        rng = random.Random(34)
        for _ in range(40):
            f = random_phase_poly(rng, max_total=4)
            g = random_phase_poly(rng, max_total=4)
            assert star_product(f, g).limit_hbar_zero() == (
                f * g
            ).limit_hbar_zero()


class TestMoyalBracket:
    def test_canonical_pair(self):
        assert moyal_bracket(Q, P) == PhasePoly.constant(-I_HBAR)

    def test_quadratic_pair_keeps_s(self):
        # The s-dependence does NOT cancel here; freezing it guards the
        # kernel signs.
        got = moyal_bracket(mono(2, 0), mono(0, 2))
        expected = mono(1, 1) * (-4) * I_HBAR - PhasePoly.constant(
            HBAR * HBAR * S * 2
        )
        assert got == expected

    def test_antisymmetry(self):
        rng = random.Random(41)
        for _ in range(50):
            f = random_phase_poly(rng, max_total=3, max_terms=2)
            g = random_phase_poly(rng, max_total=3, max_terms=2)
            assert moyal_bracket(f, g) == -moyal_bracket(g, f)

    def test_classical_limit_recovers_poisson(self):
        rng = random.Random(42)
        for _ in range(50):
            f = random_phase_poly(rng, max_total=4, max_terms=2)
            g = random_phase_poly(rng, max_total=4, max_terms=2)
            assert classical_limit_bracket(f, g) == poisson_bracket(f, g)


class TestStructureConstants:
    def test_pb_form_matches_bracket(self):
        for n in range(4):
            for m in range(4):
                for k in range(4):
                    for l in range(4):
                        got = winf_pb_structure(n, m, k, l)
                        direct = poisson_bracket(mono(n, m), mono(k, l))
                        assert got == direct, (n, m, k, l)

    def test_pb_coefficient_shape(self):
        out = winf_pb_structure(2, 1, 1, 2)
        assert out == mono(2, 2, Scalar.constant(1 * 1 - 2 * 2))

    def test_mb_closed_form_matches_bracket(self):
        for n in range(4):
            for m in range(4):
                for k in range(4):
                    for l in range(4):
                        got = winf_mb_closed_form(n, m, k, l)
                        direct = moyal_bracket(mono(n, m), mono(k, l))
                        assert got == direct, (n, m, k, l)

    def test_mb_leading_term_is_pb(self):
        for n in range(4):
            for m in range(4):
                for k in range(4):
                    for l in range(4):
                        mb = winf_mb_closed_form(n, m, k, l)
                        scaled = mb * Scalar.term(-1, 0, GaussianRational(0, -1))
                        assert scaled.limit_hbar_zero() == winf_pb_structure(
                            n, m, k, l
                        )


class TestPhasePolyBasics:
    def test_commutative_product(self):
        rng = random.Random(51)
        for _ in range(40):
            f = random_phase_poly(rng, max_total=4)
            g = random_phase_poly(rng, max_total=4)
            assert f * g == g * f

    def test_derivative(self):
        f = mono(3, 2)
        assert f.derivative("q") == mono(2, 2) * 3
        assert f.derivative("p") == mono(3, 1) * 2
        assert PhasePoly.constant(5).derivative("q").is_zero()

    def test_derivative_two_dof(self):
        f = PhasePoly.monomial([(2, 0), (0, 3)])
        assert f.derivative("p", 1) == PhasePoly.monomial([(2, 0), (0, 2)]) * 3
        assert f.derivative("p", 0).is_zero()

    def test_derivatives_commute(self):
        rng = random.Random(52)
        for _ in range(30):
            f = random_phase_poly(rng, dof_count=2, max_total=4)
            assert f.derivative("q", 0).derivative("p", 1) == f.derivative(
                "p", 1
            ).derivative("q", 0)

    def test_dof_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Q + PhasePoly.generator("q", 0, dof_count=2)

    def test_bad_variable_rejected(self):
        with pytest.raises(ValueError):
            Q.derivative("x")
