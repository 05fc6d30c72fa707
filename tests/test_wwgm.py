"""The bridge between commuting symbols and ordered operators."""

import random
from fractions import Fraction

from hypothesis import given

from weylforge import (
    HBAR,
    I,
    ONE,
    S,
    GaussianRational,
    OpPoly,
    PhasePoly,
    antihom_check,
    commutator,
    commutator_classical_limit,
    derivative_image,
    moyal_bracket,
    ms,
    ms_inverse,
    pmb,
    poisson_bracket,
    star_product,
    t_monomial,
    to_t_basis,
)
from weylforge.sampling import random_op_poly, random_phase_poly

from strategies import same_dof


def mono(n, m):
    return PhasePoly.monomial([(n, m)])


class TestRoundTrip:
    def test_monomials_map_to_ordered_basis(self):
        for n in range(5):
            for m in range(5):
                assert ms(mono(n, m)) == t_monomial(n, m)

    @given(same_dof(PhasePoly))
    def test_one_pass_is_the_sum_of_ordered_monomials(self, single):
        (f,) = single
        want = OpPoly.zero(f.dof_count)
        for key, coeff in f.items():
            n_vector = [n for n, _m in key]
            m_vector = [m for _n, m in key]
            want = want + t_monomial(n_vector, m_vector) * coeff
        assert ms(f) == want

    def test_generators(self):
        assert ms(PhasePoly.generator("q")) == OpPoly.generator("q")
        assert ms(PhasePoly.generator("p")) == OpPoly.generator("p")
        assert ms(PhasePoly.one()) == OpPoly.identity()

    def test_forward_then_back(self):
        rng = random.Random(121)
        for _ in range(60):
            f = random_phase_poly(rng, max_total=4, max_terms=3)
            assert ms_inverse(ms(f)) == f

    def test_back_then_forward(self):
        rng = random.Random(122)
        for _ in range(60):
            F = random_op_poly(rng, max_total=4, max_terms=3)
            assert ms(ms_inverse(F)) == F

    def test_inverse_is_the_t_basis_expansion(self):
        # ms_inverse wraps the expansion as it stands: already canonical,
        # the zero operator included.
        rng = random.Random(125)
        for dof in (1, 2, 3):
            assert ms_inverse(OpPoly.zero(dof)) == PhasePoly.zero(dof)
            for _ in range(10):
                F = random_op_poly(rng, dof_count=dof, max_total=4, max_terms=3)
                coeffs = to_t_basis(F)
                assert dict(ms_inverse(F).items()) == coeffs
                assert ms_inverse(F) == PhasePoly(dof, coeffs)

    def test_roundtrip_two_dof(self):
        rng = random.Random(123)
        for _ in range(30):
            f = random_phase_poly(rng, dof_count=2, max_total=3, max_terms=3)
            assert ms_inverse(ms(f)) == f

    def test_numeric_s_roundtrip(self):
        rng = random.Random(124)
        s0 = GaussianRational(0, Fraction(1, 2))
        for _ in range(30):
            f = random_phase_poly(rng, max_total=4, max_terms=3)
            F = ms(f).substitute(s_value=s0)
            assert not F.depends_on_s()
            assert ms_inverse(F).substitute(s_value=s0) == f

    def test_ordering_correction_example(self):
        # ph qh pulls back to q p - (1/2) i hbar (1 + s) and qh ph to
        # q p + (1/2) i hbar (1 - s); at s = 0 both keep a symmetric
        # correction of magnitude hbar / 2.
        half = Fraction(1, 2)
        pq = OpPoly.monomial([(1, 1)]) - OpPoly.identity() * (I * HBAR)
        assert ms_inverse(pq) == mono(1, 1) - PhasePoly.constant(
            (I * HBAR * half) * (ONE + S)
        )
        sym = ms_inverse(pq).substitute(s_value=GaussianRational(0, 0))
        assert sym == mono(1, 1) - PhasePoly.constant(I * HBAR * half)
        qp = ms_inverse(OpPoly.monomial([(1, 1)]))
        assert qp == mono(1, 1) + PhasePoly.constant(
            (I * HBAR * half) * (ONE - S)
        )


class TestDerivativeImages:
    def test_matches_actual_derivative(self):
        rng = random.Random(131)
        for _ in range(50):
            f = random_phase_poly(rng, max_total=4, max_terms=3)
            for var in ("q", "p"):
                assert derivative_image(f, var) == ms(f.derivative(var))

    def test_two_dof_indexing(self):
        rng = random.Random(132)
        for _ in range(20):
            f = random_phase_poly(rng, dof_count=2, max_total=3, max_terms=2)
            for var in ("q", "p"):
                for i in (0, 1):
                    assert derivative_image(f, var, i) == ms(
                        f.derivative(var, i)
                    )

    def test_numeric_s(self):
        f = mono(2, 2)
        s0 = GaussianRational(1, 0)
        assert derivative_image(f, "q").substitute(s_value=s0) == ms(
            f.derivative("q")
        ).substitute(s_value=s0)


class TestBracketTransport:
    def test_star_maps_to_reversed_product(self):
        rng = random.Random(141)
        for _ in range(50):
            f = random_phase_poly(rng, max_total=3, max_terms=2)
            g = random_phase_poly(rng, max_total=3, max_terms=2)
            assert ms(star_product(f, g)) == ms(g) * ms(f)

    def test_moyal_maps_to_negated_commutator(self):
        rng = random.Random(142)
        for _ in range(50):
            f = random_phase_poly(rng, max_total=3, max_terms=2)
            g = random_phase_poly(rng, max_total=3, max_terms=2)
            assert ms(moyal_bracket(f, g)) == -commutator(ms(f), ms(g))

    def test_antihom_check_passes(self):
        rng = random.Random(143)
        for _ in range(30):
            f = random_phase_poly(rng, max_total=3, max_terms=2)
            g = random_phase_poly(rng, max_total=3, max_terms=2)
            ok, witness = antihom_check(f, g)
            assert ok
            assert witness is None

    def test_poisson_maps_to_operator_bracket(self):
        """ms intertwines the Poisson bracket with the operator-side
        mirror bracket exactly, hbar and s formal throughout."""
        rng = random.Random(144)
        for _ in range(40):
            f = random_phase_poly(rng, max_total=3, max_terms=2)
            g = random_phase_poly(rng, max_total=3, max_terms=2)
            assert ms(poisson_bracket(f, g)) == pmb(ms(f), ms(g), 1)

    def test_commutator_contracts_to_poisson(self):
        rng = random.Random(145)
        for _ in range(40):
            F = random_op_poly(rng, max_total=3, max_terms=2)
            G = random_op_poly(rng, max_total=3, max_terms=2)
            got = commutator_classical_limit(F, G)
            expected = poisson_bracket(
                ms_inverse(F), ms_inverse(G)
            ).limit_hbar_zero()
            assert got == expected

    def test_commutator_contraction_canonical_pair(self):
        QH = OpPoly.generator("q")
        PH = OpPoly.generator("p")
        assert commutator_classical_limit(QH, PH) == PhasePoly.constant(-1)
