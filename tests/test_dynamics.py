"""Motion equations and truncated flows on both sides of the map."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylforge import (
    HBAR,
    FlowSeries,
    NegativeHbarPower,
    OpPoly,
    PhasePoly,
    Scalar,
    classical_flow_series,
    hamilton_rhs,
    ms,
    ms_inverse,
    observable_rhs,
    pmb,
    pmb_flow_series,
)
from weylforge.cli import run_command
from weylforge.dynamics import MAX_FLOW_ORDER, _pmb_flow_by_definition
from weylforge.sampling import random_phase_poly

from strategies import same_dof

QH = OpPoly.generator("q")
PH = OpPoly.generator("p")
Q = PhasePoly.generator("q")
P = PhasePoly.generator("p")

HALF = Scalar.constant(Fraction(1, 2))


def oscillator():
    return (Q * Q + P * P) * HALF


def mechanical(potential_terms, mass=1, dof_count=1):
    """p^2/2m plus a position-only potential, any number of dofs."""
    H = PhasePoly.zero(dof_count)
    for i in range(dof_count):
        key = tuple((0, 2) if j == i else (0, 0) for j in range(dof_count))
        H = H + PhasePoly.monomial(key, Scalar.constant(Fraction(1, 2 * mass)))
    for key, coeff in potential_terms:
        H = H + PhasePoly.monomial(key, coeff)
    return H


class TestFlowSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowSeries(-1, [])
        with pytest.raises(ValueError):
            FlowSeries(2, [QH, PH])
        with pytest.raises(TypeError):
            FlowSeries(1, [QH, Q])
        with pytest.raises(ValueError):
            FlowSeries(1, [QH, OpPoly.generator("q", 0, dof_count=2)])

    def test_space_tag(self):
        assert FlowSeries(0, [QH]).space == "operator"
        assert FlowSeries(0, [Q]).space == "phase"

    def test_sequence_protocol(self):
        series = FlowSeries(1, [Q, P])
        assert series[0] == Q
        assert list(series) == [Q, P]
        assert series == FlowSeries(1, [Q, P])
        assert series != FlowSeries(1, [Q, Q])

    def test_map_coefficients(self):
        series = FlowSeries(1, [Q, P]).map_coefficients(lambda c: c * 2)
        assert series == FlowSeries(1, [Q * 2, P * 2])


class TestHamiltonRhs:
    def test_oscillator(self):
        qdot, pdot = hamilton_rhs(oscillator())
        assert qdot == PH
        assert pdot == -QH

    def test_shear_hamiltonian(self):
        # H = q p drives q toward itself and p away from itself.
        qdot, pdot = hamilton_rhs(Q * P)
        assert qdot == QH
        assert pdot == -PH

    def test_quartic_potential(self):
        H = mechanical([(((4, 0),), Scalar.constant(Fraction(1, 4)))])
        qdot, pdot = hamilton_rhs(H)
        assert qdot == PH
        assert pdot == -OpPoly.monomial([(3, 0)])

    def test_agrees_with_bracket(self):
        rng = random.Random(151)
        for _ in range(30):
            H = random_phase_poly(rng, max_total=3, max_terms=3)
            Hop = ms(H)
            qdot, pdot = hamilton_rhs(H)
            assert qdot == pmb(Hop, QH)
            assert pdot == pmb(Hop, PH)

    def test_two_dof_coupling(self):
        H = mechanical([(((1, 0), (1, 0)), Scalar.constant(1))], dof_count=2)
        qdot0, pdot0 = hamilton_rhs(H, 0)
        qdot1, pdot1 = hamilton_rhs(H, 1)
        assert qdot0 == OpPoly.generator("p", 0, dof_count=2)
        assert pdot0 == -OpPoly.generator("q", 1, dof_count=2)
        assert qdot1 == OpPoly.generator("p", 1, dof_count=2)
        assert pdot1 == -OpPoly.generator("q", 0, dof_count=2)


class TestFlows:
    def test_order_limit(self):
        assert MAX_FLOW_ORDER == 64
        H = P * P * Fraction(1, 2) + Q * Q * Fraction(1, 2)
        for order in (MAX_FLOW_ORDER + 1, 10**6):
            with pytest.raises(ValueError, match="limit of 64"):
                pmb_flow_series(QH, H, order)
            with pytest.raises(ValueError, match="limit of 64"):
                classical_flow_series(Q, H, order)
        assert classical_flow_series(Q, H, MAX_FLOW_ORDER).order == 64

    @pytest.mark.parametrize(
        "argv",
        [
            [
                "evolve", "--observable", "q", "--hamiltonian", "(q^2+p^2)/2",
                "--order", "1000000",
            ],
            ["eval", "evolve(qh, (q^2+p^2)/2, 1000000)"],
            ["eval", "evolve(q, (q^2+p^2)/2, 65)"],
        ],
    )
    def test_cli_refuses_a_huge_order_at_once(self, argv):
        start = time.perf_counter()
        code, out = run_command(argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "limit of 64" in out

    def test_oscillator_operator_flow(self):
        """Position under the oscillator cycles through the generator
        pair with alternating signs and 1/k! weights."""
        series = pmb_flow_series(QH, oscillator(), 6)
        expected = [
            QH,
            PH,
            QH * Fraction(-1, 2),
            PH * Fraction(-1, 6),
            QH * Fraction(1, 24),
            PH * Fraction(1, 120),
            QH * Fraction(-1, 720),
        ]
        assert list(series) == expected
        assert series.order == 6
        assert series.space == "operator"

    def test_oscillator_classical_flow(self):
        series = classical_flow_series(Q, oscillator(), 4)
        assert list(series) == [
            Q,
            P,
            Q * Fraction(-1, 2),
            P * Fraction(-1, 6),
            Q * Fraction(1, 24),
        ]

    def test_flow_is_image_of_classical_flow(self):
        # The bracket keeps classical structure constants on the ordered
        # basis, so the two flows are exactly conjugate under the map,
        # not only in the small-hbar limit.
        rng = random.Random(161)
        for _ in range(15):
            f0 = random_phase_poly(rng, max_total=3, max_terms=2)
            H = random_phase_poly(rng, max_total=3, max_terms=2)
            op_side = _pmb_flow_by_definition(ms(f0), H, 3)
            classical = classical_flow_series(f0, H, 3)
            assert op_side.map_coefficients(ms_inverse) == FlowSeries(
                3, list(classical)
            )

    # The closed form raises NegativeHbarPower exactly when a step of the
    # iterated bracket does.
    @given(same_dof(OpPoly, PhasePoly, max_terms=2), st.integers(0, 4))
    def test_flow_matches_iterated_variant_four(self, pair, order):
        F0, H = pair
        try:
            want = _pmb_flow_by_definition(F0, H, order)
        except NegativeHbarPower:
            with pytest.raises(NegativeHbarPower):
                pmb_flow_series(F0, H, order)
        else:
            assert pmb_flow_series(F0, H, order) == want

    def test_energy_is_stationary(self):
        H = mechanical([(((3, 0),), Scalar.constant(Fraction(1, 3)))])
        series = pmb_flow_series(ms(H), H, 5)
        assert series[0] == ms(H)
        for k in range(1, 6):
            assert series[k].is_zero()
        classical = classical_flow_series(H, H, 5)
        for k in range(1, 6):
            assert classical[k].is_zero()

    def test_order_zero(self):
        series = pmb_flow_series(QH, oscillator(), 0)
        assert list(series) == [QH]

    def test_dof_mismatch(self):
        with pytest.raises(ValueError):
            pmb_flow_series(OpPoly.generator("q", 0, 2), oscillator(), 1)


class TestObservableRhs:
    def test_cubic_potential(self):
        H = mechanical([(((3, 0),), Scalar.constant(Fraction(1, 3)))])
        Fdot, Gdot = observable_rhs(Q, P, H)
        assert Fdot == PH
        assert Gdot == -OpPoly.monomial([(2, 0)])

    def test_mass_scaling(self):
        H = mechanical([(((2, 0),), HALF)], mass=2)
        Fdot, _ = observable_rhs(Q, P, H)
        assert Fdot == PH * Fraction(1, 2)

    def test_matches_bracket_motion(self):
        """Same right-hand sides as bracketing with the Hamiltonian.

        Run over several potentials to make sure the mass and potential
        split does not drift from the bracket route.
        """
        rng = random.Random(171)
        potentials = [
            [(((2, 0),), HALF)],
            [(((3, 0),), Scalar.constant(Fraction(1, 3)))],
            [(((4, 0),), Scalar.constant(Fraction(1, 4)))],
            [(((1, 0),), Scalar.constant(2))],
            [(((2, 0),), HALF), (((4, 0),), Scalar.constant(Fraction(1, 12)))],
        ]
        for terms in potentials:
            for mass in (1, 2, 3):
                H = mechanical(terms, mass=mass)
                Hop = ms(H)
                for _ in range(5):
                    f = random_phase_poly(
                        rng,
                        max_total=3,
                        max_terms=2,
                        coeff=lambda r: Scalar.constant(r.randrange(-3, 4)),
                    )
                    f = PhasePoly(
                        1, {key: c for key, c in f.items() if key[0][1] == 0}
                    )
                    g = random_phase_poly(
                        rng,
                        max_total=3,
                        max_terms=2,
                        coeff=lambda r: Scalar.constant(r.randrange(-3, 4)),
                    )
                    g = PhasePoly(
                        1, {key: c for key, c in g.items() if key[0][0] == 0}
                    )
                    Fdot, Gdot = observable_rhs(f, g, H)
                    assert Fdot == pmb(Hop, ms(f), 1)
                    assert Gdot == pmb(Hop, ms(g), 1)

    def test_two_dof(self):
        H = mechanical(
            [(((2, 0), (2, 0)), Scalar.constant(1))], dof_count=2
        )
        f = PhasePoly.monomial([(1, 0), (1, 0)])
        g = PhasePoly.monomial([(0, 1), (0, 1)])
        Fdot, Gdot = observable_rhs(f, g, H)
        assert Fdot == pmb(ms(H), ms(f), 1)
        assert Gdot == pmb(ms(H), ms(g), 1)

    def test_argument_validation(self):
        H = oscillator()
        with pytest.raises(ValueError):
            observable_rhs(P, P, H)
        with pytest.raises(ValueError):
            observable_rhs(Q, Q, H)

    def test_hamiltonian_shape_validation(self):
        with pytest.raises(ValueError):
            observable_rhs(Q, P, Q * P)  # no kinetic block
        with pytest.raises(ValueError):
            observable_rhs(Q, P, P * P * P)  # cubic momenta
        # kinetic term with a symbolic coefficient
        bad = PhasePoly.monomial([(0, 2)], HBAR * Fraction(1, 2)) + Q
        with pytest.raises(ValueError):
            observable_rhs(Q, P, bad)
        # negative kinetic coefficient
        bad = PhasePoly.monomial([(0, 2)], Scalar.constant(-1)) + Q
        with pytest.raises(ValueError):
            observable_rhs(Q, P, bad)

    def test_two_dof_kinetic_validation(self):
        # second dof has no kinetic term
        H = PhasePoly.monomial([(0, 2), (0, 0)], HALF)
        with pytest.raises(ValueError):
            observable_rhs(
                PhasePoly.generator("q", 0, 2),
                PhasePoly.generator("p", 0, 2),
                H,
            )
        # kinetic coefficients disagree
        H = PhasePoly.monomial([(0, 2), (0, 0)], HALF) + PhasePoly.monomial(
            [(0, 0), (0, 2)], Scalar.constant(1)
        )
        with pytest.raises(ValueError):
            observable_rhs(
                PhasePoly.generator("q", 0, 2),
                PhasePoly.generator("p", 0, 2),
                H,
            )


class TestHbarCleanliness:
    def test_motion_results_are_polynomial_in_hbar(self):
        rng = random.Random(181)
        for _ in range(20):
            H = random_phase_poly(rng, max_total=4, max_terms=3)
            qdot, pdot = hamilton_rhs(H)
            assert (qdot.min_hbar_exp() or 0) >= 0
            assert (pdot.min_hbar_exp() or 0) >= 0
