"""Exact coefficient arithmetic: GaussianRational and Scalar."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylforge import (
    HBAR,
    I,
    I_OVER_HBAR,
    NEG_I_OVER_HBAR,
    ONE,
    S,
    ZERO,
    GaussianRational,
    NegativeHbarPower,
    Scalar,
)
from weylforge.cli import run_command
from weylforge.scalars import MAX_POWER_BITS
from weylforge.sampling import random_gaussian, random_scalar


class TestGaussianRational:
    def test_construction_accepts_fractions_and_ints(self):
        g = GaussianRational(Fraction(1, 2), 3)
        assert g.re == Fraction(1, 2)
        assert g.im == Fraction(3)

    def test_field_axioms(self):
        """Spot-check the field structure on random draws.

        Not trying to be clever here: associativity, commutativity,
        distributivity, and inverses on a few hundred seeded triples.
        """
        rng = random.Random(101)
        for _ in range(300):
            a = random_gaussian(rng)
            b = random_gaussian(rng)
            c = random_gaussian(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            if b:
                assert b * (a / b) == a

    def test_conjugate_involution_and_norm(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_gaussian(rng)
            assert g.conjugate().conjugate() == g
            norm = g * g.conjugate()
            assert norm.im == 0
            assert norm.re >= 0

    def test_i_squared(self):
        i = GaussianRational(0, 1)
        assert i * i == GaussianRational(-1, 0)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1, 0) / GaussianRational(0, 0)

    @pytest.mark.parametrize(
        "base,exp,expected",
        [
            (GaussianRational(0, 1), 2, GaussianRational(-1, 0)),
            (GaussianRational(0, 1), 3, GaussianRational(0, -1)),
            (GaussianRational(2, 0), -1, GaussianRational(Fraction(1, 2), 0)),
            (GaussianRational(1, 1), 2, GaussianRational(0, 2)),
        ],
    )
    def test_powers(self, base, exp, expected):
        assert base**exp == expected

    def test_hash_agrees_with_eq_on_rationals(self):
        for value in (0, 1, -3, Fraction(1, 2)):
            g = GaussianRational(value)
            assert g == value and hash(g) == hash(value)
            assert len({g, value}) == 1
        assert hash(GaussianRational(1, 2)) == hash(GaussianRational(1, 2))



# Reference model: a Gaussian rational as a (re, im) pair of Fractions.
rationals = st.fractions(min_value=-40, max_value=40, max_denominator=30)
pairs = st.tuples(rationals, rationals)
gaussians = pairs.map(lambda pair: GaussianRational(*pair))
nonzero = gaussians.filter(bool)


def pair_of(x):
    return (x.re, x.im)


def pair_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def assert_canonical(x):
    a, b, d = x._a, x._b, x._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0
    assert math.gcd(a, b, d) == 1
    if not x:
        assert (a, b, d) == (0, 0, 1)


class TestIntegerTriple:
    """The (a + b*i)/d triple against a pair-of-Fractions reference."""

    @given(pairs)
    def test_construction_is_canonical(self, pair):
        x = GaussianRational(*pair)
        assert_canonical(x)
        assert pair_of(x) == pair

    @given(gaussians, gaussians)
    def test_operations_stay_canonical_and_match_reference(self, x, y):
        u, v = pair_of(x), pair_of(y)
        for got, want in (
            (x + y, (u[0] + v[0], u[1] + v[1])),
            (x - y, (u[0] - v[0], u[1] - v[1])),
            (x * y, pair_mul(u, v)),
            (-x, (-u[0], -u[1])),
            (x.conjugate(), (u[0], -u[1])),
        ):
            assert_canonical(got)
            assert pair_of(got) == want
        if y:
            norm = v[0] * v[0] + v[1] * v[1]
            quotient = x / y
            assert_canonical(quotient)
            assert pair_of(quotient) == pair_mul(u, (v[0] / norm, -v[1] / norm))

    def test_zero_is_one_triple(self):
        for zero in (
            GaussianRational(),
            GaussianRational(Fraction(3, 7), 2) - GaussianRational(Fraction(3, 7), 2),
            GaussianRational(Fraction(1, 2)) * 0,
        ):
            assert_canonical(zero)
            assert (zero._a, zero._b, zero._d) == (0, 0, 1)

    @given(gaussians, gaussians, gaussians)
    def test_commutative_ring_axioms(self, x, y, z):
        zero, one = GaussianRational(0), GaussianRational(1)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x + zero == x
        assert x + (-x) == zero
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * one == x
        assert x * (y + z) == x * y + x * z

    @given(gaussians, nonzero)
    def test_division_undoes_multiplication(self, x, y):
        assert x / y * y == x

    @given(gaussians)
    def test_parts_are_fractions_and_rebuild_the_value(self, x):
        assert type(x.re) is Fraction
        assert type(x.im) is Fraction
        assert GaussianRational(x.re, x.im) == x
        assert hash(GaussianRational(x.re, x.im)) == hash(x)

    @given(rationals, rationals.filter(bool))
    def test_eq_and_hash_agree_with_int_and_fraction(self, real, imag):
        x = GaussianRational(real)
        assert x == real and hash(x) == hash(real)
        assert len({x, real}) == 1
        if real.denominator == 1:
            whole = int(real)
            assert x == whole and hash(x) == hash(whole)
        assert GaussianRational(real, imag) != real


class TestScalarRing:
    def test_ring_axioms(self):
        rng = random.Random(202)
        for _ in range(400):
            a = random_scalar(rng, max_hbar=2, max_s=2)
            b = random_scalar(rng, max_hbar=2, max_s=2)
            c = random_scalar(rng, max_hbar=2, max_s=2)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + ZERO == a
            assert a * ONE == a
            assert a - a == ZERO

    def test_zero_terms_are_dropped(self):
        a = Scalar.term(1, 0, 3)
        b = Scalar.term(1, 0, -3)
        assert not (a + b)
        assert (a + b) == ZERO

    def test_int_and_fraction_coercion(self):
        assert Scalar.constant(2) * 3 == Scalar.constant(6)
        assert 3 * Scalar.constant(2) == Scalar.constant(6)
        assert HBAR * Fraction(1, 2) == Scalar.term(1, 0, Fraction(1, 2))

    def test_hash_agrees_with_eq_on_constants(self):
        for value in (0, 1, -3, Fraction(1, 2), GaussianRational(1, 2)):
            c = Scalar.constant(value)
            assert c == value and hash(c) == hash(value)
            assert len({c, value}) == 1
        assert hash(ZERO) == hash(0)
        assert hash(HBAR + 1) == hash(1 + HBAR)

    def test_i_over_hbar_constants(self):
        # 1/(i*hbar) = -i/hbar; the two names must stay opposites.
        assert I_OVER_HBAR * I * HBAR == -ONE
        assert NEG_I_OVER_HBAR * I * HBAR == ONE
        assert I_OVER_HBAR + NEG_I_OVER_HBAR == ZERO
        assert NEG_I_OVER_HBAR * HBAR == -I


class TestPowers:
    """Powers by repeated squaring equal repeated multiplication."""

    @given(gaussians, st.integers(0, 40))
    def test_gaussian_power_is_repeated_product(self, x, n):
        want = GaussianRational(1)
        for _ in range(n):
            want = want * x
        assert x**n == want
        assert_canonical(x**n)
        if x:
            assert x ** (-n) * want == 1

    def test_scalar_power_is_repeated_product(self):
        rng = random.Random(203)
        for _ in range(40):
            a = random_scalar(rng, max_hbar=2, max_s=2)
            want = ONE
            for n in range(12):
                assert a**n == want
                want = want * a

    def test_errors_unchanged(self):
        with pytest.raises(ValueError):
            GaussianRational(2) ** Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            GaussianRational(0) ** -1
        with pytest.raises(ValueError):
            HBAR**-1
        with pytest.raises(ValueError):
            HBAR**1.0
        assert GaussianRational(0) ** 0 == 1
        assert ZERO**0 == ONE

    def test_cli_huge_exponent_is_fast(self):
        start = time.perf_counter()
        assert run_command(["eval", "i^10000000"]) == (0, "1")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("expression", ["(2/3)^10000000", "(1/3)^100000"])
    def test_cli_oversized_power_exits_2_fast(self, expression):
        start = time.perf_counter()
        code, output = run_command(["eval", expression])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert f"exceeds the limit of {MAX_POWER_BITS} bits" in output

    def test_power_size_is_bounded_before_work(self):
        with pytest.raises(ValueError, match=f"limit of {MAX_POWER_BITS}"):
            GaussianRational(Fraction(1, 3)) ** -100000
        with pytest.raises(ValueError, match=f"limit of {MAX_POWER_BITS}"):
            (S * 0 + Fraction(2, 3)) ** 100000
        assert GaussianRational(0, 1) ** 10**7 == 1
        assert GaussianRational(2) ** 5000 == 2**5000


class TestConjugation:
    """Complex conjugation, with and without the s -> -s flip."""

    def test_fix_s_conjugates_coefficients_only(self):
        x = Scalar.term(1, 1, GaussianRational(0, 1))
        assert x.conjugate() == Scalar.term(1, 1, GaussianRational(0, -1))

    def test_negate_s_flips_odd_s_powers(self):
        x = Scalar.term(0, 1, 2) + Scalar.term(0, 2, 3)
        flipped = x.conjugate(s_rule="negate_s")
        assert flipped == Scalar.term(0, 1, -2) + Scalar.term(0, 2, 3)

    def test_involutions(self):
        rng = random.Random(11)
        for _ in range(200):
            x = random_scalar(rng, max_hbar=2, max_s=3)
            assert x.conjugate().conjugate() == x
            assert x.conjugate("negate_s").conjugate("negate_s") == x
            assert x.negate_s().negate_s() == x

    def test_conjugate_is_ring_antihomomorphism(self):
        # Commutative ring, so plain homomorphism in fact.
        rng = random.Random(12)
        for _ in range(100):
            a = random_scalar(rng, max_hbar=1, max_s=2)
            b = random_scalar(rng, max_hbar=1, max_s=2)
            for rule in ("fix_s", "negate_s"):
                assert (a * b).conjugate(rule) == a.conjugate(
                    rule
                ) * b.conjugate(rule)
                assert (a + b).conjugate(rule) == a.conjugate(
                    rule
                ) + b.conjugate(rule)

    def test_bad_rule_rejected(self):
        with pytest.raises(ValueError):
            ONE.conjugate(s_rule="swap")


class TestSubstitution:
    def test_substitute_is_evaluation(self):
        x = HBAR * S * 2 + Scalar.term(0, 2, 1) - Scalar.constant(5)
        got = x.substitute(s_value=GaussianRational(3, 0), hbar_value=2)
        assert got == Scalar.constant(2 * 2 * 3 + 9 - 5)

    def test_substitute_is_homomorphism(self):
        rng = random.Random(31)
        s0 = GaussianRational(Fraction(1, 3), 1)
        for _ in range(150):
            a = random_scalar(rng, max_hbar=2, max_s=2)
            b = random_scalar(rng, max_hbar=2, max_s=2)
            assert (a * b).substitute(s_value=s0) == a.substitute(
                s_value=s0
            ) * b.substitute(s_value=s0)
            assert (a + b).substitute(s_value=s0) == a.substitute(
                s_value=s0
            ) + b.substitute(s_value=s0)

    def test_partial_substitution_keeps_other_symbol(self):
        x = HBAR * S
        assert x.substitute(s_value=GaussianRational(2, 0)) == HBAR * 2
        assert x.substitute(hbar_value=3) == S * 3

    def test_subs_s_polynomial_composition(self):
        # s -> 1 - s on s^2 gives 1 - 2s + s^2.
        sq = S * S
        assert sq.subs_s(ONE - S) == ONE - S * 2 + S * S

    def test_negative_hbar_power_at_zero(self):
        with pytest.raises(ZeroDivisionError):
            I_OVER_HBAR.substitute(hbar_value=0)


class TestHbarStructure:
    def test_min_hbar_exp(self):
        assert (HBAR + ONE).min_hbar_exp() == 0
        assert (I_OVER_HBAR + ONE).min_hbar_exp() == -1
        assert ZERO.min_hbar_exp() is None

    def test_limit_hbar_zero_keeps_constant_part(self):
        x = Scalar.constant(4) + HBAR * 3 + Scalar.term(2, 1, 5)
        assert x.limit_hbar_zero() == Scalar.constant(4)

    def test_limit_hbar_zero_rejects_poles(self):
        with pytest.raises(NegativeHbarPower):
            I_OVER_HBAR.limit_hbar_zero()

    def test_laurent_inverse_powers_multiply_back(self):
        assert Scalar.term(-2, 0, 1) * HBAR * HBAR == ONE

    def test_sorted_terms_deterministic(self):
        x = S + HBAR + ONE + Scalar.term(1, 1, 1)
        assert [key for key, _ in x.sorted_terms()] == sorted(
            key for key, _ in x.items()
        )
