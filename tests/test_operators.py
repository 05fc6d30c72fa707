"""Normal ordering, commutators, and the s-ordered monomial basis."""

import random
import time
from fractions import Fraction

import pytest

from weylforge import (
    HBAR,
    I,
    ONE,
    S,
    GaussianRational,
    OpPoly,
    OpWord,
    Scalar,
    commutator,
    ms_inverse,
    normalize,
    t_monomial,
    to_t_basis,
)
from weylforge.cli import run_command
from weylforge.operators import MAX_T_DEGREE
from weylforge.render import render
from weylforge.sampling import random_op_poly

from helpers import (
    closed_form_reorder,
    oracle_normalize,
    oracle_t_averages,
    random_letters,
)

QH = OpPoly.generator("q")
PH = OpPoly.generator("p")
I_HBAR = I * HBAR


def word(text):
    """Build an OpWord from a string like 'pqqp' (single dof)."""
    return OpWord([(ch, 0) for ch in text])


class TestNormalForm:
    def test_canonical_commutator(self):
        assert commutator(QH, PH) == OpPoly.identity() * I_HBAR

    def test_single_swap(self):
        assert normalize(word("pq")) == OpPoly.monomial([(1, 1)]) - I_HBAR

    def test_pp_qq(self):
        # ph^2 qh^2 = qh^2 ph^2 - 4 i hbar qh ph - 2 hbar^2
        expected = (
            OpPoly.monomial([(2, 2)])
            - OpPoly.monomial([(1, 1)]) * I_HBAR * 4
            - OpPoly.identity() * HBAR * HBAR * 2
        )
        assert normalize(word("ppqq")) == expected

    def test_matches_random_order_oracle(self):
        """The normal form does not depend on the rewrite order.

        The library folds the word left to right through the closed
        reordering identity; the oracle rewrites a random inversion each
        step.  Same normal form either way, over many words, is the point
        of having a canonical basis at all.
        """
        rng = random.Random(404)
        for _ in range(150):
            letters = random_letters(rng, rng.randrange(1, 7))
            direct = normalize(OpWord(letters))
            assert direct == oracle_normalize(letters, rng)

    def test_matches_closed_form_reorder(self):
        for n in range(5):
            for m in range(5):
                got = normalize(
                    OpWord([("p", 0)] * m + [("q", 0)] * n)
                )
                assert got == closed_form_reorder(n, m)

    def test_two_dof_letters_commute(self):
        rng = random.Random(405)
        for _ in range(80):
            letters = random_letters(rng, rng.randrange(1, 7), dof_count=2)
            direct = normalize(OpWord(letters))
            assert direct == oracle_normalize(letters, rng)

    def test_product_associativity(self):
        rng = random.Random(406)
        for _ in range(60):
            a = random_op_poly(rng, max_total=3, max_terms=2)
            b = random_op_poly(rng, max_total=3, max_terms=2)
            c = random_op_poly(rng, max_total=3, max_terms=2)
            assert (a * b) * c == a * (b * c)

    def test_commutator_bilinearity_and_jacobi(self):
        rng = random.Random(407)
        for _ in range(40):
            a = random_op_poly(rng, max_total=3, max_terms=2)
            b = random_op_poly(rng, max_total=3, max_terms=2)
            c = random_op_poly(rng, max_total=3, max_terms=2)
            assert commutator(a, b) == -commutator(b, a)
            jac = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            assert jac.is_zero()


class TestOrderedMonomials:
    def test_fully_ordered_endpoints(self):
        # s=1 is the all-positions-left product, s=-1 the reverse.
        for n in range(4):
            for m in range(4):
                t = t_monomial(n, m)
                standard = t.substitute(s_value=GaussianRational(1, 0))
                assert standard == OpPoly.monomial([(n, m)])
                anti = t.substitute(s_value=GaussianRational(-1, 0))
                assert anti == normalize(
                    OpWord([("p", 0)] * m + [("q", 0)] * n)
                )

    def test_t11_formal(self):
        expected = (
            OpPoly.monomial([(1, 1)])
            + OpPoly.identity() * (I_HBAR * Fraction(1, 2)) * (S - ONE)
        )
        assert t_monomial(1, 1) == expected

    def test_t12_symmetric_is_average(self):
        # At s=0 the (1,2) monomial equals the full symmetrization
        # (qh ph^2 + ph qh ph + ph^2 qh)/3 = qh ph^2 - i hbar ph.
        sym = (
            normalize(word("qpp"))
            + normalize(word("pqp"))
            + normalize(word("ppq"))
        ) * Fraction(1, 3)
        assert t_monomial(1, 2).substitute(s_value=GaussianRational(0, 0)) == sym
        assert sym == OpPoly.monomial([(1, 2)]) - PH * I_HBAR

    def test_symmetric_square_of_t11(self):
        t11 = t_monomial(1, 1).substitute(s_value=GaussianRational(0, 0))
        expected = (
            OpPoly.monomial([(2, 2)])
            - OpPoly.monomial([(1, 1)]) * I_HBAR * 2
            - OpPoly.identity() * HBAR * HBAR * Fraction(1, 4)
        )
        assert t11 * t11 == expected

    def test_q_and_p_forms_agree(self):
        # The closed form must equal both defining binomial averages,
        # rewritten word by word by the random-order oracle.
        rng = random.Random(506)
        for n in range(4):
            for m in range(4):
                position_led, momentum_led = oracle_t_averages(n, m, rng)
                t = t_monomial(n, m)
                assert t == position_led
                assert t == momentum_led

    def test_no_dofs_rejected(self):
        with pytest.raises(ValueError, match="at least one dof"):
            t_monomial([], [])

    def test_multi_dof_factorizes(self):
        one = t_monomial(2, 1)
        other = t_monomial(0, 3)
        lifted_one = OpPoly(
            2,
            {
                (key[0], (0, 0)): coeff
                for key, coeff in one.items()
            },
        )
        lifted_other = OpPoly(
            2,
            {
                ((0, 0), key[0]): coeff
                for key, coeff in other.items()
            },
        )
        assert t_monomial((2, 0), (1, 3)) == lifted_one * lifted_other

    def test_numeric_s_matches_substitution(self):
        rng = random.Random(505)
        for _ in range(30):
            n, m = rng.randrange(4), rng.randrange(4)
            s0 = GaussianRational(
                Fraction(rng.randrange(-2, 3), rng.randrange(1, 4)), 0
            )
            formal = t_monomial(n, m)
            assert formal.substitute(s_value=s0) == formal.subs_s(
                Scalar.constant(s0)
            )


class TestTBasis:
    def test_roundtrip(self):
        rng = random.Random(606)
        for _ in range(60):
            F = random_op_poly(rng, max_total=4, max_terms=3)
            coeffs = to_t_basis(F)
            back = OpPoly.zero(F.dof_count)
            for key, coeff in coeffs.items():
                back = back + t_monomial(
                    [a for a, _ in key], [b for _, b in key]
                ) * coeff
            assert back == F

    def test_roundtrip_numeric_s(self):
        rng = random.Random(607)
        s0 = GaussianRational(0, Fraction(1, 2))
        for _ in range(40):
            F = random_op_poly(rng, dof_count=2, max_total=3, max_terms=2)
            F = F.subs_s(Scalar.constant(s0))
            coeffs = to_t_basis(F)
            back = OpPoly.zero(F.dof_count)
            for key, coeff in coeffs.items():
                back = back + t_monomial(
                    [a for a, _ in key], [b for _, b in key]
                ).substitute(s_value=s0) * coeff.substitute(s_value=s0)
            assert back == F

    def test_expansion_of_pq(self):
        # ph qh = t11 - (1/2) i hbar (1 + s) in the formal basis.
        coeffs = to_t_basis(normalize(word("pq")))
        assert coeffs == {
            ((1, 1),): ONE,
            ((0, 0),): -(I_HBAR * Fraction(1, 2)) * (ONE + S),
        }


class TestDagger:
    def test_generators_hermitian(self):
        assert QH.dagger() == QH
        assert PH.dagger() == PH

    def test_product_rule(self):
        assert (QH * PH).dagger() == PH * QH

    def test_antihomomorphism(self):
        rng = random.Random(707)
        for _ in range(50):
            a = random_op_poly(rng, max_total=3, max_terms=2)
            b = random_op_poly(rng, max_total=3, max_terms=2)
            assert (a * b).dagger() == b.dagger() * a.dagger()

    def test_involution(self):
        rng = random.Random(708)
        for _ in range(50):
            a = random_op_poly(rng, max_total=4, max_terms=3)
            assert a.dagger().dagger() == a

    def test_ordered_monomial_formally_self_adjoint_under_s_flip(self):
        # Adjoint with the simultaneous s -> -s relabel fixes every t.
        for n in range(4):
            for m in range(4):
                t = t_monomial(n, m)
                assert t.dagger(s_rule="negate_s") == t

    def test_standard_order_adjoint_is_antistandard(self):
        one = GaussianRational(1, 0)
        for n in range(4):
            for m in range(4):
                t = t_monomial(n, m)
                t_plus = t.substitute(s_value=one)
                t_minus = t.substitute(s_value=-one)
                assert t_plus.dagger() == t_minus


class TestOpPolyBasics:
    def test_number_operator_square(self):
        # With N = qh ph: N^2 = qh^2 ph^2 + i hbar qh ph.
        N = OpPoly.monomial([(1, 1)])
        assert N * N == OpPoly.monomial([(2, 2)]) - N * I_HBAR

    def test_scalar_coercions(self):
        assert QH + 1 - 1 == QH
        assert QH * 2 == QH + QH
        assert (QH * Fraction(1, 2)) * 2 == QH

    def test_dof_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QH + OpPoly.generator("q", 0, dof_count=2)

    def test_depends_on_s(self):
        assert not QH.depends_on_s()
        assert t_monomial(1, 1).depends_on_s()

    def test_total_degree(self):
        assert OpPoly.monomial([(2, 3)]).total_degree() == 5
        assert OpPoly.zero().total_degree() is None

    def test_substitute_hbar(self):
        F = OpPoly.monomial([(1, 1)]) * HBAR
        assert F.substitute(hbar_value=2) == OpPoly.monomial([(1, 1)]) * 2


def _sandwich(t):
    """t(n+1, m+1) from t(n, m) by the four-term sandwich recursion."""
    return (
        (QH * PH * t + t * PH * QH) * (ONE - S * S)
        + QH * t * PH * ((ONE + S) * (ONE + S))
        + PH * t * QH * ((ONE - S) * (ONE - S))
    ) * Fraction(1, 4)


def _nested(depth, fn):
    return fn() if depth == 0 else _nested(depth - 1, fn)


class TestHighDegree:
    """Degrees at which a recursive word rewriter ran out of stack."""

    def test_cli_t_30_30_matches_sandwich_from_oracle(self):
        code, out = run_command(["t", "30", "30"])
        assert code == 0
        built, _ = oracle_t_averages(2, 2, random.Random(808))
        for _ in range(28):
            built = _sandwich(built)
        assert out == render(built, "text")

    def test_t_monomial_from_nested_frames(self):
        got = _nested(50, lambda: t_monomial(22, 22))
        assert got.total_degree() == 44
        assert len(got.items()) == 23

    def test_normalize_long_word(self):
        m, n = 1900, 100
        got = normalize(OpWord([("p", 0)] * m + [("q", 0)] * n))
        assert got == closed_form_reorder(n, m)


class TestDegreeLimit:
    """t refuses a total degree above MAX_T_DEGREE instead of running on."""

    def test_cli_rejects_huge_degree_at_once(self):
        start = time.perf_counter()
        code, out = run_command(["t", "1500", "1500"])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert str(MAX_T_DEGREE) in out

    def test_limit_is_inclusive(self):
        assert MAX_T_DEGREE == 400
        assert run_command(["t", "200", "201"])[0] == 2
        code, out = run_command(["t", "200", "200"])
        assert code == 0
        assert out.startswith("qh^200*ph^200 ")

    def test_limit_counts_every_dof(self):
        with pytest.raises(ValueError, match="exceeds the limit of 400"):
            t_monomial((200, 1), (0, 200))
        code, out = run_command(["eval", "t(300, 300)"])
        assert code == 2
        assert "limit of 400" in out

    def test_basis_expansion_is_limited_too(self):
        start = time.perf_counter()
        code, out = run_command(["eval", "msinv(qh^250*ph^250)"])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "limit of 400" in out
        F = OpPoly.monomial([(200, 1), (0, 200)])
        with pytest.raises(ValueError, match="exceeds the limit of 400"):
            to_t_basis(F)
        with pytest.raises(ValueError, match="exceeds the limit of 400"):
            ms_inverse(F)

    def test_basis_expansion_at_the_limit(self):
        # One closed-form pass, where peeling one ordered monomial at a
        # time ran for minutes.
        start = time.perf_counter()
        coeffs = to_t_basis(OpPoly.monomial([(200, 200)]))
        assert time.perf_counter() - start < 10
        assert len(coeffs) == 201
        assert coeffs[((200, 200),)] == ONE
