"""Property tests of the product kernels against their definitions.

The products, both brackets, the adjoint and the two-sided
multiplication maps are computed from integer kernels in one pass; here
each is held against the plain definition it shortcuts, on random
multi-dof inputs whose coefficients carry hbar (inverse powers
included) and the ordering parameter s.  The Lie axioms of both brackets
and the ms round trips ride along.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from weylforge import (
    ONE,
    S,
    OpPoly,
    OpWord,
    PhasePoly,
    ad_apply,
    moyal_bracket,
    ms,
    ms_inverse,
    normalize,
    pmb,
    poisson_bracket,
    star_product,
    t_super_apply,
)

from helpers import oracle_normalize, poisson_bracket_by_definition
from strategies import same_dof


def _word(key):
    return [
        (kind, index)
        for index, (n, m) in enumerate(key)
        for kind in "q" * n + "p" * m
    ]


class TestAgainstDefinitions:
    @given(same_dof(PhasePoly, PhasePoly))
    def test_moyal_is_the_star_commutator(self, pair):
        f, g = pair
        assert moyal_bracket(f, g) == star_product(f, g) - star_product(g, f)

    @settings(max_examples=40)
    @given(same_dof(PhasePoly, PhasePoly))
    def test_poisson_bracket_is_the_derivative_sum(self, pair):
        f, g = pair
        assert poisson_bracket(f, g) == poisson_bracket_by_definition(f, g)

    @given(same_dof(OpPoly))
    def test_t_super_is_two_sided_multiplication(self, single):
        (F,) = single
        for index in range(F.dof_count):
            for kind in "qp":
                A = OpPoly.generator(kind, index, F.dof_count)
                for sigma in (1, -1):
                    left = A * F * (ONE + S * sigma)
                    right = F * A * (ONE - S * sigma)
                    got = t_super_apply((kind, index), sigma, F)
                    assert got == left + right
                assert ad_apply((kind, index), F) == A * F - F * A

    @given(same_dof(OpPoly, OpPoly))
    def test_product_is_the_normal_form_of_concatenated_words(self, pair):
        F, G = pair
        dof_count = F.dof_count
        rng = random.Random(0)
        folded = OpPoly.zero(dof_count)
        rewritten = OpPoly.zero(dof_count)
        for key1, c1 in F.items():
            for key2, c2 in G.items():
                letters = _word(key1) + _word(key2)
                weight = c1 * c2
                word = OpWord(letters, dof_count)
                folded = folded + normalize(word, weight)
                rewritten = rewritten + oracle_normalize(
                    letters, rng, weight, dof_count
                )
        assert F * G == folded
        assert F * G == rewritten

    @given(same_dof(OpPoly, OpPoly), st.sampled_from(["fix_s", "negate_s"]))
    def test_dagger_reverses_products(self, pair, s_rule):
        F, G = pair
        assert (F * G).dagger(s_rule) == G.dagger(s_rule) * F.dagger(s_rule)


class TestLieAxioms:
    @given(same_dof(PhasePoly, PhasePoly, PhasePoly, max_dof=2, max_terms=2))
    def test_moyal_bracket(self, triple):
        f, g, h = triple
        assert moyal_bracket(f, g) == -moyal_bracket(g, f)
        jacobi = (
            moyal_bracket(f, moyal_bracket(g, h))
            + moyal_bracket(g, moyal_bracket(h, f))
            + moyal_bracket(h, moyal_bracket(f, g))
        )
        assert not jacobi

    # pmb refuses a result with an inverse power of hbar, so its inputs
    # carry none.
    @settings(max_examples=40)
    @given(same_dof(OpPoly, OpPoly, OpPoly, max_dof=2, max_terms=2, min_hbar=0))
    def test_pmb(self, triple):
        F, G, H = triple
        assert pmb(F, G) == -pmb(G, F)
        jacobi = pmb(F, pmb(G, H)) + pmb(G, pmb(H, F)) + pmb(H, pmb(F, G))
        assert not jacobi


class TestRoundTrips:
    @given(same_dof(PhasePoly))
    def test_ms_inverse_undoes_ms(self, single):
        (f,) = single
        assert ms_inverse(ms(f)) == f

    @given(same_dof(OpPoly))
    def test_ms_undoes_ms_inverse(self, single):
        (F,) = single
        assert ms(ms_inverse(F)) == F
