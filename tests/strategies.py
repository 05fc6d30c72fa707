"""Hypothesis strategies for polynomials with formal coefficients.

Coefficients carry powers of hbar (inverse powers included) and of the
ordering parameter s, with small Gaussian-rational values, so the
property tests exercise every part of the coefficient ring.
"""

from fractions import Fraction

from hypothesis import strategies as st

from weylforge import GaussianRational, Scalar

_small = st.integers(-3, 3)
_gaussians = st.builds(
    lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
    _small,
    _small,
    st.integers(1, 3),
)


def scalars(min_hbar=-2):
    """Nonzero Scalars of one or two terms, hbar exponents from min_hbar."""
    exponents = st.tuples(st.integers(min_hbar, 2), st.integers(0, 2))
    return st.dictionaries(exponents, _gaussians, min_size=1, max_size=2).map(
        Scalar
    )


def _polys(cls, dof_count, max_exp=2, max_terms=3, min_hbar=-2):
    block = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    key = st.tuples(*[block] * dof_count)
    terms = st.dictionaries(key, scalars(min_hbar), max_size=max_terms)
    return terms.map(lambda t: cls(dof_count, t))


@st.composite
def same_dof(draw, *classes, max_dof=3, **kwargs):
    """One polynomial per given class, all over one drawn dof count.

    max_exp bounds each exponent, max_terms the terms per polynomial and
    min_hbar the lowest power of hbar in a coefficient.
    """
    dof_count = draw(st.integers(1, max_dof))
    return tuple(draw(_polys(cls, dof_count, **kwargs)) for cls in classes)
