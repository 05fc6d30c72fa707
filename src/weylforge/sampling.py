"""Seeded random generators for property checks.

Everything takes an explicit random.Random so that a seed fully
determines the draw sequence; nothing here touches the global RNG.
Coefficients are kept small to keep exact arithmetic fast.
"""

from fractions import Fraction

from .operators import OpPoly
from .phase import PhasePoly
from .polynomial import Scalar
from .scalars import GaussianRational

__all__ = [
    "random_fraction",
    "random_gaussian",
    "random_scalar",
    "random_exponents",
    "random_phase_poly",
    "random_op_poly",
]


def random_fraction(rng, bound=4):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))


def random_gaussian(rng, bound=4):
    re = random_fraction(rng, bound)
    im = random_fraction(rng, bound) if rng.random() < 0.5 else 0
    return GaussianRational(re, im)


def random_scalar(rng, max_hbar=0, max_s=0):
    """A Scalar with one or two small terms.

    max_hbar and max_s bound the formal exponents; the defaults give a
    plain Gaussian-rational constant.
    """
    out = Scalar.constant(0)
    for _ in range(rng.randint(1, 2)):
        out = out + Scalar.term(
            rng.randint(0, max_hbar),
            rng.randint(0, max_s),
            random_gaussian(rng),
        )
    return out


def random_exponents(rng, dof_count, max_total):
    """An exponent key ((n1, m1), ...) with total degree <= max_total."""
    while True:
        key = tuple(
            (rng.randint(0, max_total), rng.randint(0, max_total))
            for _ in range(dof_count)
        )
        if sum(n + m for n, m in key) <= max_total:
            return key


def _random_terms(rng, dof_count, max_total, max_terms, coeff):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_exponents(rng, dof_count, max_total)] = coeff(rng)
    return terms


def random_phase_poly(rng, dof_count=1, max_total=4, max_terms=3, coeff=random_scalar):
    return PhasePoly(dof_count, _random_terms(rng, dof_count, max_total, max_terms, coeff))


def random_op_poly(rng, dof_count=1, max_total=4, max_terms=3, coeff=random_scalar):
    return OpPoly(dof_count, _random_terms(rng, dof_count, max_total, max_terms, coeff))
