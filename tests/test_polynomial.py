"""The sparse-polynomial container both algebras are built on.

The operator and phase-space polynomials share one container, so the
contract is checked for each class, and across them: values of the two
algebras must never compare equal or combine.  The container's stored
form (numerators over one denominator) must stay canonical through
every operation, since equality compares it structurally.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylforge
from weylforge import (
    HBAR,
    ONE,
    S,
    ZERO,
    GaussianRational,
    OpPoly,
    PhasePoly,
    Scalar,
    diamond,
    moyal_bracket,
    ms,
    ms_inverse,
    pmb,
    poisson_bracket,
    star_product,
    to_t_basis,
)
from weylforge.polynomial import MAX_DOF_COUNT

from strategies import same_dof, scalars

CLASSES = [OpPoly, PhasePoly]


def unit(cls, dof_count=1):
    return cls.identity(dof_count) if cls is OpPoly else cls.one(dof_count)


def test_unit_is_not_shared_between_algebras():
    assert OpPoly.identity(1) != PhasePoly.one(1)
    assert PhasePoly.one(1) != OpPoly.identity(1)
    assert OpPoly.zero(1) != PhasePoly.zero(1)


@pytest.mark.parametrize("left,right", [(OpPoly, PhasePoly), (PhasePoly, OpPoly)])
def test_algebras_do_not_combine(left, right):
    a = left.generator("q")
    b = right.generator("q")
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a - b
    with pytest.raises(TypeError):
        a * b


@pytest.mark.parametrize("cls", CLASSES)
def test_unhashable(cls):
    with pytest.raises(TypeError):
        hash(cls.generator("p"))
    with pytest.raises(TypeError):
        hash(cls.zero())


@pytest.mark.parametrize("cls", CLASSES)
def test_repr_names_the_class(cls):
    assert repr(cls.zero(2)) == f"{cls.__name__}.zero(2)"
    assert repr(cls.generator("q")).startswith(cls.__name__ + "{")


@pytest.mark.parametrize("cls", CLASSES)
def test_dof_mismatch_rejected(cls):
    one, two = cls.generator("q"), cls.generator("q", 0, 2)
    for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError):
            combine(one, two)


_Q, _P = PhasePoly.generator("q"), PhasePoly.generator("p")
_QH, _PH = OpPoly.generator("q"), OpPoly.generator("p")


@pytest.mark.parametrize(
    "call,operands",
    [
        (poisson_bracket, (_Q, _PH)),
        (star_product, (_Q, _PH)),
        (moyal_bracket, (_QH, _PH)),
        (ms, (_QH,)),
        (ms_inverse, (_Q,)),
        (to_t_basis, (_Q,)),
        (pmb, (_Q, _P)),
        (diamond, (_Q, _P)),
    ],
)
def test_kernel_passes_refuse_the_other_algebra(call, operands):
    """Every kernel-backed map takes operands of its own algebra only."""
    with pytest.raises(TypeError):
        call(*operands)


@pytest.mark.parametrize("cls", CLASSES)
def test_unit_constant_and_power(cls):
    q = cls.generator("q")
    assert cls.constant(1, 2) == unit(cls, 2)
    assert q**0 == unit(cls)
    assert q**3 == q * q * q
    assert 2 + q - 2 == q
    assert q * HBAR == HBAR * q
    assert (q * 0).is_zero()
    with pytest.raises(ValueError):
        q ** -1


def assert_canonical(p):
    """The stored form: a positive denominator, no zero entry, and gcd 1
    over the denominator and every numerator; rebuilt from its Scalar
    items it comes back equal."""
    numerators = [x for pair in p._terms.values() for x in pair]
    assert p._den > 0
    assert all(a or b for a, b in p._terms.values())
    assert math.gcd(p._den, *numerators) == 1
    assert type(p)(p.dof_count, dict(p.items())) == p


_nonzero_gaussians = st.builds(
    lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(1, 12),
).filter(bool)


@settings(max_examples=50)
@given(same_dof(PhasePoly, PhasePoly, max_terms=2, min_hbar=0), _nonzero_gaussians)
def test_results_are_canonical(pair, c):
    f, g = pair
    F, G = ms(f), ms(g)
    FG = F * G
    for p in (
        f * g,
        f + g,
        FG,
        F + G,
        star_product(f, g),
        moyal_bracket(f, g),
        F,
        ms_inverse(FG),
    ):
        assert_canonical(p)
    # equal values reached over different denominators compare equal
    assert (f * c) * c**-1 == f
    assert (F * c) * c**-1 == F


def assert_scalar_canonical(x):
    """A Scalar is stored as the polynomial over no dofs, in the same
    canonical form."""
    numerators = [n for pair in x._terms.values() for n in pair]
    assert type(x) is Scalar and x.dof_count == 0
    assert x._den > 0
    assert all(a or b for a, b in x._terms.values())
    assert math.gcd(x._den, *numerators) == 1


@settings(max_examples=50, derandomize=True)
@given(scalars(), scalars(), scalars(min_hbar=0), _nonzero_gaussians)
def test_scalar_results_are_canonical(x, y, z, c):
    for result in (
        x + y,
        x - y,
        x * y,
        *(x**n for n in range(5)),
        x.conjugate("fix_s"),
        x.conjugate("negate_s"),
        x.negate_s(),
        x.substitute(s_value=Fraction(1, 2)),
        x.subs_s(ONE - S),
        z.limit_hbar_zero(),
    ):
        assert_scalar_canonical(result)
    assert Scalar(dict(x.items())) == x
    back = (x * c) * c**-1
    assert back == x and hash(back) == hash(x)


def test_scalar_has_no_dofs():
    """The ring is the polynomial over no dofs: its zero is ZERO, and it
    builds no generator, no monomial and no derivative."""
    zero = Scalar.zero()
    assert zero == ZERO and zero.dof_count == 0
    assert zero + ONE == ONE
    with pytest.raises(TypeError):
        Scalar.generator("q")
    with pytest.raises(TypeError):
        Scalar.monomial(((1, 0),))
    with pytest.raises(IndexError):
        HBAR.derivative("q")


@pytest.mark.parametrize(
    "k,j,error", [(0, -1, ValueError), (0.5, 0, TypeError), ("a", 0, TypeError)]
)
def test_scalar_term_checks_exponents_like_the_dict(k, j, error):
    """s^-1, hbar^0.5 and hbar^a are refused by both constructors, so no
    value reaches a power with a negative or non-int exponent."""
    with pytest.raises(error):
        Scalar({(k, j): 1})
    with pytest.raises(error):
        Scalar.term(k, j)


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("dof_count", [0, -2, "3", MAX_DOF_COUNT + 1])
def test_zero_checks_dof_count_like_the_constructor(cls, dof_count):
    """A zero, negative, non-int or too large dof count is one ValueError
    from every constructor, the generators and constants included."""
    for build in (
        cls,
        cls.zero,
        lambda dofs: cls.generator("q", 0, dofs),
        lambda dofs: cls.constant(1, dofs),
    ):
        with pytest.raises(ValueError, match=f"from 1 to {MAX_DOF_COUNT}"):
            build(dof_count)
    top = cls.generator("p", MAX_DOF_COUNT - 1, MAX_DOF_COUNT)
    assert top.dof_count == MAX_DOF_COUNT


def test_only_the_core_modules_see_the_storage():
    """The stored form (_terms, _den, _raw) and GaussianRational's integer
    triple (_a, _b, _d) are read in polynomial.py and scalars.py alone."""
    private = {"_terms", "_den", "_raw", "_a", "_b", "_d"}
    seen = {}
    for path in sorted(Path(weylforge.__file__).parent.glob("*.py")):
        if path.name in ("polynomial.py", "scalars.py"):
            continue
        used = private & {
            node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
        }
        if used:
            seen[path.name] = sorted(used)
    assert seen == {}
