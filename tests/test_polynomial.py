"""The sparse-polynomial container both algebras are built on.

The operator and phase-space polynomials share one container, so the
contract is checked for each class, and across them: values of the two
algebras must never compare equal or combine.
"""

import pytest

from weylforge import HBAR, OpPoly, PhasePoly

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
