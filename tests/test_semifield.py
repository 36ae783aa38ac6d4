from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from char1.errors import PreconditionError
from char1.semifield import SCALAR, CharOneSemifield

rationals = st.fractions(max_denominator=32, min_value=-50, max_value=50)


def test_leq_examples():
    assert SCALAR.leq(F(2), F(3))
    assert SCALAR.leq(F(3), F(3))
    assert not SCALAR.leq(F(3), F(2))


def test_decompose_examples():
    assert SCALAR.decompose(F(-5)) == (F(0), F(5))
    assert SCALAR.decompose(F(7)) == (F(7), F(0))


def test_tropical_min_examples():
    assert SCALAR.tropical_min(F(2), F(3)) == F(2)
    assert F(2) + F(3) == SCALAR.oplus(F(2), F(3)) + SCALAR.tropical_min(F(2), F(3))


def test_frobenius_scale_examples():
    assert SCALAR.scale(F(3, 2), F(4)) == F(6)
    assert SCALAR.scale(1, F(-7, 3)) == F(-7, 3)
    assert SCALAR.scale(0, F(5)) == F(0)
    assert SCALAR.scale(F(-2), F(3)) == F(-6)


def test_frobenius_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        SCALAR.scale("1/0", F(1))


def test_power_identity_example():
    # 2*max(1,3) = max(2, 1+3, 6)
    assert SCALAR.power_identity_check(2, F(1), F(3))
    assert SCALAR.power_identity_check(1, F(-2), F(5))


def test_power_identity_rejects_zero():
    with pytest.raises(PreconditionError):
        SCALAR.power_identity_check(0, F(1), F(2))


def test_r_norm_examples():
    assert SCALAR.r_norm(F(-5)) == F(5)
    assert SCALAR.r_norm(SCALAR.unit) == F(1)
    assert SCALAR.r_norm(SCALAR.zero) == F(0)


def test_r_norm_without_a_procedure_raises():
    with pytest.raises(PreconditionError):
        CharOneSemifield().r_norm(F(1))


def test_div_by_nat_validates():
    with pytest.raises(PreconditionError):
        SCALAR.div_by_nat(0, F(1))


@given(rationals, rationals, rationals)
def test_scalar_laws(x, y, z):
    assert SCALAR.oplus(x, y) == SCALAR.oplus(y, x)
    assert SCALAR.oplus(SCALAR.oplus(x, y), z) == SCALAR.oplus(x, SCALAR.oplus(y, z))
    assert SCALAR.oplus(x, x) == x
    assert SCALAR.plus(x, SCALAR.oplus(y, z)) == \
        SCALAR.oplus(SCALAR.plus(x, y), SCALAR.plus(x, z))


@given(rationals, rationals, st.integers(min_value=1, max_value=5))
def test_scalar_power_identity(x, y, n):
    assert SCALAR.power_identity_check(n, x, y)


@given(rationals, st.integers(min_value=1, max_value=9))
def test_scalar_perfectness(x, n):
    assert SCALAR.div_by_nat(n, SCALAR.nat_mul(n, x)) == x


@given(rationals, rationals, rationals, rationals)
def test_scalar_ultrametric(x, y, x2, y2):
    lhs = SCALAR.r_norm(SCALAR.minus(SCALAR.oplus(x, y), SCALAR.oplus(x2, y2)))
    assert lhs <= max(SCALAR.r_norm(x - x2), SCALAR.r_norm(y - y2))


@given(rationals)
def test_scalar_spectral_split(x):
    assert SCALAR.r_norm(x) == max(SCALAR.r_norm(SCALAR.pos_part(x)),
                                   SCALAR.r_norm(SCALAR.neg_part(x)))
