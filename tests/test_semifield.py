import inspect
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from char1.errors import PreconditionError
from char1.laws import run_norm_suite
from char1.semifield import LAWS, SCALAR, CharOneSemifield

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


def test_scalar_elements_are_read_as_rationals():
    assert SCALAR.plus(1, F(2)) == 3 and SCALAR.oplus(1, F(1, 2)) == 1
    assert SCALAR.neg(1) == -1 and SCALAR.r_norm(-2) == 2


def test_frobenius_scale_examples():
    assert SCALAR.scale(F(3, 2), F(4)) == F(6)
    assert SCALAR.scale(1, F(-7, 3)) == F(-7, 3)
    assert SCALAR.scale(0, F(5)) == F(0)
    assert SCALAR.scale(F(-2), F(3)) == F(-6)


def test_frobenius_rejects_zero_denominator():
    with pytest.raises(PreconditionError):
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


# One strategy per argument name of the LAWS convention.
ARGUMENTS = {
    "x": rationals, "y": rationals, "z": rationals, "x2": rationals, "y2": rationals,
    "n": st.integers(min_value=1, max_value=9),
    "q": rationals,
    "t": st.fractions(max_denominator=32, min_value=F(1, 32), max_value=50),
    "dt": st.fractions(max_denominator=32, min_value=0, max_value=50),
}


@pytest.mark.parametrize("name", sorted(LAWS))
@given(data=st.data())
def test_law_on_scalars(name, data):
    law = LAWS[name]
    params = list(inspect.signature(law).parameters)[1:]  # after ops
    args = [data.draw(ARGUMENTS[p], label=p) for p in params]
    assert law(SCALAR, *args)


def test_counterexample_shows_every_argument(monkeypatch):
    seen = []

    def fails(ops, *args):
        seen.append(args)
        return False

    monkeypatch.setitem(LAWS, "order monotonicity", fails)
    report = run_norm_suite(seed=7, cases=3)
    assert [len(args) for args in seen] == [4] * len(seen)  # x, y, y2, t
    assert report.failed == len(seen) == 3 + 3 + 1
    assert report.first_counterexample == (
        "scalar: order monotonicity: " + ", ".join(map(repr, seen[0])))
