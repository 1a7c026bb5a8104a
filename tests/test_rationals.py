"""Rational conversion and JSON number interchange."""

from fractions import Fraction

import pytest

from edcycles.curves import PowerCycleParams, gamma_closed
from edcycles.errors import ParameterDomainError
from edcycles.rationals import number_str, to_fraction


def test_to_fraction_variants():
    assert to_fraction("1/3") == Fraction(1, 3)
    assert to_fraction("0.3") == Fraction(3, 10)
    assert to_fraction(2) == Fraction(2)
    assert to_fraction(0.25) == Fraction(1, 4)
    assert to_fraction(1 / 3) == Fraction(6004799503160661, 2**54)  # exact binary value
    assert to_fraction(Fraction(5, 7)) == Fraction(5, 7)


def test_to_fraction_rejects_junk():
    with pytest.raises(TypeError):
        to_fraction(None)


@pytest.mark.parametrize("text", ["x", "1/0", "nan", ""])
def test_unparsable_string_is_a_domain_error_at_a_library_entry_point(text):
    with pytest.raises(ParameterDomainError):
        gamma_closed(PowerCycleParams(9, 1), text)
    with pytest.raises(ParameterDomainError):
        to_fraction(text)


def test_exponent_past_the_digit_limit_is_a_domain_error_at_a_library_entry_point():
    # refused from the exponent, before 10**2000000 is built
    with pytest.raises(ParameterDomainError):
        to_fraction("1e2000000")
    with pytest.raises(ParameterDomainError):
        gamma_closed(PowerCycleParams(25, 3), "1e-2000000")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_to_fraction_refuses_non_finite_floats(value):
    with pytest.raises(ParameterDomainError):
        to_fraction(value)


def test_number_str_roundtrip():
    for value in (Fraction(2, 9), Fraction(4)):
        assert Fraction(number_str(value)) == value
    assert number_str(Fraction(2, 9)) == "2/9"
    assert number_str(Fraction(4)) == "4"
    assert number_str(0.5) == 0.5


@pytest.mark.parametrize("value", [True, False])
def test_to_fraction_refuses_booleans(value):
    with pytest.raises(ParameterDomainError):
        to_fraction(value)
