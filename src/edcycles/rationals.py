"""Rational-number helpers shared across the package.

Every exact route takes p through ``to_fraction`` and returns
``fractions.Fraction`` values: the closed forms for every p in [0, 1], the
g-function's support sweep (which scales the rate matrix by the denominator
of p and runs on integers) for p in (0, 1).  Floats are accepted at entry
points and converted exactly (every finite float is a rational, so 0.1
becomes 3602879701896397/2^55); NaN, infinities and booleans are refused.
CLI string inputs like ``"1/3"`` or ``"0.3"`` parse to the exact
decimal/ratio value.
JSON interchange serializes rationals as ``"num/den"`` strings so nothing is
lost in transit, and reads counts and indices only from JSON integers and
sequences only from JSON arrays.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import isfinite
from operator import index

from .errors import ParameterDomainError, SizeExceededError

Number = Fraction | int | float


def to_fraction(value: Number | str) -> Fraction:
    """Convert ints, finite floats (to their exact binary value), strings,
    and Fractions to an exact Fraction; NaN, infinities, booleans and strings
    that name no rational (such as "x" or "1/0") are refused, although Python
    treats True and False as the ints 1 and 0.  So is a string whose exponent
    is past Python's int-to-string digit limit, before 10**exponent, which
    can take seconds, is built."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParameterDomainError(f"{value!r} is not a number")
    if isinstance(value, float) and not isfinite(value):
        raise ParameterDomainError(f"{value!r} is not a finite number")
    if isinstance(value, (int, float, str)):
        try:
            exponent = isinstance(value, str) and re.search(r"[eE]([-+]?[\d_]+)\s*$", value)
            limit = sys.get_int_max_str_digits()
            if exponent and limit and abs(int(exponent[1])) > limit:
                raise ValueError("exponent past the digit limit")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterDomainError(f"{value!r} is not a rational number") from exc
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def to_probability(value: Number | str) -> Fraction:
    """to_fraction(value), refused unless it lies in [0, 1]."""
    p = to_fraction(value)
    if not 0 <= p.numerator <= p.denominator:
        raise ParameterDomainError(f"p={value} outside [0, 1]")
    return p


def number_str(value: Number) -> str | float | int:
    """JSON-friendly form: Fractions become "num/den" strings, floats stay
    floats.  A part past Python's int-to-string digit limit raises
    SizeExceededError."""
    if isinstance(value, Fraction):
        try:
            if value.denominator == 1:
                return str(value.numerator)
            return f"{value.numerator}/{value.denominator}"
        except ValueError as exc:
            raise SizeExceededError(f"exact value too long to print: {exc}") from exc
    return value


def json_int(value) -> int:
    """An integer count or index read from JSON.  true and false are refused,
    although Python treats them as the ints 1 and 0."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return index(value)


def json_list(value) -> list | tuple:
    """A sequence read from JSON.  Strings and objects are refused, although
    Python would iterate over their characters or keys."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{value!r} is not an array")
    return value
