"""Rational-number helpers shared across the package.

Exact mode takes and returns ``fractions.Fraction`` values at its boundaries;
inside, the support sweep of the g-function scales the rate matrix by the
denominator of p and runs on integers, building Fractions only for its
results.  Floats are accepted at entry points and converted exactly (every
float is a rational); CLI string inputs like ``"1/3"`` or ``"0.3"`` parse to
the exact decimal/ratio value.
JSON interchange serializes rationals as ``"num/den"`` strings so nothing is
lost in transit, and reads counts and indices only from JSON integers and
sequences only from JSON arrays.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

Number = Fraction | int | float


def one_like(p: Number) -> Number:
    """The number 1 in the kind of p: an exact Fraction for rationals, else a float."""
    return Fraction(1) if isinstance(p, (Fraction, int)) else 1.0


def to_fraction(value: Number | str) -> Fraction:
    """Convert ints, floats (to their exact binary value), strings, and
    Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def number_str(value: Number) -> str | float | int:
    """JSON-friendly form: Fractions become "num/den" strings, floats stay floats."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
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
