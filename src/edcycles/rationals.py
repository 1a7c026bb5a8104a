"""Rational-number helpers shared across the package.

Exact mode takes and returns ``fractions.Fraction`` values at its boundaries;
inside, the support sweep of the g-function scales the rate matrix by the
denominator of p and runs on integers, building Fractions only for its
results.  Floats are accepted at entry points and converted exactly (every
float is a rational); CLI string inputs like ``"1/3"`` or ``"0.3"`` parse to
the exact decimal/ratio value.
JSON interchange serializes rationals as ``"num/den"`` strings so nothing is
lost in transit.
"""

from __future__ import annotations

from fractions import Fraction

Number = Fraction | int | float


def one_like(p: Number) -> Number:
    """The number 1 in the kind of p: an exact Fraction for rationals, else a float."""
    return Fraction(1) if isinstance(p, (Fraction, int)) else 1.0


def to_fraction(value: Number | str, *, max_denominator: int | None = None) -> Fraction:
    """Convert ints, floats, strings, and Fractions to an exact Fraction.

    Floats convert to their exact binary value unless ``max_denominator`` is
    given, in which case the closest rational with a denominator at most that
    bound is used.
    """
    if isinstance(value, Fraction):
        frac = value
    elif isinstance(value, int):
        frac = Fraction(value)
    elif isinstance(value, float):
        frac = Fraction(value)
        if max_denominator is not None:
            frac = frac.limit_denominator(max_denominator)
    elif isinstance(value, str):
        frac = Fraction(value)
    else:
        raise TypeError(f"cannot interpret {value!r} as a rational number")
    return frac


def number_str(value: Number) -> str | float | int:
    """JSON-friendly form: Fractions become "num/den" strings, floats stay floats."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return value


def parse_number(value) -> Number:
    """Inverse of number_str for values read back from JSON."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (int, float)):
        return value
    raise TypeError(f"cannot parse {value!r} as a number")
