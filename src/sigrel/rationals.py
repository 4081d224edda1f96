"""Exact rational values at the JSON boundary."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

# Largest |decimal exponent| in a string such as "1e4300": Python's default
# int_max_str_digits, so no expansion outgrows a literal the interpreter accepts.
_EXPONENT_LIMIT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def parse_rational(value: object) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    Accepts Fractions, ints, and strings such as ``"3/8"`` or ``"2"``.
    Floats are rejected: they would smuggle binary rounding into code that
    relies on exact equality. So is a decimal exponent beyond ±4300.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        # The length test keeps int() off exponents with thousands of digits.
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(_EXPONENT_LIMIT)) or int(digits or 0) > _EXPONENT_LIMIT:
            raise ValueError(
                f"not a rational: {value!r} has a decimal exponent beyond the "
                f"limit of {_EXPONENT_LIMIT}"
            )
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical ``a/b`` form: gcd(a, b) = 1 and b > 0, denominator always shown."""
    if type(value) is not Fraction:
        value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def as_fractions(values: Iterable[object]) -> tuple[Fraction, ...]:
    """``tuple(Fraction(v) for v in values)``, keeping each value that already is one."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)
