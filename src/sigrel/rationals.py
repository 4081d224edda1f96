"""Exact rational values, the JSON file header and 2**n state tables at the input boundary."""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction

__all__ = ["format_rational", "parse_rational"]

# Python's default int_max_str_digits: an int of more digits can be neither read from
# nor written to a string, so a numerator and a denominator stay below 10**4300. A
# string's decimal exponent is held to the same limit before it is expanded.
_DIGIT_LIMIT = 4300
_BOUND = 10**_DIGIT_LIMIT
_TOO_LONG = f"a numerator or denominator of more digits than the limit of {_DIGIT_LIMIT}"
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _too_long(q: Fraction) -> bool:
    return max(abs(q.numerator), q.denominator) >= _BOUND


def parse_rational(value: object) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    Accepts Fractions, ints, and strings such as ``"3/8"`` or ``"2"``.
    Floats are rejected: they would smuggle binary rounding into code that
    relies on exact equality. So are bools, Decimals, a decimal exponent beyond
    ±4300 and a string whose numerator or denominator has more than 4300 digits.
    Every record and every input file reads its rationals here.
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
        if len(digits) > len(str(_DIGIT_LIMIT)) or int(digits or 0) > _DIGIT_LIMIT:
            raise ValueError(
                f"not a rational: {value!r} has a decimal exponent beyond the "
                f"limit of {_DIGIT_LIMIT}"
            )
        try:
            q = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
        if _too_long(q):
            raise ValueError(f"not a rational: {value!r} has {_TOO_LONG}")
        return q
    raise ValueError(f"not a rational: {value!r}")


def parse_time(value: object) -> Fraction:
    """:func:`parse_rational` of a time, refusing t <= 0: every function of t
    holds for t > 0 only."""
    t = parse_rational(value)
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    return t


def format_rational(value: Fraction) -> str:
    """Canonical ``a/b`` form of :func:`parse_rational`'s value, denominator always shown;
    a value that :func:`parse_rational` would refuse as a string is refused too."""
    value = parse_rational(value)
    if _too_long(value):
        raise ValueError(f"cannot write a rational with {_TOO_LONG}")
    return f"{value.numerator}/{value.denominator}"


def check_sequence(values: object, field: str, entries: str) -> None:
    """The one rule for a field that is a sequence of ``entries``: a string or bytes would
    be read as its characters, so it is refused, as is a value that cannot be iterated;
    the message names the ``field``."""
    if isinstance(values, (str, bytes, bytearray)) or not isinstance(values, Iterable):
        raise ValueError(f"{field} must be a sequence of {entries}, got {values!r}")


def parse_rationals(values: Iterable[object], field: str) -> tuple[Fraction, ...]:
    """:func:`parse_rational` of each of ``values``, the one rule for a field of rationals."""
    check_sequence(values, field, "rationals")
    return tuple(map(parse_rational, values))


def state_table(n: int, values: Iterable[object], noun: str) -> tuple[Fraction, ...]:
    """:func:`parse_rationals` of a table with one entry per packed state index of
    n components; ``noun`` names the entries in each refusal."""
    table = parse_rationals(values, noun)
    if len(table) != 1 << n:
        raise ValueError(f"expected {1 << n} {noun}, got {len(table)}")
    return table


def file_header(obj: object, kind: str, field: str) -> tuple[int, object]:
    """(n, ``obj[field]``) of a JSON input file of ``kind``, refusing in this order
    a non-object, a missing ``n``, a missing ``field`` and an ``n`` that is not an int."""
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} file must be a JSON object")
    for name in ("n", field):
        if name not in obj:
            raise ValueError(f"{kind} file is missing the {name!r} field")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{kind} field 'n' must be an integer, got {n!r}")
    return n, obj[field]
