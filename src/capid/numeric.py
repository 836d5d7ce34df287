"""Number handling for the two arithmetic modes.

Exact mode works on :class:`fractions.Fraction` (and ints) with zero
tolerance; float mode keeps IEEE doubles with an absolute tolerance of 1e-9.
The mode is decided here alone: a value collection's tolerance, ``tol_of``,
is 0 when every member is a Fraction or an int and FLOAT_TOL when any is a
double.  A query's tolerance is the largest of its inputs', and ``in_mode``
rounds its exact results to doubles once when that is not 0.

The scans behind every decision compare no Fraction or float: in both modes
``int_numerators`` puts a collection over one common denominator, a float at
its exact binary value, and the scans compare the int numerators, with the
tolerance as one int shift (``tol_shift``).  The checks that validate the
parsed values decide the same way, except three totals (a measure's weights,
mixture weights and an interval belief's carrier sums), which add the values
left to right (``fold_sum``) and compare the rounded sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import ValidationError

Num = Union[Fraction, int, float]

#: Absolute comparison tolerance used whenever float values are involved.
FLOAT_TOL = 1e-9

ZERO = Fraction(0)
ONE = Fraction(1)


def is_exact_value(x: Num) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


_EXACT_TYPES = frozenset((Fraction, int))


def all_exact(values: Iterable[Num]) -> bool:
    """Every value is exact.  Plain Fractions and ints pass on one C-level
    pass over their types; any other type (a float, a bool, a subclass)
    sends the values to ``is_exact_value`` one by one."""
    values = tuple(values)
    return _EXACT_TYPES.issuperset(map(type, values)) or all(map(is_exact_value, values))


def tol_of(*groups: Iterable[Num]) -> Num:
    """The tolerance of the values in ``groups``: 0 when every one is exact,
    FLOAT_TOL when any is a double."""
    return ZERO if all(map(all_exact, groups)) else FLOAT_TOL


def in_mode(x: Num, tol: Num) -> Num:
    """An exact result as it leaves the kernel at tolerance ``tol``:
    unchanged at 0, rounded once to a double otherwise."""
    return float(x) if tol else x


def fold_sum(values: Iterable[Num]) -> Num:
    """values added left to right to int 0, the order sum() used before
    Python 3.12; sum() now compensates float sums, which would make float
    reports depend on the interpreter."""
    total: Num = 0
    for v in values:
        total = total + v
    return total


def int_numerators(values: Sequence[Num]) -> tuple[tuple[int, ...], int]:
    """The values as int numerators over the lcm of their denominators; a
    float counts at its exact binary value."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*{den for _, den in ratios})
    return tuple(num * (scale // den) for num, den in ratios), scale


def tol_shift(tol: Num, scale: int) -> int:
    """floor(tol * scale): an int difference of numerators over ``scale`` is
    at most tol exactly when it is at most this shift."""
    num, den = tol.as_integer_ratio()
    return num * scale // den


def as_fraction(x: Num) -> Fraction:
    """Exact conversion; floats map to their exact binary value."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def parse_number(value, exact: bool) -> Num:
    """Parse a JSON-borne number.

    Exact mode accepts ints, "p/q" strings and decimal strings/numbers
    (decimals are read at face value, so 0.25 means 1/4).  Float mode
    coerces everything to float.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value)):
        raise ValidationError(f"expected a number, got {value!r}")
    if exact:
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"cannot parse number {value!r}") from exc
        if isinstance(value, float):
            # decimal reading: the JSON text 0.1 means 1/10, not the binary double
            return Fraction(repr(value))
        raise ValidationError(f"expected a number, got {value!r}")
    try:
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            return float(Fraction(value))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # a number beyond the largest double has no float-mode value
        raise ValidationError(f"cannot parse number {value!r}") from exc
    raise ValidationError(f"expected a number, got {value!r}")


def format_number(x: Num) -> Union[str, float]:
    """Lossless report encoding: "p/q" strings in exact mode, floats otherwise."""
    if is_exact_value(x):
        return str(Fraction(x))
    return float(x)
