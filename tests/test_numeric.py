"""``all_exact``, ``tol_of``, ``in_mode``, ``ge`` and ``eq`` against the
literal definitions their fast paths skip."""

import enum
import itertools
from fractions import Fraction as F

from capid.numeric import FLOAT_TOL, ZERO, all_exact, in_mode, is_exact_value, tol_of
from oracle import eq, ge


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


class Ratio(F):
    """Exact, but not of type Fraction."""


SAMPLES = (0, 7, -3, F(1, 3), F(0), True, False, 0.5, 0.0, Level.HIGH, Ratio(2, 5))


def _literal(values):
    return all(is_exact_value(v) for v in values)


def test_all_exact_matches_the_per_value_test_on_every_mix():
    assert all_exact(()) is True
    assert tol_of() == tol_of(()) == ZERO
    for size in range(1, 4):
        for mix in itertools.product(SAMPLES, repeat=size):
            want = _literal(mix)
            assert all_exact(mix) is want, mix
            assert all_exact(list(mix)) is want, mix
            assert all_exact(v for v in mix) is want, mix
            # the mode: 0 when every value is exact, FLOAT_TOL otherwise,
            # however the values are split into groups
            tol = ZERO if want else FLOAT_TOL
            for split in range(size + 1):
                got = tol_of(mix[:split], iter(mix[split:]))
                assert (type(got), got) == (type(tol), tol), mix
            # an exact result leaves unchanged, and rounds once otherwise
            for v in mix:
                out = in_mode(v, tol)
                if want:
                    assert out is v, mix
                else:
                    assert type(out) is float and out == float(v), mix


def test_one_other_type_last_among_fractions():
    head = [F(i, 512) for i in range(511)]
    for last, want in (
        (0.5, False), (0.0, False), (True, False),
        (Level.LOW, True), (Ratio(1, 2), True), (3, True), (F(1, 3), True),
    ):
        values = tuple(head + [last])
        assert len(values) == 512
        assert _literal(values) is want
        assert all_exact(values) is want, last


class Double(float):
    """A float, but not of type float."""


OPERANDS = (
    0, 1, -2, 7, True, F(1, 3), F(-1, 3), F(2, 6), F(7), F(0), Ratio(1, 3), Level.HIGH,
    1 / 3, -1 / 3, 0.0, -0.0, 7.0, 1e-10, F(1, 3) + F(1, 10**12), Double(1 / 3),
)


def test_ge_and_eq_match_the_subtracting_form():
    """Every pair of int, Fraction and float operands, at the exact ZERO (the
    direct comparison), at an equal Fraction that is not ZERO, at int 0 and
    at the float tolerance: the results are those of ``a >= b - tol`` and
    ``abs(a - b) <= tol``, also where a float operand rounds."""
    rounded = 0
    for tol in (ZERO, F(0), 0, FLOAT_TOL):
        for a, b in itertools.product(OPERANDS, repeat=2):
            assert ge(a, b, tol) is (a >= b - tol), (a, b, tol)
            assert eq(a, b, tol) is (abs(a - b) <= tol), (a, b, tol)
            rounded += tol is ZERO and eq(a, b, tol) and a != b
    # F(1, 3) against the double 1/3 and against its subclass, both ways round
    assert eq(F(1, 3), 1 / 3, ZERO) and eq(Double(1 / 3), F(1, 3), ZERO)
    assert rounded >= 4
