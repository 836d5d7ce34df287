"""``all_exact`` against the per-value definition its type fast path skips."""

import enum
import itertools
from fractions import Fraction as F

from capid.numeric import all_exact, is_exact_value


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
    for size in range(1, 4):
        for mix in itertools.product(SAMPLES, repeat=size):
            want = _literal(mix)
            assert all_exact(mix) is want, mix
            assert all_exact(list(mix)) is want, mix
            assert all_exact(v for v in mix) is want, mix


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
