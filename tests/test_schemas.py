"""Wire-format tests: lossless round trips and strict schema rejection."""

from fractions import Fraction as F

import pytest

from capid import Capacity, GroundSet, Measure, ValidationError
from capid.info_specs import Contamination, IntervalBelief
from capid.schemas import (
    capacity_json,
    info_spec_json,
    measure_json,
    parse_capacity,
    parse_info_spec,
    parse_measure,
)

AB = GroundSet.of("ab")
ABC = GroundSet.of("abc")


class TestNumberRoundTrip:
    def test_exact_fractions_survive(self):
        from capid.numeric import format_number, parse_number

        for value in (F(1, 3), F(0), F(7, 2), F(-1, 4)):
            assert parse_number(format_number(value), exact=True) == value

    def test_decimal_strings_read_at_face_value(self):
        from capid.numeric import parse_number

        assert parse_number(0.25, exact=True) == F(1, 4)
        assert parse_number("0.1", exact=True) == F(1, 10)
        assert parse_number("3/7", exact=True) == F(3, 7)

    def test_float_mode(self):
        from capid.numeric import parse_number

        assert parse_number("1/2", exact=False) == 0.5
        assert parse_number(3, exact=False) == 3.0

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize(
        "value",
        [float("inf"), float("-inf"), float("nan"), "1e400", 10**400],
        ids=["inf", "-inf", "nan", "1e400-text", "10**400"],
    )
    def test_non_finite_and_overflowing_numbers_are_rejected(self, value, exact):
        from capid.numeric import parse_number

        if exact and not isinstance(value, float):
            assert parse_number(value, exact) == F(10) ** 400
        else:
            with pytest.raises(ValidationError):
                parse_number(value, exact)


class TestCapacityJson:
    def test_round_trip(self):
        nu = Capacity(
            ABC,
            tuple(
                F(1) if m & 0b011 == 0b011 else F(0) for m in ABC.masks()
            ),
            ABC.mask_of("ab"),
        )
        doc = capacity_json(nu)
        back = parse_capacity(doc, exact=True)
        assert back.values == nu.values
        assert back.carrier == nu.carrier

    def test_all_subsets_required(self):
        doc = {
            "labels": ["a", "b"],
            "values": {"": 0, "a": "1/2", "a,b": 1},  # "b" missing
        }
        with pytest.raises(ValidationError):
            parse_capacity(doc, exact=True)

    def test_unknown_label_in_key_rejected(self):
        doc = {
            "labels": ["a", "b"],
            "values": {"": 0, "a": 0, "b": 0, "a,z": 1},
        }
        with pytest.raises(ValidationError):
            parse_capacity(doc, exact=True)


class TestMeasureJson:
    def test_round_trip_drops_zeros(self):
        m = Measure(ABC, (F(1, 2), F(0), F(1, 2)))
        doc = measure_json(m)
        assert "b" not in doc
        back = parse_measure(doc, ABC, exact=True)
        assert back.weights == m.weights

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            parse_measure({"z": 1}, ABC, exact=True)


class TestInfoSpecJson:
    def test_contamination_round_trip(self):
        spec = Contamination(
            ABC,
            ABC.mask_of("ab"),
            Measure(ABC, (F(1, 3), F(2, 3), F(0)), ABC.mask_of("ab")),
            F(2, 5),
        )
        doc = info_spec_json(spec)
        back = parse_info_spec(doc, ABC, ABC.mask_of("ab"), exact=True)
        assert back == spec

    def test_interval_round_trip(self):
        spec = IntervalBelief(
            AB, AB.full_mask, (F(1, 10), F(1, 10)), (F(3, 4), F(3, 4))
        )
        doc = info_spec_json(spec)
        back = parse_info_spec(doc, AB, AB.full_mask, exact=True)
        assert back == spec

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValidationError):
            parse_info_spec({"tag": "mystery"}, AB, AB.full_mask, exact=True)
