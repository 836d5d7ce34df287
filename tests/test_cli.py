"""Command-line front end tests, run in-process against the shipped fixtures."""

import copy
import json
import math
import os
import random
import re
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from capid import Capacity, GroundSet, cli, identification, schemas
from capid.cli import main
import gen
from helpers import capacity_from_mobius

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NESTED = str(FIXTURES / "nested_menus_six_orders.json")
NESTED_NO_SINGLETON = str(FIXTURES / "nested_menus_six_orders_no_singleton.json")
TWO_ORDERS = str(FIXTURES / "two_orders_four_menus.json")
UPDATING = str(FIXTURES / "underreaction_point_experiment.json")
AT_FLOOR = FIXTURES / "kappa_range_at_floor.json"
AUDIT = str(FIXTURES / "point_spec_audit.json")
SIMULATE = str(FIXTURES / "simulate_two_rules.json")

QUARTER_Q = json.dumps(
    {"pref:a>b>c": "1/4", "pref:b>a>c": "1/4", "pref:b>c>a": "1/4", "pref:c>b>a": "1/4"}
)

#: Documents the JSON decoder itself rejects: a byte that is not UTF-8,
#: nesting far deeper than any recursion limit, and an int literal longer
#: than Python's 4,300-digit conversion limit.
UNDECODABLE = {
    "invalid_utf8": b'{"x": "\x80"}',
    "deep_nesting": b"[" * 100_000 + b"]" * 100_000,
    "long_int": b'{"x": ' + b"7" * 5_000 + b"}",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestCheck:
    def test_rationalizes_with_singleton_menu(self, capsys):
        code, report = run(capsys, "check", "--input", NESTED, "--q", QUARTER_Q)
        assert code == 0
        assert report["result"]["verdict"]["rationalizes"] is True
        assert report["mode"] == "exact"
        assert report["input_digest"].startswith("sha256:")

    def test_fails_without_singleton_menu(self, capsys):
        code, report = run(
            capsys, "check", "--input", NESTED_NO_SINGLETON, "--q", QUARTER_Q
        )
        assert code == 0  # a negative verdict is an answer, not an error
        verdict = report["result"]["verdict"]
        assert verdict["rationalizes"] is False
        assert {"subset": ["b"], "shortfall": "1/4"} in verdict["violations"]

    def test_missing_q_is_schema_error(self, capsys):
        code, report = run(capsys, "check", "--input", NESTED)
        assert code == 2
        assert report["error"]["type"] == "ValidationError"


class TestExistsBoundsVertices:
    def test_exists(self, capsys):
        code, report = run(capsys, "exists", "--input", TWO_ORDERS)
        assert code == 0 and report["result"]["feasible"] is True

    def test_bounds(self, capsys):
        code, report = run(capsys, "bounds", "--input", NESTED)
        assert code == 0
        assert report["result"]["bounds"]["pref:a>b>c"]["max"] == "1/2"

    def test_vertices(self, capsys):
        code, report = run(capsys, "vertices", "--input", TWO_ORDERS)
        assert code == 0
        got = {
            (v["pref:a>b>c"], v["pref:a>c>b"]) for v in report["result"]["vertices"]
        }
        assert got == {("1/3", "2/3"), ("2/3", "1/3")}


class TestWitness:
    def test_witness_includes_menu_measures(self, capsys):
        q = json.dumps({"pref:a>b>c": "2/3", "pref:a>c>b": "1/3"})
        code, report = run(capsys, "witness", "--input", TWO_ORDERS, "--q", q)
        assert code == 0
        witness = report["result"]["witness"]
        assert witness["pref:a>b>c"] == {"a": "1/2", "b": "1/2"}
        assert witness["pref:a>c>b"] == {"c": "1"}
        menu_measures = report["result"]["menu_measures"]
        assert menu_measures["pref:a>c>b"] == {"b,c": "1"}

    def test_witness_null_when_not_rationalizable(self, capsys):
        code, report = run(
            capsys, "witness", "--input", NESTED_NO_SINGLETON, "--q", QUARTER_Q
        )
        assert code == 0
        assert report["result"]["witness"] is None

    @pytest.mark.parametrize(
        "path,q",
        [
            (TWO_ORDERS, json.dumps({"pref:a>b>c": "2/3", "pref:a>c>b": "1/3"})),
            (NESTED_NO_SINGLETON, QUARTER_Q),
        ],
        ids=["rationalizes", "fails"],
    )
    def test_one_dominance_check_per_query(self, capsys, monkeypatch, path, q):
        calls = []
        check = identification.check_rationalizes

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(identification, "check_rationalizes", counted)
        monkeypatch.setattr(cli, "check_rationalizes", counted)
        code, report = run(capsys, "witness", "--input", path, "--q", q)
        assert code == 0
        assert len(calls) == 1
        verdict = report["result"]["verdict"]
        assert verdict["rationalizes"] is (report["result"]["witness"] is not None)


class TestFloatWitness:
    def float_doc(self, tmp_path, lam):
        doc = json.loads(Path(NESTED).read_text())
        doc["lambda"] = lam
        path = tmp_path / "float.json"
        path.write_text(json.dumps(doc))
        return doc, str(path)

    def assert_witness(self, report, doc, q, mix_bound):
        """Each part lies in its rule's core and the parts mix back to lambda."""
        witness = report["result"]["witness"]
        problem = schemas.parse_problem(doc, exact=False).problem
        ground = problem.ground
        mixed = [0.0] * ground.size
        for rule in problem.rules:
            if rule.rule_id not in witness:
                continue
            part = [float(witness[rule.rule_id].get(label, 0)) for label in ground.labels]
            for mask in ground.masks():
                mass = sum(w for i, w in enumerate(part) if mask >> i & 1)
                assert mass >= rule.capacity.values[mask] - 1e-9
            for i, w in enumerate(part):
                mixed[i] += q[rule.rule_id] * w
        for i, label in enumerate(ground.labels):
            assert abs(mixed[i] - doc["lambda"][label]) <= mix_bound

    def test_float_weights_mix_back_within_tolerance(self, capsys, tmp_path):
        # lambda = 0.5 (1, 0, 0) + 0.3 (0, 1, 0) + 0.2 (0.7, 0.1, 0.2) in
        # exact decimals; their binary doubles miss the mix-back by about
        # 1e-17, which made the decomposition LP infeasible before
        doc, path = self.float_doc(tmp_path, {"a": 0.64, "b": 0.32, "c": 0.04})
        q = {"pref:a>b>c": 0.5, "pref:b>a>c": 0.3, "pref:c>b>a": 0.2}
        code, report = run(
            capsys, "witness", "--input", path, "--mode", "float", "--q", json.dumps(q)
        )
        assert code == 0
        self.assert_witness(report, doc, q, 1e-9)

    def test_witness_of_the_float_exists_answer(self, capsys, tmp_path):
        # float exists puts 0.6000000005 on a>b>c, whose core is the point
        # mass on a, so the mix-back misses lambda(a) = 0.6 by half the
        # tolerance that the dominance check allows
        doc, path = self.float_doc(tmp_path, {"a": 0.6, "b": 0.3, "c": 0.1})
        code, report = run(capsys, "exists", "--input", path, "--mode", "float")
        assert code == 0 and report["result"]["feasible"] is True
        q = report["result"]["q"]
        code, report = run(
            capsys, "witness", "--input", path, "--mode", "float", "--q", json.dumps(q)
        )
        assert code == 0
        assert report["result"]["verdict"]["rationalizes"] is True
        # 1e-12 covers rounding the exact parts and weights to doubles
        self.assert_witness(report, doc, q, 1e-9 + 1e-12)


class TestMenuHomog:
    def test_two_thirds_infeasible(self, capsys):
        q = json.dumps({"pref:a>b>c": "2/3", "pref:a>c>b": "1/3"})
        code, report = run(capsys, "menu-homog", "--input", TWO_ORDERS, "--q", q)
        assert code == 0
        assert report["result"]["feasible"] is False

    def test_equal_split_feasible_with_pi(self, capsys):
        q = json.dumps({"pref:a>b>c": "1/2", "pref:a>c>b": "1/2"})
        code, report = run(capsys, "menu-homog", "--input", TWO_ORDERS, "--q", q)
        assert code == 0
        assert report["result"]["feasible"] is True
        assert report["result"]["pi"]["b,c"] == "2/3"


class TestEqualMenus:
    """A menu listed twice keeps both weights: pi and the witness's menu
    measures add them up under the menu's one key."""

    @staticmethod
    def _doc(tmp_path):
        path = tmp_path / "equal_menus.json"
        path.write_text(json.dumps({
            "schema": "capid/1",
            "labels": ["a", "b"],
            "lambda": {"a": "1/2", "b": "1/2"},
            "rules": [{
                "id": "r",
                "menus": [["a", "b"], ["a", "b"]],
                "choices": {"0": "a", "1": "b"},
                "info_spec": {"tag": "ignorance"},
            }],
        }))
        return str(path)

    @pytest.mark.parametrize("mode,one", [("exact", "1"), ("float", 1.0)])
    def test_pi_adds_equal_menus(self, capsys, tmp_path, mode, one):
        path = self._doc(tmp_path)
        q = json.dumps({"r": "1"})
        code, report = run(capsys, "menu-homog", "--input", path, "--q", q, "--mode", mode)
        assert code == 0
        assert report["result"]["menus"] == [["a", "b"], ["a", "b"]]
        assert report["result"]["pi"] == {"a,b": one}
        code, report = run(capsys, "witness", "--input", path, "--q", q, "--mode", mode)
        assert code == 0
        assert report["result"]["menu_measures"] == {"r": {"a,b": one}}


class TestIdentifyKappa:
    def test_interval_and_diagnosis(self, capsys):
        code, report = run(capsys, "identify-kappa", "--input", UPDATING)
        assert code == 0
        result = report["result"]
        assert result["interval"] == {"lo": "1/2", "hi": "1/2"}
        assert result["diagnosis"] == "underreaction"
        assert ["1"] in result["bayes_violations"]["without_prior"]

    def test_at_kappa_verdict(self, capsys):
        code, report = run(
            capsys, "identify-kappa", "--input", UPDATING, "--kappa", "1/2"
        )
        assert code == 0
        assert report["result"]["at_kappa"]["verdict"]["rationalizes"] is True

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_kappa_above_one_exits_2(self, capsys, mode):
        code, report = run(
            capsys, "identify-kappa", "--input", UPDATING, "--kappa=2", "--mode", mode
        )
        assert code == 2
        assert report["error"]["type"] == "ValidationError"
        assert "outside the admissible range" in report["error"]["message"]


def _at_floor(capsys, tmp_path, mode, kappa_range, *extra):
    """identify-kappa on the fixture with nu({0}) = 1/6, so the floor is
    -1/5, whose double lies one ulp below the floor computed in doubles."""
    doc = json.loads(AT_FLOOR.read_text())
    doc["kappa_range"] = kappa_range
    path = tmp_path / "at_floor.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "identify-kappa", "--input", str(path), "--mode", mode, *extra)


class TestKappaFloor:
    """Range ends and --kappa are decided against the exact floor; the
    floor prints as each mode computes it."""

    FLOAT_FLOOR = -(1 / 6) / (1 - 1 / 6)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("kappa_range", [["-1/5", "-1/5"], ["-1", "-1/5"], None])
    def test_ends_at_the_floor_are_admissible(self, capsys, tmp_path, mode, kappa_range):
        assert self.FLOAT_FLOOR == -0.19999999999999998 > -0.2
        for extra in ((), ("--kappa=-1/5",)):
            code, report = _at_floor(capsys, tmp_path, mode, kappa_range, *extra)
            assert code == 0, report
            result = report["result"]
            if extra:
                assert result["at_kappa"]["verdict"]["rationalizes"] is True
            hi = F(-1, 5) if kappa_range else F(1, 5)
            if mode == "exact":
                assert result["kappa_floor"] == "-1/5"
                assert result["interval"] == {"lo": "-1/5", "hi": str(hi)}
                continue
            assert result["kappa_floor"] == self.FLOAT_FLOOR
            ends = result["interval"]
            for end, exact in ((ends["lo"], F(-1, 5)), (ends["hi"], hi)):
                assert type(end) is float
                assert abs(end - float(exact)) <= math.ulp(float(exact)), (end, exact)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_an_end_below_the_floor_is_clipped(self, capsys, tmp_path, mode):
        # 2e-9 below the floor lies outside the tolerance: the floor replaces
        # it; 5e-10 below lies inside it in float mode, so the end is admitted
        # and raised to the printed floor
        below = F(-1, 5) - F(2, 10**9)
        code, report = _at_floor(capsys, tmp_path, mode, [str(below), "0"])
        assert code == 0
        assert report["result"]["interval"]["lo"] == report["result"]["kappa_floor"]
        assert report["result"]["interval"]["hi"] == ("0" if mode == "exact" else 0.0)
        inside = F(-1, 5) - F(5, 10**10)
        code, report = _at_floor(capsys, tmp_path, mode, [str(inside), "0"])
        assert code == 0
        lo = report["result"]["interval"]["lo"]
        assert lo == ("-1/5" if mode == "exact" else report["result"]["kappa_floor"])

    @staticmethod
    def _assert_no_end_below_the_floor(code, report):
        assert code in (0, 2), report
        interval = report["result"]["interval"] if code == 0 else None
        if interval is not None:
            floor = F(report["result"]["kappa_floor"])
            assert F(interval["lo"]) >= floor and F(interval["hi"]) >= floor, report

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("below", [0, F(1, 10**12), F(1, 10**10), F(5, 10**10), F(1, 10**9)])
    def test_no_printed_end_lies_below_the_floor(self, capsys, tmp_path, mode, below):
        end = str(F(-1, 5) - below)
        for kappa_range in ([end, end], ["-1", end], [end, "0"]):
            self._assert_no_end_below_the_floor(*_at_floor(capsys, tmp_path, mode, kappa_range))

    def test_no_printed_end_lies_below_the_floor_on_seeded_documents(self, capsys, tmp_path):
        # range ends at each document's exact floor and within the float
        # tolerance below it
        rng = random.Random(20261020)
        path = tmp_path / "updating.json"
        for _ in range(40):
            doc = gen.random_updating_doc(rng)
            floor = schemas.parse_updating(doc, True)[1].kappa_floor
            for below in (0, F(1, 10**10), F(5, 10**10)):
                end = str(floor - below)
                for kappa_range in ([end, end], ["-1", end], [end, "1"]):
                    doc["kappa_range"] = kappa_range
                    path.write_text(json.dumps(doc))
                    for mode in ("exact", "float"):
                        self._assert_no_end_below_the_floor(*run(
                            capsys, "identify-kappa", "--input", str(path), "--mode", mode
                        ))

    @staticmethod
    def _assert_kappa_not_below_the_floor(code, report):
        assert code in (0, 2), report
        if code == 0:
            result = report["result"]
            assert F(result["at_kappa"]["kappa"]) >= F(result["kappa_floor"]), report

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("below", [0, F(1, 10**12), F(1, 10**10), F(5, 10**10), F(1, 10**9)])
    def test_no_printed_kappa_lies_below_the_floor(self, capsys, tmp_path, mode, below):
        kappa = f"--kappa={F(-1, 5) - below}"
        for kappa_range in (None, ["-1", "0"]):
            self._assert_kappa_not_below_the_floor(
                *_at_floor(capsys, tmp_path, mode, kappa_range, kappa)
            )

    def test_no_printed_kappa_lies_below_the_floor_on_seeded_documents(self, capsys, tmp_path):
        rng = random.Random(20261021)
        path = tmp_path / "updating.json"
        admitted = 0
        for _ in range(40):
            doc = gen.random_updating_doc(rng)
            doc.pop("kappa_range", None)
            path.write_text(json.dumps(doc))
            floor = schemas.parse_updating(doc, True)[1].kappa_floor
            for below in (0, F(1, 10**10), F(5, 10**10)):
                for mode in ("exact", "float"):
                    code, report = run(
                        capsys, "identify-kappa", "--input", str(path), "--mode", mode,
                        f"--kappa={floor - below}",
                    )
                    self._assert_kappa_not_below_the_floor(code, report)
                    admitted += code == 0
        # the exact floor is admitted in both modes, and the points within
        # the tolerance in float mode
        assert admitted >= 40 * 4, admitted

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_below_the_floor_exits_2(self, capsys, tmp_path, mode):
        below = str(F(-1, 5) - F(2, 10**9))
        code, report = _at_floor(capsys, tmp_path, mode, ["-1", below])
        assert code == 2
        assert report["error"]["message"] == "empty kappa range"
        code, report = _at_floor(capsys, tmp_path, mode, None, f"--kappa={below}")
        assert code == 2
        assert "outside the admissible range" in report["error"]["message"]


class TestCapacityAudit:
    def test_point_spec(self, capsys):
        code, report = run(capsys, "capacity-audit", "--input", AUDIT)
        assert code == 0
        result = report["result"]
        assert result["convex"] is True
        assert result["belief_function"] is True
        assert result["core_vertex_count"] == 1

    def test_float_audit_prints_doubles(self, capsys, tmp_path):
        ignorance = tmp_path / "ignorance.json"
        ignorance.write_text(json.dumps(
            {"schema": "capid/1", "labels": ["a", "b"], "info_spec": {"tag": "ignorance"}}
        ))
        values = []
        for path in (AUDIT, str(ignorance)):
            code, report = run(capsys, "capacity-audit", "--input", path, "--mode", "float")
            assert code == 0
            values.append(report["result"]["capacity"]["values"])
            assert not [v for v in values[-1].values() if isinstance(v, str)], values[-1]
        assert values[1] == {"": 0.0, "a": 0.0, "b": 0.0, "a,b": 1.0}

    @staticmethod
    def _audit_doc(tmp_path, nu):
        path = tmp_path / "audit.json"
        path.write_text(json.dumps({"schema": "capid/1", "capacity": schemas.capacity_json(nu)}))
        return str(path)

    def test_strictly_convex_nine_labels_exits_3(self, capsys, tmp_path):
        # all 9! orderings give distinct vertices: the enumeration stops at its cap
        ground = GroundSet.of([f"x{i}" for i in range(9)])
        nu = Capacity(ground, tuple(F(m.bit_count() ** 2, 81) for m in ground.masks()))
        code, report = run(capsys, "capacity-audit", "--input", self._audit_doc(tmp_path, nu))
        assert code == 3
        assert report["error"]["type"] == "SizeLimitError"

    def test_disjoint_blocks_on_twelve_labels(self, capsys, tmp_path):
        # one vertex per choice of a label in each focal block, out of 12! orderings
        blocks = (2, 3, 3, 4)
        ground = GroundSet.of([f"x{i}" for i in range(12)])
        mass = [F(0)] * (1 << 12)
        for b, size in enumerate(blocks):
            mass[((1 << size) - 1) << sum(blocks[:b])] = F(1, len(blocks))
        nu = capacity_from_mobius(ground, mass)
        code, report = run(capsys, "capacity-audit", "--input", self._audit_doc(tmp_path, nu))
        assert code == 0
        result = report["result"]
        assert result["convex"] is True and result["belief_function"] is True
        assert result["core_vertex_count"] == 2 * 3 * 3 * 4

    def test_float_strictly_convex_seven_labels(self, capsys, tmp_path):
        # all 7! orderings give distinct float vertices; each is compared for
        # duplicates only with the kept vectors near it, not with all of them
        path = tmp_path / "audit.json"
        labels = list("abcdefg")
        ground = GroundSet.of(labels)
        values = {ground.subset_key(m): (m.bit_count() / 7) ** 2 for m in ground.masks()}
        path.write_text(json.dumps(
            {"schema": "capid/1", "capacity": {"labels": labels, "values": values}}
        ))
        start = time.perf_counter()
        code, report = run(capsys, "capacity-audit", "--input", str(path), "--mode", "float")
        took = time.perf_counter() - start
        assert code == 0
        assert report["result"]["core_vertex_count"] == 5040
        assert took < 5

    def test_not_convex(self, capsys, tmp_path):
        ground = GroundSet.of("abc")
        nu = Capacity(ground, (F(0), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1)))
        code, report = run(capsys, "capacity-audit", "--input", self._audit_doc(tmp_path, nu))
        assert code == 0
        assert list(report["result"]) == [
            "convex", "belief_function", "carrier", "core_vertex_count", "capacity"
        ]
        assert report["result"]["convex"] is False
        assert report["result"]["core_vertex_count"] is None


class TestDocumentValidation:
    """Everything read from a document is checked in full; capid trusts only
    what it derives from such input."""

    KEYS = ("", "a", "b", "a,b", "c", "a,c", "b,c", "a,b,c")

    @classmethod
    def _problem(cls, tmp_path, lam=None, explicit=None):
        """Uniform data, an ignorance rule and, when given, a rule whose
        explicit capacity has ``explicit`` = (values, carrier) in KEYS order."""
        doc = {
            "schema": "capid/1",
            "labels": ["a", "b", "c"],
            "lambda": lam or {"a": "1/3", "b": "1/3", "c": "1/3"},
            "rules": [{"id": "r1", "carrier": ["a", "b", "c"], "info_spec": {"tag": "ignorance"}}],
            "options": {},
        }
        if explicit is not None:
            values, carrier = explicit
            capacity = {"labels": ["a", "b", "c"], "values": dict(zip(cls.KEYS, values))}
            if carrier is not None:
                capacity["carrier"] = carrier
            doc["rules"].append({
                "id": "r2",
                "carrier": ["a", "b", "c"],
                "info_spec": {"tag": "explicit", "params": {"capacity": capacity}},
            })
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("values,carrier,kind,message", [
        (
            ["0", "1/2", "0", "1/4", "0", "1/2", "1/2", "1"], None,
            "ValidationError", "capacity not monotone at a + 'b'",
        ),
        (
            ["0", "1/4", "1/4", "1/2", "1/4", "1/2", "1/2", "1"], ["a", "b"],
            "ValidationError", "capacity is not constant across its carrier",
        ),
        (
            ["0", "1/2", "1/2", "1/2", "1/2", "1/2", "1/2", "1"], None,
            "NotConvexError", "explicit specification requires a convex capacity",
        ),
    ], ids=["non_monotone", "not_constant_across_carrier", "non_convex"])
    def test_bad_explicit_capacity_exits_2(self, capsys, tmp_path, values, carrier, kind, message):
        path = self._problem(tmp_path, explicit=(values, carrier))
        code, report = run(capsys, "exists", "--input", path)
        assert code == 2
        assert report["error"] == {"type": kind, "message": message}

    @pytest.mark.parametrize("lam,message", [
        ({"a": "-1/4", "b": "1/2", "c": "3/4"}, "negative weight -1/4"),
        ({"a": "1/4", "b": "1/4", "c": "1/4"}, "weights sum to 3/4, expected 1"),
    ], ids=["negative_weight", "bad_sum"])
    def test_bad_lambda_exits_2(self, capsys, tmp_path, lam, message):
        code, report = run(capsys, "exists", "--input", self._problem(tmp_path, lam=lam))
        assert code == 2
        assert report["error"] == {"type": "ValidationError", "message": message}

    @pytest.mark.parametrize("q,mode,message", [
        ({"pref:a>b>c": "-1/2", "pref:a>c>b": "3/2"}, "exact", "negative weight -1/2"),
        ({"pref:a>b>c": "-1/2", "pref:a>c>b": "3/2"}, "float", "negative weight -0.5"),
        ({"pref:a>b>c": "1/4", "pref:a>c>b": "1/4"}, "exact", "weights sum to 1/2, expected 1"),
    ], ids=["negative_weight", "negative_weight_float", "bad_sum"])
    def test_bad_q_exits_2(self, capsys, q, mode, message):
        code, report = run(
            capsys, "check", "--input", TWO_ORDERS, "--mode", mode, "--q", json.dumps(q)
        )
        assert code == 2
        assert report["error"] == {"type": "ValidationError", "message": message}


class TestSimulate:
    def test_output_is_a_problem_document(self, capsys, tmp_path):
        out = tmp_path / "synth.json"
        code = main(["simulate", "--input", SIMULATE, "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "capid/1"
        assert "lambda" in doc and "rules" in doc
        # consumable by the identification commands
        code = main(
            ["check", "--input", str(out), "--q", json.dumps(doc["q"])]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["result"]["verdict"]["rationalizes"] is True

    def test_seed_override_changes_synthesis(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--input", SIMULATE, "--output", str(a), "--seed", "1"]) == 0
        assert main(["simulate", "--input", SIMULATE, "--output", str(b), "--seed", "2"]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["synthesis"]["seed"] == 1 and db["synthesis"]["seed"] == 2

    def test_unknown_rule_in_q_exits_2(self, capsys, tmp_path):
        doc = json.loads(Path(SIMULATE).read_text())
        doc["q"]["typo"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, report = run(capsys, "simulate", "--input", str(bad))
        assert code == 2
        assert report["error"]["type"] == "ValidationError"
        assert "'typo'" in report["error"]["message"]

    @pytest.mark.parametrize("seed", [True, False, 1.0, "1"])
    def test_non_integer_seed_exits_2(self, capsys, tmp_path, seed):
        # a JSON boolean is an int to Python, so the type test must refuse it
        doc = json.loads(Path(SIMULATE).read_text())
        doc["seed"] = seed
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, report = run(capsys, "simulate", "--input", str(bad))
        assert code == 2
        assert report["error"] == {"type": "ValidationError", "message": "seed must be an integer"}


    def test_float_report_holds_no_numeric_strings(self, capsys):
        code, report = run(capsys, "simulate", "--input", SIMULATE, "--mode", "float")
        assert code == 0
        numeric = [s for s in _strings(report) if re.fullmatch(r"-?[0-9.]+(/[0-9]+)?", s)]
        assert not numeric, numeric
        assert report["synthesis"]["witness"]["ign-ab"]["a"] == 17 / 37


def _strings(node):
    """Every string value in a JSON document."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _strings(value)


def _ignorance_doc(labels, rules):
    """A problem document with ``rules`` ignorance rules on all of ``labels``
    and uniform data, with their uniform Q."""
    ids = [f"r{i}" for i in range(rules)]
    doc = {
        "schema": "capid/1",
        "labels": labels,
        "lambda": {label: str(F(1, len(labels))) for label in labels},
        "rules": [{"id": rid, "carrier": labels, "info_spec": {"tag": "ignorance"}} for rid in ids],
        "options": {},
    }
    return doc, {rid: str(F(1, rules)) for rid in ids}


def _menu_doc(menus):
    """Two preference orders on a..e over the same menus, with the data of
    their equal split under the uniform menu distribution."""
    labels = list("abcde")
    orders = {"pref:a>b>c>d>e": labels, "pref:e>d>c>b>a": labels[::-1]}
    lam = dict.fromkeys(labels, F(0))
    rules = []
    for rid, order in orders.items():
        choices = {str(i): min(menu, key=order.index) for i, menu in enumerate(menus)}
        for choice in choices.values():
            lam[choice] += F(1, 2 * len(menus))
        rules.append({"id": rid, "menus": menus, "choices": choices, "info_spec": {"tag": "ignorance"}})
    doc = {
        "schema": "capid/1",
        "labels": labels,
        "lambda": {label: str(w) for label, w in lam.items() if w},
        "rules": rules,
        "options": {},
    }
    return doc, {rid: "1/2" for rid in orders}


class TestSizeCaps:
    """The label cap guards a document's labels; rules and menus are not
    labels, and only the commands that enumerate them cap them."""

    def _write(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_twenty_one_rules_are_answered(self, capsys, tmp_path):
        doc, q = _ignorance_doc(["a", "b", "c"], 21)
        path = self._write(tmp_path, doc)
        for command in ("exists", "check", "bounds"):
            code, report = run(capsys, command, "--input", path, "--q", json.dumps(q))
            assert code == 0, report
        assert report["result"]["feasible"] is True
        assert len(report["result"]["bounds"]) == 21
        code, report = run(capsys, "vertices", "--input", path)
        assert code == 3
        assert report["error"]["message"] == (
            f"vertex enumeration supports at most {identification.MAX_RULES_FOR_VERTICES} rules"
        )
        del doc["lambda"]
        doc["q"] = q
        code, report = run(capsys, "simulate", "--input", self._write(tmp_path, doc))
        assert code == 0, report
        assert len(report["synthesis"]["witness"]) == 21

    def test_twenty_one_menus_are_answered(self, capsys, tmp_path):
        subsets = [
            [label for i, label in enumerate("abcde") if mask >> i & 1] for mask in range(1, 32)
        ]
        menus = [menu for menu in subsets if len(menu) >= 2][:21]
        doc, q = _menu_doc(menus)
        path = self._write(tmp_path, doc)
        code, report = run(capsys, "witness", "--input", path, "--q", json.dumps(q))
        assert code == 0, report
        assert report["result"]["verdict"]["rationalizes"] is True
        code, report = run(capsys, "menu-homog", "--input", path, "--q", json.dumps(q))
        assert code == 0, report
        assert report["result"]["feasible"] is True
        assert len(report["result"]["menus"]) == 21

    @pytest.mark.parametrize("cap", [None, "20", "4"])
    def test_twenty_one_labels_exit_3(self, capsys, tmp_path, monkeypatch, cap):
        if cap is None:
            monkeypatch.delenv("CAPID_MAX_N", raising=False)
        else:
            monkeypatch.setenv("CAPID_MAX_N", cap)
        doc, q = _ignorance_doc([f"x{i}" for i in range(21)], 2)
        path = self._write(tmp_path, doc)
        for command in ("exists", "check", "bounds", "vertices"):
            code, report = run(capsys, command, "--input", path, "--q", json.dumps(q))
            assert code == 3
            assert report["error"] == {
                "type": "SizeLimitError",
                "message": f"ground set of size 21 exceeds the cap {cap or 20} "
                "(set CAPID_MAX_N to override)",
            }

    def test_a_repeated_label_exits_2_before_the_cap(self, capsys, tmp_path):
        doc, q = _ignorance_doc([f"x{i}" for i in range(20)] + ["x0"], 2)
        code, report = run(capsys, "exists", "--input", self._write(tmp_path, doc))
        assert code == 2
        assert report["error"] == {
            "type": "ValidationError", "message": "ground set labels must be distinct"
        }


class TestParser:
    """One parser: the command is a positional, and the options may come
    before or after it."""

    def test_options_before_the_command(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["--mode", "float", "bounds", "--input", NESTED, "--output", str(out)]) == 0
        golden = Path(__file__).resolve().parent / "golden"
        assert out.read_bytes() == (golden / "nested_menus_six_orders.bounds.float.json").read_bytes()

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nosuch", "--input", NESTED])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_input_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds"])
        assert exc.value.code == 2
        assert "--input" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_negative_fraction_kappa_as_its_own_argument(self, tmp_path, mode):
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        args = ["identify-kappa", "--input", str(AT_FLOOR), "--mode", mode]
        assert main([*args, "--kappa", "-1/5", "--output", str(spaced)]) == 0
        assert main([*args, "--kappa=-1/5", "--output", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_every_command_prints_the_one_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == cli.build_parser().format_help()


class TestDeterminismAndErrors:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        for path in (one, two):
            assert main(["bounds", "--input", NESTED, "--output", str(path)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_seeded_simulation_is_byte_identical(self, tmp_path):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        for path in (one, two):
            assert main(
                ["simulate", "--input", SIMULATE, "--output", str(path), "--seed", "5"]
            ) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_unreadable_file_exits_1(self, capsys):
        code, report = run(capsys, "check", "--input", "/nonexistent.json")
        assert code == 1
        assert report["error"]["type"] in ("FileNotFoundError", "OSError")

    def test_invalid_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, report = run(capsys, "check", "--input", str(bad))
        assert code == 2

    @pytest.mark.parametrize("kind", sorted(UNDECODABLE))
    def test_undecodable_document_exits_2_with_a_report(self, capsys, tmp_path, kind):
        bad = tmp_path / "bad.json"
        bad.write_bytes(UNDECODABLE[kind])
        code, report = run(capsys, "exists", "--input", str(bad))
        assert code == 2
        assert report["command"] == "exists" and report["error"]["message"]

    @pytest.mark.parametrize("kind", sorted(UNDECODABLE))
    def test_undecodable_q_exits_2_with_a_report(self, capsys, kind):
        # argv reaches Python as str: an undecodable byte arrives as the
        # surrogate os.fsdecode maps it to
        q = os.fsdecode(UNDECODABLE[kind])
        code, report = run(capsys, "check", "--input", NESTED, "--q", q)
        assert code == 2
        assert report["command"] == "check"
        assert report["error"]["type"] == "ValidationError"

    def test_wrong_schema_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/9", "labels": ["a"]}))
        code, report = run(capsys, "exists", "--input", str(bad))
        assert code == 2
        assert "schema" in report["error"]["message"]

    def test_size_cap_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CAPID_MAX_N", "2")
        code, report = run(capsys, "exists", "--input", TWO_ORDERS)
        assert code == 3
        assert report["error"]["type"] == "SizeLimitError"

    def test_internal_failure_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(identification, "decompose_in_mixture_core", lambda *a: None)
        q = json.dumps({"pref:a>b>c": "2/3", "pref:a>c>b": "1/3"})
        code, report = run(capsys, "witness", "--input", TWO_ORDERS, "--q", q)
        assert code == 4
        assert report["error"]["type"] == "CapidError"
        assert "decomposition failed" in report["error"]["message"]

    def test_uncaught_exception_exits_4(self, capsys, monkeypatch):
        def broken(problem):
            raise TypeError("broken engine")

        monkeypatch.setattr(cli, "exists_rationalizing", broken)
        code, report = run(capsys, "exists", "--input", TWO_ORDERS)
        assert code == 4
        assert report["error"] == {"type": "TypeError", "message": "broken engine"}

    def test_inconsistent_verdict_exits_4(self, capsys, monkeypatch):
        # capid builds every verdict, so one that contradicts itself is its fault
        def contradictory(problem, q):
            return identification.Verdict(True, ((1, F(1, 4)),), 1)

        monkeypatch.setattr(cli, "check_rationalizes", contradictory)
        code, report = run(capsys, "check", "--input", NESTED, "--q", QUARTER_Q)
        assert code == 4
        assert report["error"]["type"] == "CapidError"

    def test_simulate_null_q_exits_2(self, capsys, tmp_path):
        doc = json.loads(Path(SIMULATE).read_text())
        doc["q"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, report = run(capsys, "simulate", "--input", str(bad))
        assert code == 2
        assert report["error"]["type"] == "ValidationError"

    def test_float_mode_runs(self, capsys):
        code, report = run(
            capsys, "check", "--input", NESTED, "--q", QUARTER_Q, "--mode", "float"
        )
        assert code == 0
        assert report["mode"] == "float"
        assert report["result"]["verdict"]["rationalizes"] is True

    def test_float_mode_updating_keeps_grid_keys(self, capsys):
        code, report = run(
            capsys, "identify-kappa", "--input", UPDATING, "--mode", "float"
        )
        assert code == 0
        assert report["result"]["interval"] == {"lo": 0.5, "hi": 0.5}
        assert report["result"]["diagnosis"] == "underreaction"

    def test_default_upper_end_in_each_mode(self, capsys, tmp_path):
        # lambda all on the prior admits only kappa = 1, the default upper
        # end of the range, which each mode prints as its own number
        doc = json.loads(Path(UPDATING).read_text())
        doc["lambda"] = {"-1": 0, "0": 1, "1": 0}
        del doc["kappa_range"]
        path = tmp_path / "prior_only.json"
        path.write_text(json.dumps(doc))
        for mode, one in (("exact", "1"), ("float", 1.0)):
            code, report = run(capsys, "identify-kappa", "--input", str(path), "--mode", mode)
            assert code == 0
            interval = report["result"]["interval"]
            assert interval == {"lo": one, "hi": one}
            assert type(interval["lo"]) is type(interval["hi"]) is type(one)


def _field_paths(node, prefix=()):
    """Paths to every object member of a JSON document, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _field_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _field_paths(value, prefix + (i,))


# the commands run on each mutated fixture; witness, menu-homog and bounds
# between them read every field of a problem document and run each engine
SWEEP_COMMANDS = {
    "nested_menus_six_orders": ("witness", "menu-homog", "bounds"),
    "nested_menus_six_orders_no_singleton": ("witness", "menu-homog", "bounds"),
    "two_orders_four_menus": ("witness", "menu-homog", "bounds"),
    "underreaction_point_experiment": ("identify-kappa",),
    "kappa_range_at_floor": ("identify-kappa",),
    "point_spec_audit": ("capacity-audit",),
    "simulate_two_rules": ("simulate",),
}
SWEEP_OPTIONS = {
    "nested_menus_six_orders": ["--q", QUARTER_Q],
    "nested_menus_six_orders_no_singleton": ["--q", QUARTER_Q],
    "two_orders_four_menus": ["--q", json.dumps({"pref:a>b>c": "1/2", "pref:a>c>b": "1/2"})],
    "underreaction_point_experiment": ["--kappa", "1/2"],
    "kappa_range_at_floor": ["--kappa=-1/5"],
}


class TestMalformedDocuments:
    def test_every_field_replaced_by_junk_is_answered_or_rejected(self, tmp_path):
        assert sorted(SWEEP_COMMANDS) == sorted(p.stem for p in FIXTURES.glob("*.json"))
        allowed = {"ValidationError", "NotConvexError", "SizeLimitError"}
        doc_path, out = tmp_path / "doc.json", tmp_path / "report.json"
        failures = []
        for stem, commands in SWEEP_COMMANDS.items():
            doc = json.loads((FIXTURES / f"{stem}.json").read_text())
            for path in _field_paths(doc):
                for junk in (None, 1, "x", [], {}, [1]):
                    bad = copy.deepcopy(doc)
                    node = bad
                    for key in path[:-1]:
                        node = node[key]
                    node[path[-1]] = junk
                    doc_path.write_text(json.dumps(bad))
                    for command in commands:
                        argv = [command, "--input", str(doc_path), "--output", str(out)]
                        code = main(argv + SWEEP_OPTIONS.get(stem, []))
                        error = json.loads(out.read_text()).get("error")
                        if code not in (0, 2, 3) or (error and error["type"] not in allowed):
                            failures.append((stem, command, path, junk, code, error))
        assert not failures, failures[:10]
