"""Command-line front end tests, run in-process against the shipped fixtures."""

import copy
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from capid import Capacity, GroundSet, capacity_from_mobius, cli, identification, schemas
from capid.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NESTED = str(FIXTURES / "nested_menus_six_orders.json")
NESTED_NO_SINGLETON = str(FIXTURES / "nested_menus_six_orders_no_singleton.json")
TWO_ORDERS = str(FIXTURES / "two_orders_four_menus.json")
UPDATING = str(FIXTURES / "underreaction_point_experiment.json")
AUDIT = str(FIXTURES / "point_spec_audit.json")
SIMULATE = str(FIXTURES / "simulate_two_rules.json")

QUARTER_Q = json.dumps(
    {"pref:a>b>c": "1/4", "pref:b>a>c": "1/4", "pref:b>c>a": "1/4", "pref:c>b>a": "1/4"}
)


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
        # float exists puts 0.600000001 on a>b>c, whose core is the point mass
        # on a, so the mix-back misses lambda(a) = 0.6 by almost the full
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


class TestCapacityAudit:
    def test_point_spec(self, capsys):
        code, report = run(capsys, "capacity-audit", "--input", AUDIT)
        assert code == 0
        result = report["result"]
        assert result["convex"] is True
        assert result["belief_function"] is True
        assert result["core_vertex_count"] == 1

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
    "point_spec_audit": ("capacity-audit",),
    "simulate_two_rules": ("simulate",),
}
SWEEP_OPTIONS = {
    "nested_menus_six_orders": ["--q", QUARTER_Q],
    "nested_menus_six_orders_no_singleton": ["--q", QUARTER_Q],
    "two_orders_four_menus": ["--q", json.dumps({"pref:a>b>c": "1/2", "pref:a>c>b": "1/2"})],
    "underreaction_point_experiment": ["--kappa", "1/2"],
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
