"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gate  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from capid import cli  # noqa: E402
from capid.identification import probability_bounds  # noqa: E402


def write_docs(tmp_path, docs, wanted):
    paths = {}
    for i in wanted:
        path = tmp_path / f"{docs[i].name}.json"
        path.write_bytes(docs[i].text)
        paths[i] = str(path)
    return paths


def answer(docs, query, paths, tamper=None):
    """Run one query and return the gate's reason (None when correct)."""
    out = run.call(cli.main, query.argv(paths[query.doc]))
    if tamper is not None:
        report = json.loads(out.text)
        tamper(report["result"])
        out.text = json.dumps(report)
    return gate.reason(gate.DocContext(docs[query.doc]), query, out, docs)


def test_same_seed_gives_byte_identical_documents():
    for name in workloads.WORKLOADS:
        docs_a, queries_a = workloads.build(name, 7)
        docs_b, queries_b = workloads.build(name, 7)
        assert [d.text for d in docs_a] == [d.text for d in docs_b]
        assert [q.argv("x") for q in queries_a] == [q.argv("x") for q in queries_b]
        docs_c, _ = workloads.build(name, 8)
        assert any(a.text != c.text for a, c in zip(docs_a, docs_c) if a.text)


def smallest(docs, queries, command, mode="exact"):
    return min(
        (q for q in queries if q.command == command and q.mode == mode),
        key=lambda q: len(docs[q.doc].text),
    )


def test_shifted_bound_fails_the_gate(tmp_path):
    docs, queries = workloads.build("identify", 1)
    query = smallest(docs, [q for q in queries if docs[q.doc].facts["feasible"]], "bounds")
    paths = write_docs(tmp_path, docs, [query.doc])
    assert answer(docs, query, paths) is None

    def shift(result):
        rid = docs[query.doc].facts["ids"][0]
        result["bounds"][rid]["min"] = str(F(result["bounds"][rid]["min"]) - F(1, 1000))

    assert "not sharp" in answer(docs, query, paths, shift)


def test_dropped_vertex_fails_the_gate(tmp_path):
    docs, queries = workloads.build("vertices", 1)
    query = next(q for q in queries if len(docs[q.doc].facts["ids"]) == 3
                 and docs[q.doc].facts["rows"] >= 8)
    paths = write_docs(tmp_path, docs, [query.doc])
    assert answer(docs, query, paths) is None
    ids = docs[query.doc].facts["ids"]

    def drop(result):
        verts = result["vertices"]
        # a vertex that alone attains the largest weight of some rule
        for rid in ids:
            top = max(F(v[rid]) for v in verts)
            holders = [v for v in verts if F(v[rid]) == top]
            if len(holders) == 1:
                verts.remove(holders[0])
                result["count"] -= 1
                return
        raise AssertionError("no vertex alone attains a rule's maximum")

    assert "a vertex is missing" in answer(docs, query, paths, drop)


def test_kappa_outside_interval_fails_the_gate(tmp_path):
    docs, queries = workloads.build("capacity-updating", 1)
    query = smallest(docs, queries, "identify-kappa")
    paths = write_docs(tmp_path, docs, [query.doc])
    assert answer(docs, query, paths) is None
    kappa = docs[query.doc].facts["kappa"]

    def move(result):
        result["interval"]["hi"] = str(kappa - F(1, 1000))
        result["interval"]["lo"] = str(min(F(result["interval"]["lo"]), kappa - F(1, 1000)))

    assert "kappa* outside" in answer(docs, query, paths, move)


def test_reports_are_the_same_with_tracing_on_and_off(tmp_path):
    for name in workloads.WORKLOADS:
        docs, queries = workloads.build(name, 3)
        picked = [q for q in queries if docs[q.doc].kind != "simulated"]
        picked = sorted(picked, key=lambda q: len(docs[q.doc].text))[:12]
        paths = write_docs(tmp_path, docs, {q.doc for q in picked})
        plain = [run.call(cli.main, q.argv(paths[q.doc])).text for q in picked]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = [run.call(cli.main, q.argv(paths[q.doc])).text for q in picked]
        finally:
            tracer.uninstall()
        assert traced == plain
        assert tracer.calls["cli.main"] == len(picked)
        assert not hasattr(cli.is_convex, "__wrapped__")


def test_float_oracle_matches_exact_bounds():
    docs, _ = workloads.build("vertices", 2)
    for doc in docs[:: len(docs) // 6]:
        ctx = gate.DocContext(doc)
        exact = probability_bounds(ctx.problem(True))
        for (lo, hi), rid in zip(ctx.bounds, doc.facts["ids"]):
            assert abs(lo - float(exact[rid][0])) < 1e-9
            assert abs(hi - float(exact[rid][1])) < 1e-9


TINY = {
    "IDENTIFY_BANDS": ((5, 20, 2, (6, 7), (3, 3), 0.8),),
    "IDENTIFY_INFEASIBLE": (5, 20, 1, (6, 7), (3, 3), 0.8),
    "IDENTIFY_MENUS": 1,
    "VERTEX_MIX": ((3, 3, 30),),
    "AUDIT_MIX": [(5, "mobius"), (5, "blocks"), (5, "contamination"), (5, "nonconvex")],
    "KAPPA_GRIDS": (5,),
    "SIMULATIONS": 1,
}


def run_main(monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", ["run.py", *argv])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main() == 0
    return json.loads(buf.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(monkeypatch, tmp_path, workload):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    monkeypatch.chdir(tmp_path)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    plain = run_main(monkeypatch, "--workload", workload, "--seed", "1", "--seconds", "1")
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    traced = run_main(monkeypatch, "--workload", workload, "--seed", "1", "--seconds", "1",
                      "--trace", "1")
    assert traced["failed"] == 0
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert not os.listdir(tmp_path / ".bench_build")


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
