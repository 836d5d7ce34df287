"""capid benchmark runner.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload identify --seed 1 --seconds 24 --trace 0

One client, closed loop: each query is one in-process call to
``capid.cli.main`` on a generated document, and the next query is sent only
after the previous one returns, so there is never a queue and no wait time
is recorded.  The seed fixes the documents, their known answers and the
query order.  Timing runs whole passes over the query list, as many as fit
in ``--seconds`` and at least three, so every run measures the same mix.
A query's latency is its median over the passes, which filters bursts of
interference from other processes; p50 and p90 are taken over those
medians, and throughput is the number of correct queries in a pass over the
sum of their medians.

After timing, every report is checked against its known answer (see
``gate.py``).  With ``--trace 1`` a traced pass follows two untraced ones
and per-layer metrics replace the end-to-end ones (see ``tracing.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Optional

SETUP_REPEATS = 11
#: p90 is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
#: Each query's latency is its median over at least this many passes.
MIN_PASSES = 3

#: End-to-end metrics of an untraced run, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_s", "s"),
    ("query_p90_s", "s"),
    ("queries_per_s", "1/s"),
    ("correct_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


#: Run in a fresh interpreter: the wall time of ``import capid.cli``.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import capid.cli; "
    "print(time.perf_counter() - start)"
)


def measure_setup(src: str) -> float:
    """Median time a fresh interpreter spends importing ``capid.cli``: the
    fixed cost every CLI invocation pays before it reads its input."""
    argv = [sys.executable, "-c", IMPORT_PROBE]
    env = dict(os.environ, PYTHONPATH=src)
    # one untimed start writes the bytecode caches
    subprocess.run(argv, env=env, check=True, capture_output=True)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
        times.append(float(out.stdout))
    return statistics.median(times)


class Outcome:
    """What one query returned: exit code, report text, uncaught exception."""

    __slots__ = ("code", "text", "error")

    def __init__(self, code: Optional[int], text: str, error: Optional[str]) -> None:
        self.code = code
        self.text = text
        self.error = error


def call(main, argv: list[str]) -> Outcome:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except Exception as exc:  # a crash is a failed query, not a crashed benchmark
        return Outcome(None, buf.getvalue(), f"{type(exc).__name__}: {exc}")
    return Outcome(code, buf.getvalue(), None)


def timed_pass(main, queries, paths, outcomes, times) -> float:
    """Send every query once, in order; returns the pass's wall time."""
    start = time.perf_counter()
    for qi, query in enumerate(queries):
        argv = query.argv(paths[query.doc])
        t0 = time.perf_counter()
        out = call(main, argv)
        times[qi].append(time.perf_counter() - t0)
        outcomes[qi].append(out)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "capid", "cli.py")):
        fail(f"no capid sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import gate
    import workloads
    from capid import cli

    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    setup_s = measure_setup(src)
    docs, queries = workloads.build(args.workload, args.seed)
    work = os.path.join(root, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        paths = []
        for doc in docs:
            path = os.path.join(work, doc.name + ".json")
            if doc.kind == "simulated":
                # the report of the simulation query on the source document
                src_path = os.path.join(work, docs[doc.facts["source"]].name + ".json")
                out = call(cli.main, ["simulate", "--input", src_path])
                if out.code != 0:
                    fail(f"simulation of {docs[doc.facts['source']].name} failed: {out.text}")
                doc.text = out.text.encode()
            with open(path, "wb") as fh:
                fh.write(doc.text)
            paths.append(path)
        return run(args, cli, gate, workloads, docs, queries, paths, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, cli, gate, workloads, docs, queries, paths, setup_s) -> int:
    import tracing

    outcomes: list[list[Outcome]] = [[] for _ in queries]
    times: list[list[float]] = [[] for _ in queries]
    wall = 0.0
    while True:
        took = timed_pass(cli.main, queries, paths, outcomes, times)
        wall += took
        passes = len(times[0])
        if args.trace:
            # the traced pass is compared with the second, warm untraced pass
            if passes == 2:
                break
        elif passes >= MIN_PASSES and wall + took > args.seconds:
            # whole passes, as many as fit and at least MIN_PASSES
            break
    layers = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall = timed_pass(cli.main, queries, paths, outcomes, [[] for _ in queries])
        finally:
            tracer.uninstall()
        missing = tracer.missing(args.workload)
        if missing:
            fail(f"no call recorded on {', '.join(missing)}: a rebinding was missed")
        doc_bytes = sum(len(docs[q.doc].text) for q in queries)
        layers = tracer.metrics(len(queries), doc_bytes, 1 - took / traced_wall)

    verdicts = gate.check_all(docs, queries, outcomes)
    attempted = sum(len(o) for o in outcomes)
    reasons = [r for row in verdicts for r in row if r]
    failed = len(reasons)
    digest = hashlib.sha256()
    for qi in range(len(queries)):
        digest.update(outcomes[qi][0].text.encode())
    # each query's median over the passes filters bursts of interference
    # from other processes on the machine
    latency = sorted(statistics.median(t) for t in times)
    p90 = statistics.quantiles(latency, n=10)[8]
    beyond = sum(1 for t in latency if t > p90)

    print("inputs " + json.dumps(workloads.describe(args.workload, docs, queries), sort_keys=True))
    print(f"timed {passes} pass(es) of {len(queries)} queries in {wall:.3f} s; "
          f"{beyond} query medians beyond p90")
    print(f"report_digest sha256:{digest.hexdigest()}")
    for reason in sorted(set(reasons)):
        print(f"failed {reasons.count(reason)}: {reason}")
    if args.workload == "identify":
        probe_float_witness(cli, docs, queries, paths, workloads)
    if beyond < TAIL_SAMPLES:
        print(f"only {beyond} query medians beyond p90; {TAIL_SAMPLES} are required")

    if layers is None:
        values = {
            "setup_s": setup_s,
            "query_p50_s": statistics.median(latency),
            "query_p90_s": p90,
            "queries_per_s": sum(not any(row) for row in verdicts) / sum(latency),
            "correct_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    else:
        metrics = {name: (layers[name], unit) for name, unit in tracing.METRICS}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and beyond >= TAIL_SAMPLES,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def probe_float_witness(cli, docs, queries, paths, workloads) -> None:
    """Float-mode witness raised CapidError on most float documents at the
    commit that introduced this benchmark: the decomposition LP gets no float
    slack on its equality rows.  It is kept out of the timed mix so that the
    mix has no failing operation, and probed here so that the defect stays in
    view until it is fixed."""
    replayed = sorted({q.doc for q in queries if q.mode == "float"})
    errors = []
    for i in replayed:
        query = workloads.Query(i, "witness", "float", q=workloads.q_arg(docs[i].facts["q_star"]))
        out = call(cli.main, query.argv(paths[i]))
        if out.error is not None or out.code != 0:
            errors.append(out.error or f"exit {out.code}")
    summary = ", ".join(f"{errors.count(e)} {e}" for e in sorted(set(errors))) or "none"
    print(f"probe float-mode witness (outside the mix): {len(replayed) - len(errors)} of "
          f"{len(replayed)} answered; errors: {summary}")


if __name__ == "__main__":
    sys.exit(main())
