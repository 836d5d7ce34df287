"""Per-layer spans and counters, installed on capid from outside.

``Tracer.install`` rebinds public functions of capid's modules to timing
wrappers: in the defining module and in every capid module that imported the
function by name (``cli`` imports ``is_convex``, ``core_vertices`` and
``is_belief_function``; ``updating`` and ``simulate`` import
``core_vertices``; and so on).  Private helpers such as ``_pivot`` are left
alone.  ``numeric`` gets no span: its helpers run once per element inside
every other layer and wrapping them would swamp the trace.

Each span's self time is its duration minus the time covered by its child
spans.  Counters are exact and read from call arguments and results.  A
closed loop with one client has no queue, so no wait time is recorded.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from typing import Any, Callable, Optional

SPANS = (
    [("cli", "main", "cli.main")]
    + [
        ("schemas", name, "schemas.parse")
        for name in (
            "parse_ground", "parse_measure", "parse_capacity", "parse_info_spec",
            "parse_problem", "parse_q", "parse_updating", "parse_simulation",
        )
    ]
    + [
        ("schemas", name, "schemas.encode")
        for name in (
            "measure_json", "capacity_json", "info_spec_json", "verdict_json", "q_json",
            "dump_report",
        )
    ]
    + [
        ("info_specs", "build_capacity", "info_specs.build_capacity"),
        ("capacity", "is_convex", "capacity.is_convex"),
        ("capacity", "is_belief_function", "capacity.is_belief_function"),
        ("capacity", "core_vertices", "capacity.core_vertices"),
        ("capacity", "decompose_in_mixture_core", "capacity.decompose_in_mixture_core"),
        ("identification", "exists_rationalizing", "identification.exists"),
        ("identification", "check_rationalizes", "identification.check"),
        ("identification", "probability_bounds", "identification.bounds"),
        ("identification", "witness_decomposition", "identification.witness"),
        ("identification", "check_menu_homogeneous", "identification.menu_homog"),
        ("identification", "identified_vertices", "identification.vertices"),
        ("lp", "solve_lp", "lp.solve_lp"),
        ("lp", "simplex_polytope_vertices", "lp.vertices"),
        ("updating", "ExperimentModel.__post_init__", "updating.experiment_model"),
        ("updating", "rationalizing_kappa_interval", "updating.kappa_interval"),
        ("updating", "check_average_bias", "updating.check_average_bias"),
        ("simulate", "synth_population", "simulate.synth_population"),
    ]
)

#: Imports by name that a missed rebinding would silently bypass.
REBINDINGS = (
    ("cli", "is_convex"), ("cli", "core_vertices"), ("cli", "is_belief_function"),
    ("updating", "core_vertices"), ("simulate", "core_vertices"),
    ("schemas", "build_capacity"), ("simulate", "build_capacity"),
    ("identification", "decompose_in_mixture_core"),
)

#: Identification calls that build dominance rows and hand them to lp.
ROW_QUERIES = ("identification.exists", "identification.bounds", "identification.vertices")

#: Span groups that must record a call on each workload.
EXPECTED = {
    "identify": (
        "cli.main", "schemas.parse", "schemas.encode", "info_specs.build_capacity",
        "capacity.is_convex", "capacity.decompose_in_mixture_core", "identification.exists",
        "identification.check", "identification.bounds", "identification.witness",
        "identification.menu_homog", "lp.solve_lp",
    ),
    "vertices": (
        "cli.main", "schemas.parse", "schemas.encode", "info_specs.build_capacity",
        "capacity.is_convex", "identification.vertices", "lp.vertices",
    ),
    "capacity-updating": (
        "cli.main", "schemas.parse", "schemas.encode", "info_specs.build_capacity",
        "capacity.is_convex", "capacity.is_belief_function", "capacity.core_vertices",
        "identification.exists", "lp.solve_lp", "updating.experiment_model",
        "updating.kappa_interval", "updating.check_average_bias", "simulate.synth_population",
    ),
}

SELF_TIMES = (
    "cli.main", "schemas.parse", "schemas.encode", "info_specs.build_capacity",
    "capacity.is_convex", "capacity.is_belief_function", "capacity.core_vertices",
    "capacity.decompose_in_mixture_core", "identification.exists", "identification.check",
    "identification.bounds", "identification.witness", "identification.menu_homog",
    "identification.vertices", "lp.solve_lp", "lp.vertices", "updating.experiment_model",
    "updating.kappa_interval", "updating.check_average_bias", "simulate.synth_population",
)
CALLS = ("info_specs.build_capacity", "capacity.is_convex", "capacity.core_vertices",
         "lp.solve_lp", "lp.vertices")
COUNTS = (
    "cli.exit_2", "cli.exit_3", "cli.uncaught", "schemas.doc_bytes",
    "info_specs.build_capacity.subsets", "capacity.is_convex.subsets",
    "capacity.core_vertices.orderings", "capacity.core_vertices.distinct",
    "identification.subsets", "identification.rows_kept",
    "lp.solve_lp.rows", "lp.solve_lp.vars", "lp.solve_lp.infeasible",
    "lp.vertices.rows", "lp.vertices.out",
)

#: Every per-layer metric, in report order, with its unit.
METRICS = (
    [(f"{g}.self_s", "s/query") for g in SELF_TIMES]
    + [(f"{g}.calls", "count") for g in CALLS]
    + [(c, "bytes" if c == "schemas.doc_bytes" else "count") for c in COUNTS]
    + [
        ("identification.rows_ratio", "ratio"),
        ("capacity.core_vertices.yield", "ratio"),
        ("trace.overhead", "ratio"),
    ]
)


def _active_size(nu) -> int:
    return (nu.carrier if nu.carrier is not None else nu.ground.full_mask).bit_count()


class Tracer:
    """Span self times and counters for one traced pass."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # one frame per open span: [group, time covered by children, rows seen]
        self._stack: list[list[Any]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- counters read from arguments and results ---------------------------

    def _count(self, group: str, args: tuple, result: Any, error: Optional[BaseException]) -> None:
        c = self.counts
        if group == "cli.main":
            if error is not None:
                c["cli.uncaught"] += 1
            elif result in (2, 3):
                c[f"cli.exit_{result}"] += 1
            return
        if error is not None:
            return
        if group == "info_specs.build_capacity":
            c["info_specs.build_capacity.subsets"] += 1 << args[0].ground.size
        elif group == "capacity.is_convex":
            c["capacity.is_convex.subsets"] += 1 << _active_size(args[0])
        elif group == "capacity.core_vertices":
            c["capacity.core_vertices.orderings"] += math.factorial(_active_size(args[0]))
            c["capacity.core_vertices.distinct"] += len(result)
        elif group in ROW_QUERIES:
            c["identification.subsets"] += 1 << args[0].ground.size
        elif group == "lp.solve_lp":
            _, a_ub, _, a_eq, _ = args
            c["lp.solve_lp.rows"] += len(a_ub) + len(a_eq)
            c["lp.solve_lp.vars"] += len(args[0])
            c["lp.solve_lp.infeasible"] += result.status == "infeasible"
            self._rows_kept(len(a_ub))
        elif group == "lp.vertices":
            c["lp.vertices.rows"] += len(args[1])
            c["lp.vertices.out"] += len(result)
            self._rows_kept(len(args[1]))

    def _rows_kept(self, rows: int) -> None:
        """Rows handed to lp, counted once per row-building identification call."""
        if self._stack and self._stack[-1][0] in ROW_QUERIES and not self._stack[-1][2]:
            self._stack[-1][2] = True
            self.counts["identification.rows_kept"] += rows

    # -- spans ---------------------------------------------------------------

    def wrap(self, group: str, fn: Callable) -> Callable:
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            frame = [group, 0.0, False]
            stack.append(frame)
            error, result = None, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                took = clock() - start
                stack.pop()
                self.self_s[group] += took - frame[1]
                self.calls[group] += 1
                if stack:
                    stack[-1][1] += took
                self._count(group, args, result, error)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {
            name: importlib.import_module(f"capid.{name}")
            for name in ("cli", "schemas", "info_specs", "capacity", "identification", "lp",
                         "updating", "simulate")
        }
        everywhere = [importlib.import_module("capid")] + list(modules.values())
        for module_name, attr, group in SPANS:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(modules[module_name], cls_name)
                original = cls.__dict__[method]
                self._set(cls, method, self.wrap(group, original), original)
                continue
            original = getattr(modules[module_name], attr)
            wrapper = self.wrap(group, original)
            for module in everywhere:
                for name, val in list(vars(module).items()):
                    if val is original:
                        self._set(module, name, wrapper, original)
        for module_name, attr in REBINDINGS:
            if not hasattr(getattr(modules[module_name], attr), "__wrapped__"):
                self.uninstall()
                raise RuntimeError(f"capid.{module_name}.{attr} was not rebound")

    def _set(self, owner: Any, name: str, value: Any, original: Any) -> None:
        setattr(owner, name, value)
        self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        """Span groups expected on this workload that recorded no call."""
        return [g for g in EXPECTED[workload] if not self.calls.get(g)]

    def metrics(self, queries: int, doc_bytes: int, overhead: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for group in SELF_TIMES:
            out[f"{group}.self_s"] = self.self_s.get(group, 0.0) / queries
        for group in CALLS:
            out[f"{group}.calls"] = self.calls.get(group, 0)
        counts = dict(self.counts, **{"schemas.doc_bytes": doc_bytes})
        for name in COUNTS:
            out[name] = counts.get(name, 0)
        subsets = counts.get("identification.subsets", 0)
        orderings = counts.get("capacity.core_vertices.orderings", 0)
        out["identification.rows_ratio"] = (
            counts.get("identification.rows_kept", 0) / subsets if subsets else 0.0
        )
        out["capacity.core_vertices.yield"] = (
            counts.get("capacity.core_vertices.distinct", 0) / orderings if orderings else 0.0
        )
        out["trace.overhead"] = overhead
        return out
