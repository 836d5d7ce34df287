"""Batch command-line front end.

Every command reads one JSON document, runs one engine query, and writes one
JSON report.  Verdicts are answers, not errors: "not rationalizable" exits 0.
Exit codes: 0 success, 1 unreadable input or unwritable report, 2 schema or
validation problem, 3 size cap exceeded, 4 internal failure: any other error
is a fault in capid, not in the input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Optional

from . import schemas
# is_convex is no longer called here, but perfbench/tracing.py rebinds
# capid.cli.is_convex, so the name stays importable from this module
from .capacity import core_vertices, is_belief_function, is_convex  # noqa: F401
from .errors import InfeasibleSetError, NotConvexError, SizeLimitError, ValidationError
from .identification import (
    Verdict,
    _NoWitness,
    check_menu_homogeneous,
    check_rationalizes,
    exists_rationalizing,
    identified_vertices,
    menu_measure,
    probability_bounds,
    witness_decomposition,
)
from .numeric import format_number, parse_number
from .simulate import synth_population
from .updating import check_average_bias, rationalizing_kappa_interval

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capid",
        description=(
            "Exact identification of decision-rule distributions from "
            "aggregate choices with unobserved menus, and of average "
            "updating biases from posterior-odds data."
        ),
    )
    parser.add_argument("command", choices=COMMANDS, help="the query to run")
    parser.add_argument("--input", required=True, help="path to the input JSON document")
    parser.add_argument("--output", default=None, help="report path (default: stdout)")
    parser.add_argument(
        "--mode", choices=("exact", "float"), default="exact",
        help="arithmetic mode (default: exact rationals)",
    )
    parser.add_argument("--seed", type=int, default=None, help="PRNG seed override")
    parser.add_argument("--q", default=None, help="inline Q as JSON, e.g. '{\"r1\": \"1/2\"}'")
    parser.add_argument("--kappa", default=None, help="evaluate a single average bias")
    return parser


def _require_q(args, problem, exact):
    if args.q is None:
        raise ValidationError("this command needs --q with a {rule-id: weight} object")
    try:
        raw = json.loads(args.q)
    except (ValueError, RecursionError) as exc:
        # a decode error, an int literal over Python's digit limit, or
        # nesting deeper than the recursion limit
        raise ValidationError(f"--q is not valid JSON: {exc}") from exc
    return schemas.parse_q(raw, problem, exact)


def _menu_weights_json(collection, pi):
    """A measure over menus as ``{menu key: weight}``: equal menus add up, zeros drop."""
    totals = {}
    for menu, w in zip(collection.menus, pi.weights):
        totals[menu] = totals.get(menu, 0) + w
    return {
        collection.ground.subset_key(menu): format_number(w)
        for menu, w in totals.items()
        if w != 0
    }


def _cmd_check(args, doc, exact):
    bundle = schemas.parse_problem(doc, exact)
    q = _require_q(args, bundle.problem, exact)
    verdict = check_rationalizes(bundle.problem, q)
    return {
        "q": schemas.q_json(q),
        "verdict": schemas.verdict_json(verdict, bundle.problem.ground),
    }


def _cmd_exists(args, doc, exact):
    bundle = schemas.parse_problem(doc, exact)
    q = exists_rationalizing(bundle.problem)
    if q is None:
        return {"feasible": False, "q": None}
    return {"feasible": True, "q": schemas.q_json(q)}


def _cmd_bounds(args, doc, exact):
    bundle = schemas.parse_problem(doc, exact)
    try:
        bounds = probability_bounds(bundle.problem)
    except InfeasibleSetError:
        return {"feasible": False, "bounds": None}
    return {
        "feasible": True,
        "bounds": {
            rid: {"min": format_number(lo), "max": format_number(hi)}
            for rid, (lo, hi) in bounds.items()
        },
    }


def _cmd_vertices(args, doc, exact):
    bundle = schemas.parse_problem(doc, exact)
    try:
        verts = identified_vertices(bundle.problem)
    except InfeasibleSetError:
        return {"feasible": False, "vertices": []}
    return {
        "feasible": True,
        "count": len(verts),
        "vertices": [schemas.q_json(v) for v in verts],
    }


def _cmd_witness(args, doc, exact):
    bundle = schemas.parse_problem(doc, exact)
    q = _require_q(args, bundle.problem, exact)
    # witness_decomposition runs the one dominance check of this query
    try:
        witness = witness_decomposition(bundle.problem, q)
    except _NoWitness as failed:
        verdict, witness = failed.verdict, None
    else:
        # a passing check lists no violations
        verdict = Verdict(True, (), 0)
    result: dict[str, Any] = {
        "q": schemas.q_json(q),
        "verdict": schemas.verdict_json(verdict, bundle.problem.ground),
        "witness": None,
    }
    if witness is None:
        return result
    result["witness"] = {
        rid: schemas.measure_json(rho) for rid, rho in witness.items()
    }
    menu_measures = {}
    for rid, rho in witness.items():
        rule = bundle.decision_rules.get(rid)
        collection = bundle.collections.get(rid)
        if rule is None or collection is None:
            continue
        menu_measures[rid] = _menu_weights_json(collection, menu_measure(rho, rule, collection))
    if menu_measures:
        result["menu_measures"] = menu_measures
    return result


def _cmd_menu_homog(args, doc, exact):
    bundle = schemas.parse_problem(doc, exact)
    q = _require_q(args, bundle.problem, exact)
    collection = bundle.shared_collection()
    if collection is None:
        raise ValidationError(
            "menu-homog needs every rule to declare the same menus and choices"
        )
    rules = [bundle.decision_rules[r.rule_id] for r in bundle.problem.rules]
    pi = check_menu_homogeneous(rules, collection, bundle.problem.data, q)
    result: dict[str, Any] = {
        "q": schemas.q_json(q),
        "menus": [
            [str(l) for l in collection.ground.labels_of(menu)]
            for menu in collection.menus
        ],
        "feasible": pi is not None,
        "pi": None,
    }
    if pi is not None:
        result["pi"] = _menu_weights_json(collection, pi)
    return result


def _cmd_identify_kappa(args, doc, exact):
    grid, model, lam, krange = schemas.parse_updating(doc, exact)
    solution = rationalizing_kappa_interval(lam, model, krange)
    def subsets(masks):
        return [
            [schemas.label_key(l) for l in grid.ground.labels_of(m)] for m in masks
        ]
    result: dict[str, Any] = {
        "kappa_floor": format_number(model.kappa_floor),
        "interval": None
        if solution.empty
        else {"lo": format_number(solution.lo), "hi": format_number(solution.hi)},
        "diagnosis": solution.diagnosis,
        "bayes_violations": {
            "without_prior": subsets(solution.under_witnesses),
            "with_prior": subsets(solution.over_witnesses),
        },
    }
    if args.kappa is not None:
        kappa = parse_number(args.kappa, exact)
        if model.above_floor(kappa):
            # a float kappa admitted within the tolerance prints as the floor
            kappa = max(kappa, model.kappa_floor)
        verdict = check_average_bias(lam, model, kappa)
        result["at_kappa"] = {
            "kappa": format_number(kappa),
            "verdict": schemas.verdict_json(verdict, grid.ground),
        }
    return result


def _cmd_capacity_audit(args, doc, exact):
    nu = schemas.parse_audit(doc, exact)
    # core_vertices runs the one convexity test and raises when it fails
    try:
        vertex_count: Optional[int] = len(core_vertices(nu))
    except NotConvexError:
        vertex_count = None
    result: dict[str, Any] = {
        "convex": vertex_count is not None,
        "belief_function": is_belief_function(nu),
        "carrier": [schemas.label_key(l) for l in nu.ground.labels_of(nu.active)],
        "core_vertex_count": vertex_count,
        "capacity": schemas.capacity_json(nu, exact),
    }
    return result


def _cmd_simulate(args, doc, exact):
    ground, entries, q, seed = schemas.parse_simulation(doc, exact)
    if args.seed is not None:
        seed = args.seed
    result = synth_population([(rid, spec) for rid, spec, _ in entries], q, seed)
    rules_out = []
    for rid, spec, entry in entries:
        rule_doc: dict[str, Any] = {"id": rid}
        if entry.get("menus") is not None:
            rule_doc["menus"] = entry["menus"]
            rule_doc["choices"] = entry["choices"]
        else:
            rule_doc["carrier"] = entry["carrier"]
        rule_doc["info_spec"] = schemas.info_spec_json(spec)
        rules_out.append(rule_doc)
    return {
        "labels": list(ground.labels),
        "lambda": schemas.measure_json(result.lam),
        "rules": rules_out,
        "options": {},
        "q": schemas.q_json(q),
        "synthesis": {
            **result.metadata,
            "witness": {
                rid: schemas.measure_json(rho)
                for rid, rho in result.rho_by_rule.items()
            },
        },
    }


_HANDLERS = {
    "check": _cmd_check,
    "exists": _cmd_exists,
    "bounds": _cmd_bounds,
    "vertices": _cmd_vertices,
    "witness": _cmd_witness,
    "menu-homog": _cmd_menu_homog,
    "identify-kappa": _cmd_identify_kappa,
    "simulate": _cmd_simulate,
    "capacity-audit": _cmd_capacity_audit,
}
COMMANDS = tuple(_HANDLERS)


def _error_report(command: str, mode: str, digest: Optional[str], exc: Exception) -> str:
    error = {"type": type(exc).__name__, "message": str(exc)}
    return schemas.dump_report(schemas.report(command, mode, digest, error=error))


def _run(args: argparse.Namespace) -> tuple[int, str]:
    """The exit code and the report text of one command."""
    exact = args.mode == "exact"
    try:
        with open(args.input, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return 1, _error_report(args.command, args.mode, None, exc)
    digest = schemas.input_digest(raw)
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, an int literal over Python's digit limit, or
        # nesting deeper than the recursion limit
        return 2, _error_report(args.command, args.mode, digest, exc)
    try:
        result = _HANDLERS[args.command](args, doc, exact)
    except Exception as exc:
        code = 3 if isinstance(exc, SizeLimitError) else 2 if isinstance(exc, ValidationError) else 4
        if code == 4:
            # input that passed validation and still failed is a fault in capid
            import traceback  # only on this path: start-up does not pay for it

            traceback.print_exc()
        return code, _error_report(args.command, args.mode, digest, exc)
    # the simulate report is itself a problem document consumable by the
    # identification commands; its report fields sit alongside
    fields = result if args.command == "simulate" else {"result": result}
    return 0, schemas.dump_report(schemas.report(args.command, args.mode, digest, **fields))


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes "-1/5" for an option, so "--kappa -1/5", or an
    # abbreviation such as "--kap -1/5", goes as "--kappa=-1/5"
    for i in reversed(range(len(argv) - 1)):
        if len(argv[i]) >= 3 and "--kappa".startswith(argv[i]) and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    code, text = _run(args)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"capid: cannot write the report: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
