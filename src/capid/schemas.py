"""JSON wire formats: problem files, updating files, capacities, reports.

All documents carry ``"schema": "capid/1"``.  Numbers round-trip losslessly:
exact mode reads ints, "p/q" strings and decimal literals into Fractions and
writes "p/q" strings back; float mode reads and writes IEEE doubles.
Capacities serialize densely: one entry per subset, keyed by the comma-joined
member labels in ground order (the empty subset key is "").
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import Any, Mapping, NamedTuple, Optional, Sequence

from .capacity import Capacity, GroundSet, Label, Measure
from .errors import SizeLimitError, ValidationError
from .identification import (
    DecisionRule,
    IdentificationProblem,
    MenuCollection,
    Verdict,
    choice_range,
    distinct_rule_ids,
    problem_from_info_specs,
)
from .info_specs import (
    Contamination,
    ExplicitCapacity,
    Ignorance,
    InfoSpec,
    IntervalBelief,
    PointMass,
    VariationNeighborhood,
    build_capacity,
)
from .numeric import Num, format_number, parse_number
from .updating import ExperimentModel, KappaRange, OddsGrid

SCHEMA_ID = "capid/1"


def input_digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def check_schema(obj: Mapping[str, Any]) -> None:
    if not isinstance(obj, Mapping):
        raise ValidationError("document must be a JSON object")
    schema = obj.get("schema")
    if schema != SCHEMA_ID:
        raise ValidationError(f"unsupported schema {schema!r}; expected {SCHEMA_ID!r}")


def _require(obj: Mapping[str, Any], key: str):
    if key not in obj:
        raise ValidationError(f"missing required field {key!r}")
    return obj[key]


# ---------------------------------------------------------------------------
# ground sets, measures, capacities
# ---------------------------------------------------------------------------

_DEFAULT_MAX_N = 20


def _capped(ground: GroundSet) -> GroundSet:
    """A document's ground set, refused past the cap on its labels: 20, or
    CAPID_MAX_N, which overrides it at the user's risk.  The 2^n subsets of
    the labels are the only exponential object; rule ids and menus are not
    capped here."""
    raw = os.environ.get("CAPID_MAX_N")
    try:
        cap = _DEFAULT_MAX_N if raw is None else int(raw)
    except ValueError as exc:
        raise ValidationError(f"CAPID_MAX_N must be an integer, got {raw!r}") from exc
    if ground.size > cap:
        raise SizeLimitError(
            f"ground set of size {ground.size} exceeds the cap {cap} (set CAPID_MAX_N to override)"
        )
    return ground


def parse_ground(labels, numeric: bool = False) -> GroundSet:
    """Numeric labels always parse as exact rationals: they are identifiers
    and their string keys must not depend on the arithmetic mode."""
    if not isinstance(labels, list) or not labels:
        raise ValidationError("labels must be a nonempty list")
    if numeric:
        return _capped(GroundSet(tuple(parse_number(v, exact=True) for v in labels)))
    for label in labels:
        if not isinstance(label, str):
            raise ValidationError("labels must be strings")
        if "," in label or label == "":
            # commas delimit subset keys in capacity documents
            raise ValidationError(f"label {label!r} is not serializable")
    return _capped(GroundSet(tuple(labels)))


def label_key(label: Label) -> str:
    return format_number(label) if not isinstance(label, str) else label


def _ground_key_map(ground: GroundSet) -> dict[str, Label]:
    return {str(label_key(l)): l for l in ground.labels}


def _vector(
    obj, ground: GroundSet, exact: bool, what: str = "vector", item: str = "value"
) -> tuple[Num, ...]:
    """A ``{label: number}`` object as a vector over the ground set; labels
    it omits get 0."""
    if not isinstance(obj, Mapping):
        raise ValidationError(f"a {what} must be a {{label: {item}}} object")
    keys = _ground_key_map(ground)
    vec = [Fraction(0) if exact else 0.0] * ground.size
    for key, raw in obj.items():
        if key not in keys:
            raise ValidationError(f"{what} mentions unknown label {key!r}")
        vec[ground.index(keys[key])] = parse_number(raw, exact)
    return tuple(vec)


def _vector_json(ground: GroundSet, vec: Sequence[Num]) -> dict[str, Any]:
    """The ``{label: number}`` object of a vector, without its zeros."""
    return {str(label_key(l)): format_number(v) for l, v in zip(ground.labels, vec) if v != 0}


def parse_measure(
    obj, ground: GroundSet, exact: bool, carrier: Optional[int] = None
) -> Measure:
    return Measure(ground, _vector(obj, ground, exact, "measure", "weight"), carrier)


def measure_json(m: Measure) -> dict[str, Any]:
    return _vector_json(m.ground, m.weights)


def parse_capacity(
    obj, exact: bool, ground: Optional[GroundSet] = None, numeric_labels: bool = False
) -> Capacity:
    if not isinstance(obj, Mapping):
        raise ValidationError("a capacity must be an object with labels and values")
    if ground is None:
        ground = parse_ground(_require(obj, "labels"), numeric_labels)
    elif "labels" in obj:
        declared = parse_ground(obj["labels"], numeric_labels)
        if declared != ground:
            raise ValidationError("capacity labels disagree with the expected ground set")
    values_obj = _require(obj, "values")
    if not isinstance(values_obj, Mapping):
        raise ValidationError("capacity values must be an object")
    if len(values_obj) != 1 << ground.size:
        raise ValidationError(
            f"capacity must list all {1 << ground.size} subsets, got {len(values_obj)}"
        )
    keys = _ground_key_map(ground)
    values: list[Num] = [None] * (1 << ground.size)  # type: ignore[list-item]
    for key, raw in values_obj.items():
        mask = 0
        if key:
            for part in key.split(","):
                if part not in keys:
                    raise ValidationError(f"capacity key mentions unknown label {part!r}")
                mask |= ground.singleton(keys[part])
        if values[mask] is not None:
            raise ValidationError(f"duplicate capacity entry for subset {key!r}")
        values[mask] = parse_number(raw, exact)
    carrier = None
    if obj.get("carrier") is not None:
        carrier_labels = obj["carrier"]
        if not isinstance(carrier_labels, list):
            raise ValidationError("carrier must be a list of labels")
        carrier = 0
        for part in carrier_labels:
            key = str(part)
            if key not in keys:
                raise ValidationError(f"carrier mentions unknown label {part!r}")
            carrier |= ground.singleton(keys[key])
    return Capacity(ground, tuple(values), carrier)


def capacity_json(c: Capacity, exact: bool = True) -> dict[str, Any]:
    """Float mode prints every value as a double, even a derived capacity's ints."""
    number = format_number if exact else float
    out: dict[str, Any] = {
        "labels": [label_key(l) for l in c.ground.labels],
        "values": {
            c.ground.subset_key(mask): number(c.values[mask])
            for mask in c.ground.masks()
        },
    }
    if c.carrier is not None:
        out["carrier"] = [label_key(l) for l in c.ground.labels_of(c.carrier)]
    return out


# ---------------------------------------------------------------------------
# information specifications
# ---------------------------------------------------------------------------

def parse_info_spec(
    obj, ground: GroundSet, carrier: int, exact: bool
) -> InfoSpec:
    if not isinstance(obj, Mapping):
        raise ValidationError("info_spec must be an object with a tag")
    tag = _require(obj, "tag")
    params = obj.get("params", {})
    if not isinstance(params, Mapping):
        raise ValidationError("info_spec params must be an object")
    if tag == "ignorance":
        return Ignorance(ground, carrier)
    if tag == "contamination":
        rho_hat = parse_measure(_require(params, "rho_hat"), ground, exact, carrier)
        eps = parse_number(_require(params, "epsilon"), exact)
        return Contamination(ground, carrier, rho_hat, eps)
    if tag == "variation-neighborhood":
        ref = parse_measure(_require(params, "reference"), ground, exact, carrier)
        eps = parse_number(_require(params, "epsilon"), exact)
        return VariationNeighborhood(ground, carrier, ref, eps)
    if tag == "interval-belief":
        lower = _vector(_require(params, "lower"), ground, exact)
        upper = _vector(_require(params, "upper"), ground, exact)
        return IntervalBelief(ground, carrier, lower, upper)
    if tag == "explicit":
        nu = parse_capacity(_require(params, "capacity"), exact, ground)
        return ExplicitCapacity(ground, carrier, nu)
    if tag == "point":
        rho = parse_measure(_require(params, "rho"), ground, exact, carrier)
        return PointMass(ground, carrier, rho)
    raise ValidationError(f"unknown info_spec tag {tag!r}")


def info_spec_json(spec: InfoSpec) -> dict[str, Any]:
    out: dict[str, Any] = {
        "tag": spec.tag,
        "carrier": [label_key(l) for l in spec.ground.labels_of(spec.carrier)],
    }
    if isinstance(spec, Contamination):
        out["params"] = {
            "rho_hat": measure_json(spec.rho_hat),
            "epsilon": format_number(spec.epsilon),
        }
    elif isinstance(spec, VariationNeighborhood):
        out["params"] = {
            "reference": measure_json(spec.reference),
            "epsilon": format_number(spec.epsilon),
        }
    elif isinstance(spec, IntervalBelief):
        out["params"] = {
            "lower": _vector_json(spec.ground, spec.lower),
            "upper": _vector_json(spec.ground, spec.upper),
        }
    elif isinstance(spec, ExplicitCapacity):
        out["params"] = {"capacity": capacity_json(spec.nu)}
    elif isinstance(spec, PointMass):
        out["params"] = {"rho": measure_json(spec.rho)}
    return out


# ---------------------------------------------------------------------------
# identification problems
# ---------------------------------------------------------------------------

class ProblemBundle(NamedTuple):
    """Parsed problem plus whatever menu structure the file provided."""

    problem: IdentificationProblem
    decision_rules: dict[str, DecisionRule]
    collections: dict[str, MenuCollection]

    def shared_collection(self) -> Optional[MenuCollection]:
        """The single menu collection when every rule declares the same menus."""
        if len(self.collections) != len(self.problem.rules):
            return None
        menus = {c.menus for c in self.collections.values()}
        if len(menus) != 1:
            return None
        return next(iter(self.collections.values()))


def _label_mask(obj, ground: GroundSet, what: str) -> int:
    """Mask of a JSON list of ground-set labels."""
    if not isinstance(obj, list) or not all(isinstance(label, str) for label in obj):
        raise ValidationError(f"{what} must be a list of labels")
    return ground.mask_of(obj)


def _parse_rules(obj, ground: GroundSet, exact: bool):
    """Rule entries of a problem or simulation document, in order.

    Each entry yields ``(entry, rule_id, spec, rule, collection)``; ``rule``
    and ``collection`` are None for a rule given by its carrier alone.
    """
    rules_obj = _require(obj, "rules")
    if not isinstance(rules_obj, list) or not rules_obj:
        raise ValidationError("rules must be a nonempty list")
    parsed = []
    for entry in rules_obj:
        if not isinstance(entry, Mapping):
            raise ValidationError("each rule must be an object")
        rule_id = _require(entry, "id")
        if not isinstance(rule_id, str):
            raise ValidationError("rule ids must be strings")
        rule: Optional[DecisionRule] = None
        collection: Optional[MenuCollection] = None
        if entry.get("menus") is not None:
            menus = entry["menus"]
            choices_obj = _require(entry, "choices")
            if not isinstance(menus, list) or not isinstance(choices_obj, Mapping):
                raise ValidationError(f"rule {rule_id!r}: malformed menus or choices")
            collection = MenuCollection(
                ground, tuple(_label_mask(menu, ground, "each menu") for menu in menus)
            )
            choices = []
            for i in range(len(collection.menus)):
                choice = _require(choices_obj, str(i))
                if not isinstance(choice, str):
                    raise ValidationError(f"rule {rule_id!r}: choices must be labels")
                choices.append(choice)
            rule = DecisionRule(rule_id, tuple(choices))
            carrier = choice_range(rule, collection)
            if entry.get("carrier") is not None:
                declared = _label_mask(entry["carrier"], ground, "carrier")
                if declared != carrier:
                    raise ValidationError(
                        f"rule {rule_id!r}: declared carrier disagrees with the "
                        "range of its choices"
                    )
        elif entry.get("carrier") is not None:
            carrier = _label_mask(entry["carrier"], ground, "carrier")
        else:
            raise ValidationError(
                f"rule {rule_id!r} needs either menus+choices or a carrier"
            )
        spec = parse_info_spec(_require(entry, "info_spec"), ground, carrier, exact)
        parsed.append((entry, rule_id, spec, rule, collection))
    return parsed


def parse_problem(obj, exact: bool) -> ProblemBundle:
    check_schema(obj)
    ground = parse_ground(_require(obj, "labels"))
    lam = parse_measure(_require(obj, "lambda"), ground, exact)
    parsed = _parse_rules(obj, ground, exact)
    problem = problem_from_info_specs(ground, [(rid, spec) for _, rid, spec, _, _ in parsed], lam)
    # rules given by menus and choices; the others have neither
    decision_rules = {rid: rule for _, rid, _, rule, _ in parsed if rule is not None}
    collections = {rid: c for _, rid, _, rule, c in parsed if rule is not None}
    return ProblemBundle(problem, decision_rules, collections)


def _rule_weights(obj, ids: tuple[str, ...], exact: bool, name: str) -> Measure:
    """A ``{rule-id: weight}`` object as a measure over the rule ids; rules it
    omits get weight 0, and an id that names no rule is an error."""
    if not isinstance(obj, Mapping):
        raise ValidationError(f"{name} must be a {{rule-id: weight}} object")
    unknown = set(obj) - set(ids)
    if unknown:
        raise ValidationError(f"{name} mentions unknown rules {sorted(unknown)!r}")
    weights = tuple(parse_number(obj.get(rid, 0), exact) for rid in ids)
    return Measure(GroundSet(ids), weights)


def parse_q(raw_obj, problem: IdentificationProblem, exact: bool) -> Measure:
    return _rule_weights(raw_obj, tuple(r.rule_id for r in problem.rules), exact, "Q")


# ---------------------------------------------------------------------------
# updating documents
# ---------------------------------------------------------------------------

def parse_updating(obj, exact: bool):
    check_schema(obj)
    grid_values = _require(obj, "grid")
    if not isinstance(grid_values, list) or not grid_values:
        raise ValidationError("grid must be a nonempty list of numbers")
    # grid points are labels: parse exactly in both modes so keys are stable
    values = tuple(parse_number(v, exact=True) for v in grid_values)
    prior = parse_number(_require(obj, "prior"), exact=True)
    grid = OddsGrid.from_values(values, prior)
    _capped(grid.ground)
    nu = parse_capacity(
        _require(obj, "experiment_capacity"), exact, grid.shifted, numeric_labels=True
    )
    model = ExperimentModel(grid, nu)
    lam = parse_measure(_require(obj, "lambda"), grid.ground, exact)
    krange = None
    if obj.get("kappa_range") is not None:
        pair = obj["kappa_range"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError("kappa_range must be [lo, hi]")
        krange = KappaRange.for_model(
            model, parse_number(pair[0], exact), parse_number(pair[1], exact)
        )
    return model, lam, krange


# ---------------------------------------------------------------------------
# simulation documents
# ---------------------------------------------------------------------------

def parse_simulation(obj, exact: bool):
    check_schema(obj)
    ground = parse_ground(_require(obj, "labels"))
    entries = [(rid, spec, entry) for entry, rid, spec, _, _ in _parse_rules(obj, ground, exact)]
    ids = distinct_rule_ids(tuple(rid for rid, _, _ in entries))
    q = _rule_weights(_require(obj, "q"), ids, exact, "q")
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError("seed must be an integer")
    return ground, entries, q, seed


def parse_audit(obj, exact: bool) -> Capacity:
    """The capacity a ``capacity-audit`` document names: given outright, or
    built from an information specification on a carrier (default: all)."""
    check_schema(obj)
    if obj.get("capacity") is not None:
        return parse_capacity(obj["capacity"], exact)
    ground = parse_ground(obj.get("labels"))
    carrier = ground.full_mask
    if obj.get("carrier") is not None:
        carrier = _label_mask(obj["carrier"], ground, "carrier")
    return build_capacity(parse_info_spec(obj.get("info_spec"), ground, carrier, exact))


# ---------------------------------------------------------------------------
# report fragments
# ---------------------------------------------------------------------------

def verdict_json(verdict: Verdict, ground: GroundSet) -> dict[str, Any]:
    return {
        "rationalizes": verdict.rationalizes,
        "violations": [
            {
                "subset": [label_key(l) for l in ground.labels_of(mask)],
                "shortfall": format_number(shortfall),
            }
            for mask, shortfall in verdict.violated
        ],
        "violation_count": verdict.violation_count,
        # kept so reports keep their shape; every verdict is a full check
        "necessary_only": False,
    }


def q_json(q: Measure) -> dict[str, Any]:
    return {
        str(label): format_number(w)
        for label, w in zip(q.ground.labels, q.weights)
    }


def report(command: str, mode: str, digest: Optional[str], **fields: Any) -> dict[str, Any]:
    """The report envelope, followed by ``fields``: a ``result`` or an
    ``error``, or the problem-document fields of a ``simulate`` report."""
    return {
        "schema": SCHEMA_ID,
        "command": command,
        "mode": mode,
        "input_digest": digest,
        **fields,
    }


def dump_report(obj: Mapping[str, Any]) -> str:
    return json.dumps(obj, indent=2) + "\n"
