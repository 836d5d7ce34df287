"""Seeded instance generators shared by the invariant and acceptance suites."""

import random
from fractions import Fraction as F

from capid import Capacity, GroundSet, Measure, ValidationError, core_vertices, is_convex
from capid.info_specs import (
    Contamination,
    Ignorance,
    IntervalBelief,
    VariationNeighborhood,
)
from helpers import apply_update_rule, capacity_from_mobius

LABELS = "abcdef"
LABELS_BIG = "abcdefgh"

FAMILIES = ("ignorance", "contamination", "variation-neighborhood", "interval-belief")


def random_ground(rng: random.Random, lo=2, hi=5) -> GroundSet:
    return GroundSet.of(LABELS[: rng.randint(lo, hi)])


def random_carrier(rng: random.Random, ground: GroundSet, max_bits=3) -> int:
    bits = rng.randint(1, min(max_bits, ground.size))
    idx = rng.sample(range(ground.size), bits)
    mask = 0
    for i in idx:
        mask |= 1 << i
    return mask


def random_measure(rng: random.Random, ground: GroundSet, carrier=None, denom=20) -> Measure:
    carrier = ground.full_mask if carrier is None else carrier
    idx = [i for i in range(ground.size) if carrier >> i & 1]
    units = [rng.randint(0, denom) for _ in idx]
    if sum(units) == 0:
        units[rng.randrange(len(units))] = 1
    total = sum(units)
    weights = [F(0)] * ground.size
    for i, u in zip(idx, units):
        weights[i] = F(u, total)
    return Measure(ground, tuple(weights), carrier)


def random_belief_function(rng: random.Random, ground: GroundSet) -> Capacity:
    """Normalized random nonnegative masses over nonempty subsets."""
    n_masks = 1 << ground.size
    units = [0] * n_masks
    for mask in range(1, n_masks):
        if rng.random() < 0.5:
            units[mask] = rng.randint(1, 6)
    if sum(units) == 0:
        units[n_masks - 1] = 1
    total = sum(units)
    masses = [F(u, total) for u in units]
    return capacity_from_mobius(ground, masses)


def random_convex_capacity(rng: random.Random, ground: GroundSet) -> Capacity:
    """Belief-function base, then value perturbations that preserve convexity."""
    nu = random_belief_function(rng, ground)
    values = list(nu.values)
    full = ground.full_mask
    for _ in range(3):
        mask = rng.randint(1, full - 1)
        delta = F(rng.choice((-1, 1)), rng.randint(8, 32))
        candidate = values[:]
        candidate[mask] = max(F(0), min(F(1), candidate[mask] + delta))
        try:
            trial = Capacity(ground, tuple(candidate))
        except ValidationError:
            continue
        if is_convex(trial):
            values = candidate
    return Capacity(ground, tuple(values))


def random_spec(rng: random.Random, ground: GroundSet, family: str, carrier: int):
    if family == "ignorance":
        return Ignorance(ground, carrier)
    if family == "contamination":
        focal = random_measure(rng, ground, carrier)
        eps = F(rng.randint(0, 8), 8)
        return Contamination(ground, carrier, focal, eps)
    if family == "variation-neighborhood":
        ref = random_measure(rng, ground, carrier)
        eps = F(rng.randint(1, 20), 20)
        return VariationNeighborhood(ground, carrier, ref, eps)
    if family == "interval-belief":
        focal = random_measure(rng, ground, carrier)
        shrink = F(rng.randint(1, 9), 10)
        grow = 1 + F(rng.randint(1, 10), 10)
        lower = tuple(shrink * w for w in focal.weights)
        bump = F(rng.randint(0, 4), 20)
        upper = tuple(
            grow * w + (bump if carrier >> i & 1 else F(0))
            for i, w in enumerate(focal.weights)
        )
        return IntervalBelief(ground, carrier, lower, upper)
    raise ValueError(family)


def random_q(rng: random.Random, ids, denom=10) -> Measure:
    units = [rng.randint(0, denom) for _ in ids]
    if sum(units) == 0:
        units[rng.randrange(len(units))] = 1
    total = sum(units)
    return Measure(GroundSet.of(ids), tuple(F(u, total) for u in units))


def _json_numbers(obj, floats: bool):
    """Exact numbers as "p/q" strings, or as JSON floats when ``floats``."""
    if isinstance(obj, dict):
        return {k: _json_numbers(v, floats) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_numbers(v, floats) for v in obj]
    if isinstance(obj, F):
        obj = str(obj)
    if floats and isinstance(obj, str) and obj[:1].isdigit():
        return float(F(obj))
    return obj


def random_problem_doc(rng: random.Random, floats: bool, labels=LABELS, lo=2, hi=5, max_rules=4):
    """A seeded problem document and a Q over its rules, as JSON objects.

    Half the documents give every rule the same menus, each rule choosing by
    a random preference order, so ``menu-homog`` applies; the others give
    each rule a carrier.  Lambda is synthesized from Q half the time, so Q
    rationalizes it, and drawn at random otherwise.  With ``floats`` every
    number is written as a JSON float.
    """
    from capid.schemas import info_spec_json, measure_json
    from capid.simulate import synth_population

    ground = GroundSet.of(labels[: rng.randint(lo, hi)])
    ids = [f"r{j}" for j in range(rng.randint(2, max_rules))]
    menus = None
    if rng.random() < 0.5:
        menus = [random_carrier(rng, ground, ground.size) for _ in range(rng.randint(2, 4))]
    rules, specs = [], []
    for rid in ids:
        entry = {"id": rid}
        if menus is None:
            carrier = random_carrier(rng, ground, 3)
            entry["carrier"] = list(ground.labels_of(carrier))
        else:
            ranking = rng.sample(ground.labels, ground.size)
            choices = [next(l for l in ranking if ground.singleton(l) & menu) for menu in menus]
            carrier = ground.mask_of(choices)
            entry["menus"] = [list(ground.labels_of(menu)) for menu in menus]
            entry["choices"] = {str(i): c for i, c in enumerate(choices)}
        spec = random_spec(rng, ground, rng.choice(FAMILIES), carrier)
        entry["info_spec"] = {k: v for k, v in info_spec_json(spec).items() if k != "carrier"}
        rules.append(entry)
        specs.append((rid, spec))
    q = random_q(rng, ids)
    if rng.random() < 0.5:
        lam = synth_population(specs, q, rng.randrange(1 << 30)).lam
    else:
        lam = random_measure(rng, ground, random_carrier(rng, ground, ground.size))
    doc = {
        "schema": "capid/1",
        "labels": list(ground.labels),
        "lambda": measure_json(lam),
        "rules": rules,
        "options": {},
    }
    q_doc = {rid: w for rid, w in zip(ids, q.weights)}
    return _json_numbers(doc, floats), _json_numbers(q_doc, floats)


def random_updating_doc(rng: random.Random, lo=2, hi=4) -> dict:
    """A seeded updating document, as a JSON object with exact numbers.

    The grid is consecutive ints with the prior drawn from it, and the
    experiment capacity is a ``random_convex_capacity`` on the recentred grid
    that admits no pure-noise experiment.  Half the documents update a random
    mixture of its core vertices at a bias drawn between the model floor and
    1, so lambda lies on the identified set; the others draw lambda at
    random, mostly off it.  About 30% carry a ``kappa_range`` inside
    [floor, 1].
    """
    from capid.schemas import capacity_json, measure_json
    from capid.updating import ExperimentModel, OddsGrid

    start = rng.randint(-3, 1)
    values = [start + i for i in range(rng.randint(lo, hi))]
    grid = OddsGrid.from_values(tuple(map(F, values)), F(rng.choice(values)))
    while True:
        nu = random_convex_capacity(rng, grid.shifted)
        try:
            model = ExperimentModel(grid, nu)
        except ValidationError:
            continue
        break
    floor = model.kappa_floor

    def bias(step=None):
        return floor + F(rng.randint(0, 8) if step is None else step, 8) * (1 - floor)

    if rng.random() < 0.5:
        verts = core_vertices(nu)
        units = [rng.randint(0, 4) for _ in verts]
        units[rng.randrange(len(units))] += 1
        e = tuple(
            sum(F(u, sum(units)) * v.weights[i] for u, v in zip(units, verts))
            for i in range(grid.shifted.size)
        )
        lam = apply_update_rule(bias(), Measure(grid.shifted, e), grid)
    else:
        lam = random_measure(rng, grid.ground, random_carrier(rng, grid.ground, len(values)), 12)
    doc = {
        "schema": "capid/1",
        "grid": values,
        "prior": int(grid.prior),
        "experiment_capacity": capacity_json(nu),
        "lambda": measure_json(lam),
    }
    if rng.random() < 0.3:
        # the ends may coincide, also at the floor
        doc["kappa_range"] = [bias(step) for step in sorted(rng.choices(range(9), k=2))]
    return _json_numbers(doc, False)
