"""Rule constructors and seeded synthetic populations.

These generators double as independent oracles: a population synthesized from
known per-rule choice distributions is rationalizable by its own mixing
weights by construction, which pins down the soundness direction of the
identification engine without reusing any of its code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .capacity import Label, Measure, core_vertices
from .errors import ValidationError
from .identification import DecisionRule, MenuCollection
from .info_specs import InfoSpec, build_capacity

PRNG_ID = "python-random-mersenne-twister"


class PreferenceOrder:
    """Strict ranking over all alternatives, best first."""

    def __init__(self, ranking: tuple[Label, ...]) -> None:
        self.ranking = ranking

    def name(self) -> str:
        return "pref:" + ">".join(str(l) for l in self.ranking)


def rules_from_preferences(
    orders: Sequence[PreferenceOrder], collection: MenuCollection
) -> list[DecisionRule]:
    """Maximizers: each rule picks its highest-ranked member of every menu."""
    ground = collection.ground
    out = []
    for order in orders:
        if set(order.ranking) != set(ground.labels):
            raise ValidationError("ranking must be a permutation of the ground set")
        choices = []
        for menu in collection.menus:
            best = next(l for l in order.ranking if ground.singleton(l) & menu)
            choices.append(best)
        out.append(DecisionRule(order.name(), tuple(choices)))
    return out


class SynthResult:
    def __init__(self, lam: Measure, rho_by_rule: dict[str, Measure], metadata: dict) -> None:
        self.lam = lam
        self.rho_by_rule = rho_by_rule
        self.metadata = metadata


def synth_population(
    rules: Sequence,
    specs: Sequence[InfoSpec],
    q: Measure,
    seed: int,
) -> SynthResult:
    """Draw one admissible choice distribution per rule and mix them.

    ``rules`` may be DecisionRule objects or bare rule ids.  Each rho_d is a
    seeded random rational mixture of the core vertices of the rule's
    capacity, so the returned data is rationalized by ``q`` by construction.
    The metadata records the PRNG so runs are reproducible.
    """
    rule_ids = [r.rule_id if isinstance(r, DecisionRule) else r for r in rules]
    if len(rule_ids) != len(specs):
        raise ValidationError("rule ids and specifications must align")
    if set(q.ground.labels) != set(rule_ids):
        raise ValidationError("Q is not a measure over the given rules")
    rng = random.Random(seed)
    ground = specs[0].ground
    rho_by_rule: dict[str, Measure] = {}
    lam_weights = [Fraction(0)] * ground.size
    for rule_id, spec in zip(rule_ids, specs):
        if spec.ground != ground:
            raise ValidationError("specifications live on different ground sets")
        vertices = core_vertices(build_capacity(spec))
        units = [rng.randint(0, 20) for _ in vertices]
        if sum(units) == 0:
            units[rng.randrange(len(units))] = 1
        total = sum(units)
        weights = [Fraction(0)] * ground.size
        for u, vertex in zip(units, vertices):
            share = Fraction(u, total)
            for i, w in enumerate(vertex.weights):
                weights[i] += share * w
        rho = Measure(ground, tuple(weights), spec.carrier)
        rho_by_rule[rule_id] = rho
        qd = q.weight(rule_id)
        for i, w in enumerate(rho.weights):
            lam_weights[i] += qd * w
    lam = Measure(ground, tuple(lam_weights))
    metadata = {"prng": PRNG_ID, "seed": seed, "weight_resolution": 20}
    return SynthResult(lam, rho_by_rule, metadata)
