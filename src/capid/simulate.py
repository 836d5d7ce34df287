"""Seeded synthetic populations.

The generator doubles as an independent oracle: a population synthesized from
known per-rule choice distributions is rationalizable by its own mixing
weights by construction, which pins down the soundness direction of the
identification engine without reusing any of its code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .capacity import Measure, core_vertices
from .errors import ValidationError
from .identification import distinct_rule_ids
from .info_specs import InfoSpec, build_capacity
from .numeric import in_mode

PRNG_ID = "python-random-mersenne-twister"


class SynthResult(NamedTuple):
    lam: Measure
    rho_by_rule: dict[str, Measure]
    metadata: dict


def synth_population(
    specs: Sequence[tuple[str, InfoSpec]], q: Measure, seed: int
) -> SynthResult:
    """Draw one admissible choice distribution per rule and mix them.

    Each rho_d is a seeded random rational mixture of the core vertices of
    the rule's capacity, so the returned data is rationalized by ``q`` by
    construction; every rho_d is rounded once to doubles when q or any
    rule's capacity holds one.  The metadata records the PRNG so runs are
    reproducible.
    """
    if set(q.ground.labels) != set(distinct_rule_ids([rule_id for rule_id, _ in specs])):
        raise ValidationError("Q is not a measure over the given rules")
    rng = random.Random(seed)
    ground = specs[0][1].ground
    if any(spec.ground != ground for _, spec in specs):
        raise ValidationError("specifications live on different ground sets")
    capacities = [build_capacity(spec) for _, spec in specs]
    tol = max(q.tol, *(nu.tol for nu in capacities))
    rho_by_rule: dict[str, Measure] = {}
    lam_weights = [Fraction(0)] * ground.size
    for (rule_id, spec), nu in zip(specs, capacities):
        vertices = core_vertices(nu)
        units = [rng.randint(0, 20) for _ in vertices]
        if sum(units) == 0:
            units[rng.randrange(len(units))] = 1
        total = sum(units)
        weights = [Fraction(0)] * ground.size
        for u, vertex in zip(units, vertices):
            share = Fraction(u, total)
            for i, w in enumerate(vertex.weights):
                weights[i] += share * w
        rho = Measure(ground, tuple(in_mode(w, tol) for w in weights), spec.carrier)
        rho_by_rule[rule_id] = rho
        qd = q.weight(rule_id)
        for i, w in enumerate(rho.weights):
            lam_weights[i] += qd * w
    lam = Measure(ground, tuple(lam_weights))
    metadata = {"prng": PRNG_ID, "seed": seed, "weight_resolution": 20}
    return SynthResult(lam, rho_by_rule, metadata)
