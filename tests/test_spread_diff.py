"""Differential test: capacities built on the carrier's subsets and spread to
every mask, against the per-mask formulas they replaced.

``build_capacity`` evaluates each parametric family once per subset of the
carrier C and ``Capacity._derived`` shares each value, as the same object,
with every mask K where K & C is that subset.  The oracle evaluates the formula anew at
every mask.  Comparisons are by ``repr``, so an int that became a Fraction,
or a float that moved by one bit, fails them.
"""

import random
from collections import Counter

import gen
from capacity_oracle import literal_build_capacity
from capid import GroundSet, Measure
from capid.capacity import _spread_index, carrier_masks, submasks
from capid.info_specs import (
    Contamination,
    IntervalBelief,
    VariationNeighborhood,
    build_capacity,
)

CASES = 480
LABELS = "abcdefg"
KINDS = ("single", "full", "gapped", "random")

#: Off-carrier bounds and weights this small count as zero in float mode.
TINY = 1e-10


def _gapped(mask: int) -> bool:
    """The carrier's labels are not one run of neighbours."""
    low = mask >> ((mask & -mask).bit_length() - 1)
    return low & (low + 1) != 0


def _carrier(rng: random.Random, ground: GroundSet, kind: str) -> int:
    n = ground.size
    if kind == "single":
        return 1 << rng.randrange(n)
    if kind == "full":
        return ground.full_mask
    while True:
        carrier = gen.random_carrier(rng, ground, n)
        if kind == "random" or _gapped(carrier):
            return carrier


def _off(carrier: int, i: int, value: float) -> float:
    return TINY if not carrier >> i & 1 else value


def _floated(spec, rng: random.Random):
    """The spec with float numbers.  Off-carrier bounds and one off-carrier
    weight become TINY, which validation accepts and the formulas never read;
    some references stay exact under a float epsilon."""
    ground, carrier = spec.ground, spec.carrier
    gap = next((i for i in range(ground.size) if not carrier >> i & 1), None)

    def measure(p):
        if rng.random() < 0.25:
            return p
        weights = [float(w) for w in p.weights]
        if gap is not None:
            weights[gap] = TINY
        return Measure(ground, tuple(weights))

    if isinstance(spec, Contamination):
        return Contamination(ground, carrier, measure(spec.rho_hat), float(spec.epsilon))
    if isinstance(spec, VariationNeighborhood):
        return VariationNeighborhood(ground, carrier, measure(spec.reference), float(spec.epsilon))
    if isinstance(spec, IntervalBelief):
        lower = tuple(_off(carrier, i, float(w)) for i, w in enumerate(spec.lower))
        upper = tuple(_off(carrier, i, float(w)) for i, w in enumerate(spec.upper))
        return IntervalBelief(ground, carrier, lower, upper)
    return spec


def test_carrier_first_capacities_match_the_per_mask_formulas():
    rng = random.Random(20261018)
    seen = Counter()
    for case in range(CASES):
        exact = case % 2 == 0
        kind = KINDS[case // 2 % len(KINDS)]
        lo = 3 if kind == "gapped" else 1
        ground = GroundSet.of(LABELS[: rng.randint(lo, len(LABELS))])
        carrier = _carrier(rng, ground, kind)
        spec = gen.random_spec(rng, ground, rng.choice(gen.FAMILIES), carrier)
        if not exact:
            spec = _floated(spec, rng)

        nu = build_capacity(spec)
        assert repr(nu) == repr(literal_build_capacity(spec))
        values = nu.values
        assert all(values[mask] is values[mask & carrier] for mask in ground.masks())

        seen[spec.tag, exact] += 1
        seen[kind] += 1
        seen["low_labels_only"] += carrier & (carrier + 1) == 0
        seen["float_tiny_bounds"] += (
            isinstance(spec, IntervalBelief) and not exact and TINY in spec.lower
        )
    assert min(seen[family, exact] for family in gen.FAMILIES for exact in (True, False)) >= 40, seen
    assert min(seen[kind] for kind in KINDS) >= 100, seen
    assert seen["float_tiny_bounds"] >= 30, seen
    assert CASES - seen["low_labels_only"] >= 200, seen


def test_spread_is_the_cylindrical_extension():
    # _spread_index maps every mask K to the position of K & carrier
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 7)
        carrier = rng.randint(1, (1 << n) - 1)
        masks = carrier_masks(carrier)
        assert masks == sorted(submasks(carrier))
        where = {mask: t for t, mask in enumerate(masks)}
        index = _spread_index(carrier, n)
        assert index == [where[k & carrier] for k in range(1 << n)]
