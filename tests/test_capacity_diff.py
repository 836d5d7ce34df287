"""Differential tests: the closed forms in the capacity layer against the
literal definitions in ``capacity_oracle``.

Capacities are drawn from a seeded generator on up to six labels, with and
without a carrier, convex and not, in exact rationals and in floats on a
1/256 grid (their sums are exact and every violation is at least 1/256, so
the float tolerance never decides a verdict).
"""

import math
import random
from fractions import Fraction as F

import pytest

import gen
from capacity_oracle import (
    brute_force_convex,
    inclusion_exclusion,
    subset_sums,
    valid_capacity,
    vertex_kappa_facts,
)
from capid import Capacity, GroundSet, ValidationError, capacity_from_mobius, mobius
from capid.capacity import _moebius, carrier_masks, is_belief_function, is_convex
from capid.updating import ExperimentModel, OddsGrid

LABELS = "abcdef"


def spread(values_on_carrier, carrier, n):
    """Cylindrical values: nu(K) = g(K & C), with g indexed like carrier_masks."""
    index = {mask: t for t, mask in enumerate(carrier_masks(carrier))}
    return [values_on_carrier[index[mask & carrier]] for mask in range(1 << n)]


def random_values_on(rng, k, kind):
    """A normalized monotone set function on k labels, indexed by bitmask.

    ``belief``: nonnegative Moebius masses, hence convex.  ``monotone``:
    random nonnegative increments along a greedy build, usually not convex.
    ``perturbed``: a belief function with one value nudged, convex or not and
    sometimes no longer monotone (those draws are skipped).
    """
    size = 1 << k
    if kind in ("belief", "perturbed"):
        units = [0] + [rng.randint(0, 4) if rng.random() < 0.6 else 0 for _ in range(size - 1)]
        if sum(units) == 0:
            units[-1] = 1
        values = subset_sums([F(u, sum(units)) for u in units], k)
        if kind == "perturbed" and size > 2:
            mask = rng.randrange(1, size - 1)
            values[mask] += F(rng.choice((-1, 1)), rng.choice((8, 16, 32)))
        return values
    values = [F(0)] * size
    for mask in range(1, size):
        floor = max(values[mask & ~(1 << i)] for i in range(k) if mask >> i & 1)
        values[mask] = floor + F(rng.randint(0, 3))
    if values[-1] == 0:
        values[-1] = F(1)
    return [v / values[-1] for v in values]


def random_capacity(rng):
    """(ground, values, carrier) for a draw that may or may not be valid."""
    n = rng.randint(1, 6)
    ground = GroundSet.of(LABELS[:n])
    carrier = None
    if rng.random() < 0.5:
        carrier = rng.randint(1, ground.full_mask)
    active = ground.full_mask if carrier is None else carrier
    kind = rng.choice(("belief", "monotone", "perturbed"))
    values = spread(random_values_on(rng, active.bit_count(), kind), active, n)
    if rng.random() < 0.25:
        # rounding down keeps the boundary values, monotonicity and carrier
        values = [math.floor(v * 256) / 256 for v in values]
    return ground, values, carrier


class TestConvexity:
    def test_local_matches_pairwise(self):
        rng = random.Random(20161)
        verdicts = {True: 0, False: 0}
        carriers = floats = 0
        for _ in range(400):
            ground, values, carrier = random_capacity(rng)
            try:
                nu = Capacity(ground, tuple(values), carrier)
            except ValidationError:
                continue
            expected = brute_force_convex(nu)
            assert is_convex(nu) == expected, (ground.labels, values, carrier)
            verdicts[expected] += 1
            carriers += carrier is not None
            floats += isinstance(values[0], float)
        assert verdicts[True] >= 100 and verdicts[False] >= 50
        assert carriers >= 100 and floats >= 50


class TestMoebius:
    def test_transform_matches_inclusion_exclusion(self):
        rng = random.Random(1992)
        for _ in range(120):
            n = rng.randint(0, 6)
            values = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(1 << n)]
            mass = inclusion_exclusion(values, n)
            assert _moebius(list(values), n, -1) == mass
            assert _moebius(list(mass), n, 1) == values
            assert subset_sums(mass, n) == values

    def test_capacity_masses_and_round_trip(self):
        rng = random.Random(7331)
        belief = 0
        for _ in range(300):
            ground, values, carrier = random_capacity(rng)
            values = [F(v) for v in values]
            try:
                nu = Capacity(ground, tuple(values), carrier)
            except ValidationError:
                continue
            mass = inclusion_exclusion(values, ground.size)
            assert mobius(nu) == tuple(mass)
            assert capacity_from_mobius(ground, mass, carrier).values == nu.values
            expected = all(m >= 0 for m in mass)
            assert is_belief_function(nu) == expected
            belief += expected
        assert belief >= 50

    def test_wrong_length_mass_vector(self):
        with pytest.raises(ValidationError):
            capacity_from_mobius(GroundSet.of("ab"), [F(0), F(1)])


class TestValidation:
    def test_constructor_matches_axioms(self):
        rng = random.Random(4242)
        outcomes = {True: 0, False: 0}
        for _ in range(400):
            ground, values, carrier = random_capacity(rng)
            values = [F(v) for v in values]
            if rng.random() < 0.5 and ground.size > 1:
                # break one value: sometimes monotonicity, sometimes constancy
                mask = rng.randrange(1, ground.full_mask)
                values[mask] += F(rng.choice((-1, 1)), rng.choice((2, 4, 8)))
            expected = valid_capacity(ground, values, carrier)
            try:
                Capacity(ground, tuple(values), carrier)
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == expected, (ground.labels, values, carrier)
            outcomes[expected] += 1
        assert outcomes[True] >= 100 and outcomes[False] >= 100

    def test_non_monotone_on_carrier_raises(self):
        ground = GroundSet.of("abcd")
        carrier = ground.mask_of("abc")
        # on the carrier nu(a) = 1/2 drops to nu(a,b) = 1/4
        on_carrier = [F(0), F(1, 2), F(0), F(1, 4), F(0), F(1, 2), F(0), F(1)]
        values = spread(on_carrier, carrier, 4)
        with pytest.raises(ValidationError, match="not monotone at a \\+ 'b'"):
            Capacity(ground, tuple(values), carrier)

    def test_not_constant_off_carrier_raises(self):
        ground = GroundSet.of("abc")
        carrier = ground.mask_of("ab")
        on_carrier = [F(0), F(1, 4), F(1, 4), F(1)]
        values = spread(on_carrier, carrier, 3)
        values[ground.mask_of("ac")] = F(1, 2)  # differs from nu(a)
        with pytest.raises(ValidationError, match="constant across its carrier"):
            Capacity(ground, tuple(values), carrier)
        # the same jump is also a failure of monotonicity off the carrier
        values[ground.mask_of("ac")] = F(0)
        with pytest.raises(ValidationError):
            Capacity(ground, tuple(values), carrier)


class TestExperimentModelClosedForms:
    def test_floor_and_rejection_match_vertex_walk(self):
        rng = random.Random(1414)
        rejected = accepted = 0
        for _ in range(320):
            size = rng.randint(2, 5)
            center = rng.randrange(size)
            grid = OddsGrid.from_values(tuple(F(i - center) for i in range(size)), F(0))
            zero = 1 << grid.null_signal_index
            if rng.random() < 0.3:
                # every focal set holds the null signal: pure noise is admissible
                units = [rng.randint(0, 3) if mask & zero else 0 for mask in grid.shifted.masks()]
                if sum(units) == 0:
                    units[-1] = 1
                nu = capacity_from_mobius(grid.shifted, [F(u, sum(units)) for u in units])
            else:
                nu = gen.random_convex_capacity(rng, grid.shifted)
            pure_noise, floor = vertex_kappa_facts(grid, nu)
            if pure_noise:
                with pytest.raises(ValidationError, match="pure noise"):
                    ExperimentModel(grid, nu)
                rejected += 1
            else:
                model = ExperimentModel(grid, nu)
                assert model.kappa_floor == floor
                assert isinstance(model.kappa_floor, F)
                accepted += 1
        assert rejected >= 50 and accepted >= 150

    def test_null_signal_off_the_carrier(self):
        grid = OddsGrid.from_values((F(-1), F(0), F(1)), F(0))
        shifted = grid.shifted
        carrier = shifted.full_mask & ~(1 << grid.null_signal_index)
        values = spread([F(0), F(1, 2), F(1, 2), F(1)], carrier, 3)
        model = ExperimentModel(grid, Capacity(shifted, tuple(values), carrier))
        assert vertex_kappa_facts(grid, model.nu) == (False, 0)
        assert model.kappa_floor == 0 and isinstance(model.kappa_floor, F)
