"""Seeded cross-module invariants that complement the acceptance batteries."""

import random
from fractions import Fraction as F

import gen
from capacity_oracle import lower_probability
from capid import (
    Capacity,
    GroundSet,
    Measure,
    core_vertices,
    decompose_in_mixture_core,
    is_convex,
)
from helpers import (
    capacity_from_mobius,
    core_contains,
    mixture,
    mobius,
    pushforward,
    pushforward_measure,
)


class TestMixtureLinearity:
    ALPHAS = (F(0), F(1, 4), F(1, 2), F(1))

    def test_vertices_decompose_and_pairs_are_members(self):
        rng = random.Random(90210)
        for _ in range(10):
            n = rng.randint(2, 3)
            ground = GroundSet.of(gen.LABELS[:n])
            nu1 = gen.random_convex_capacity(rng, ground)
            nu2 = gen.random_convex_capacity(rng, ground)
            v1 = core_vertices(nu1)
            v2 = core_vertices(nu2)
            for alpha in self.ALPHAS:
                mixed = mixture([nu1, nu2], [alpha, 1 - alpha])
                for vertex in core_vertices(mixed):
                    parts = decompose_in_mixture_core(
                        vertex, [nu1, nu2], [alpha, 1 - alpha]
                    )
                    assert parts is not None
                    assert core_contains(nu1, parts[0])
                    assert core_contains(nu2, parts[1])
                # containment direction: mixtures of members stay in the core
                for a in v1[:6]:
                    for b in v2[:6]:
                        combo = Measure(
                            ground,
                            tuple(
                                alpha * x + (1 - alpha) * y
                                for x, y in zip(a.weights, b.weights)
                            ),
                        )
                        assert core_contains(mixed, combo)


class TestMobiusRoundTrip:
    def test_exact_round_trip_up_to_eight_labels(self):
        rng = random.Random(424242)
        for n in range(2, 9):
            ground = GroundSet.of(gen.LABELS_BIG[:n])
            nu = gen.random_belief_function(rng, ground)
            # mobius returns the mass tuple; capacity_from_mobius inverts it
            assert capacity_from_mobius(ground, mobius(nu)).values == nu.values


class TestPushforwardConvexity:
    def test_random_convex_pushforwards_stay_convex(self):
        rng = random.Random(171717)
        targets = GroundSet.of("xyz")
        for _ in range(25):
            n = rng.randint(2, 4)
            source = GroundSet.of(gen.LABELS[:n])
            psi = gen.random_convex_capacity(rng, source)
            mapping = {l: rng.choice(targets.labels) for l in source.labels}
            nu = pushforward(psi, mapping, targets)
            assert is_convex(nu)
            images = [pushforward_measure(v, mapping, targets) for v in core_vertices(psi)]
            assert lower_probability(images, targets).values == nu.values


class TestFloatMode:
    def test_float_capacity_operations(self):
        ground = GroundSet.of("ab")
        nu = Capacity(ground, (0.0, 0.25, 0.25, 1.0))
        assert nu.tol
        assert is_convex(nu)
        vs = core_vertices(nu)
        assert len(vs) == 2
        for v in vs:
            assert core_contains(nu, v)

    def test_float_tolerance_absorbs_jitter(self):
        ground = GroundSet.of("ab")
        nu = Capacity(ground, (0.0, 0.25, 0.25 - 1e-12, 1.0 + 1e-12))
        p = Measure(ground, (0.25 - 5e-10, 0.75 + 5e-10))
        assert core_contains(nu, p)

    def test_float_decomposition(self):
        ground = GroundSet.of("ab")
        nu1 = Capacity(ground, (0.0, 0.25, 0.25, 1.0))
        nu2 = Capacity(ground, (0.0, 0.5, 0.5, 1.0))
        mixed = mixture([nu1, nu2], [0.5, 0.5])
        target = core_vertices(mixed)[0]
        parts = decompose_in_mixture_core(target, [nu1, nu2], [0.5, 0.5])
        assert parts is not None
        for nu, part in zip((nu1, nu2), parts):
            assert core_contains(nu, part)
        for i in range(2):
            assert abs(
                0.5 * parts[0].weights[i] + 0.5 * parts[1].weights[i] - target.weights[i]
            ) <= 1e-9
