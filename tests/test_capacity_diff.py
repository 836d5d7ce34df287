"""Differential tests: the closed forms in the capacity layer against the
literal definitions in ``capacity_oracle``.

Capacities are drawn from a seeded generator on up to six labels, with and
without a carrier, convex and not, in exact rationals and in floats on a
1/256 grid (their sums are exact and every violation is at least 1/256, so
the float tolerance never decides a verdict).
"""

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import gen
from capacity_oracle import (
    brute_force_convex,
    float_scan_belief,
    float_scan_convex,
    float_scan_monotone,
    inclusion_exclusion,
    literal_core_vertices,
    literal_from_measure,
    quadratic_dedupe_measures,
    subset_sums,
    valid_capacity,
    vertex_kappa_facts,
)
from capid import (
    Capacity,
    GroundSet,
    Measure,
    NotConvexError,
    SizeLimitError,
    ValidationError,
    capacity,
    core_vertices,
    decompose_in_mixture_core,
)
from capid.capacity import (
    _merge_close, _moebius, carrier_masks, is_belief_function, is_convex,
)
from capid.numeric import FLOAT_TOL
from capid.updating import ExperimentModel, OddsGrid
from helpers import capacity_from_mobius, zeta

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
            assert _moebius(list(values), n) == mass
            assert zeta(mass, n) == values
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
            assert _moebius(list(nu.values), ground.size) == mass
            assert capacity_from_mobius(ground, mass, carrier).values == nu.values
            expected = all(m >= 0 for m in mass)
            assert is_belief_function(nu) == expected
            belief += expected
        assert belief >= 50

    def test_wrong_length_mass_vector(self):
        with pytest.raises(ValidationError):
            capacity_from_mobius(GroundSet.of("ab"), [F(0), F(1)])


def random_convex_capacity(rng, kind):
    """A belief function on up to six labels, with or without a carrier.

    ``belief``: random focal sets.  ``blocks``: the carrier cut into disjoint
    focal blocks, so many orderings share a vertex.  ``strict``: mass on every
    pair as well, which makes the capacity strictly supermodular and every
    ordering's vertex distinct.  A quarter are floats: the masses are counted
    in units that total a power of two, so every value is exact in binary.
    """
    n = rng.randint(1, 6)
    ground = GroundSet.of(LABELS[:n])
    carrier = rng.randint(1, ground.full_mask) if rng.random() < 0.5 else None
    active = ground.full_mask if carrier is None else carrier
    bits = [1 << i for i in range(n) if active >> i & 1]
    units = [0] * (1 << n)
    top = active
    if kind == "blocks":
        rng.shuffle(bits)
        cuts = sorted(rng.sample(range(1, len(bits)), rng.randint(0, len(bits) - 1)))
        for lo, hi in zip([0] + cuts, cuts + [len(bits)]):
            top = sum(bits[lo:hi])
            units[top] = rng.randint(1, 4)
    else:
        for mask in carrier_masks(active)[1:]:
            if rng.random() < 0.4:
                units[mask] = rng.randint(1, 4)
        if kind == "strict":
            for a, bit in enumerate(bits):
                for other in bits[a + 1:]:
                    units[bit | other] += rng.randint(1, 3)
    total = 1 << max(sum(units), 1).bit_length()
    units[top] += total - sum(units)
    scale = 1.0 / total if rng.random() < 0.25 else F(1, total)
    return capacity_from_mobius(ground, [u * scale for u in units], carrier)


def identity_order_vertex(nu):
    """The marginal vector of the labels taken in ascending order."""
    weights = [0] * nu.ground.size
    prefix = 0
    for i in range(nu.ground.size):
        if nu.active >> i & 1:
            weights[i] = nu.values[prefix | 1 << i] - nu.values[prefix]
            prefix |= 1 << i
    return tuple(weights)


def typed(weights):
    return [(type(w), w) for w in weights]


class TestCoreVertices:
    def test_prefix_sets_match_ordering_walk(self):
        rng = random.Random(1971)
        kinds = {"belief": 0, "blocks": 0, "strict": 0}
        carriers = floats = shared = 0
        for _ in range(420):
            kind = rng.choice(tuple(kinds))
            nu = random_convex_capacity(rng, kind)
            expected = literal_core_vertices(nu)
            got = core_vertices(nu)
            assert [typed(v.weights) for v in got] == [typed(v.weights) for v in expected]
            assert all(v.carrier == nu.active for v in got)
            assert got[0].weights == identity_order_vertex(nu)
            kinds[kind] += 1
            carriers += nu.carrier is not None
            floats += bool(nu.tol)
            orderings = math.factorial(nu.active.bit_count())
            if kind == "strict":
                assert len(got) == orderings
            shared += len(got) < orderings
        assert min(kinds.values()) >= 100
        assert carriers >= 150 and floats >= 60 and shared >= 100

    def test_not_convex_raises_like_the_walk(self):
        rng = random.Random(1972)
        rejected = 0
        for _ in range(200):
            ground, values, carrier = random_capacity(rng)
            try:
                nu = Capacity(ground, tuple(values), carrier)
            except ValidationError:
                continue
            if is_convex(nu):
                continue
            for enumerate_vertices in (literal_core_vertices, core_vertices):
                with pytest.raises(NotConvexError):
                    enumerate_vertices(nu)
            rejected += 1
        assert rejected >= 30

    @pytest.mark.parametrize("blocks", [None, (1, 1, 1, 1, 1), (2, 3), (1, 4), (5,)])
    def test_candidates_are_counted_against_the_cap(self, monkeypatch, blocks):
        # A candidate is a tail of T = S + i extended by i, so there are |T|
        # times |tails(T)| of them per T.  On a strictly supermodular capacity
        # (blocks=None) every tail is distinct, (5 - |T|)! of them.  When the
        # focal sets are disjoint blocks, a block's mass goes to its last label
        # in the ordering, so a tail has one choice per label of each block
        # that T leaves unfinished.
        ground = GroundSet.of(LABELS[:5])
        if blocks is None:
            nu = Capacity(ground, tuple(F(m.bit_count() ** 2, 25) for m in ground.masks()))
        else:
            block_masks = [((1 << size) - 1) << sum(blocks[:b]) for b, size in enumerate(blocks)]
            mass = [F(0)] * 32
            for block in block_masks:
                mass[block] = F(1, len(blocks))
            nu = capacity_from_mobius(ground, mass)
        count = 0
        for held in range(1, 32):
            if blocks is None:
                tails = math.factorial(5 - held.bit_count())
            else:
                tails = math.prod(max((b & ~held).bit_count(), 1) for b in block_masks)
            count += held.bit_count() * tails
        monkeypatch.setattr(capacity, "MAX_CORE_CANDIDATES", count)
        assert len(core_vertices(nu)) == len(literal_core_vertices(nu))
        monkeypatch.setattr(capacity, "MAX_CORE_CANDIDATES", count - 1)
        with pytest.raises(SizeLimitError):
            core_vertices(nu)

    def test_zero_weight_component_gets_the_first_vertex(self):
        rng = random.Random(1973)
        for _ in range(60):
            nu = random_convex_capacity(rng, rng.choice(("belief", "blocks", "strict")))
            p = literal_core_vertices(nu)[0]
            parts = decompose_in_mixture_core(p, [nu, nu], [F(1), F(0)])
            assert typed(parts[1].weights) == typed(p.weights) and parts[1].carrier == p.carrier
        # nine labels whose orderings all give distinct vertices: past the cap
        # for core_vertices, but one vertex is all a zero-weight part needs
        ground = GroundSet.of([f"x{i}" for i in range(9)])
        strict = Capacity(ground, tuple(F(m.bit_count() ** 2, 81) for m in ground.masks()))
        p = Measure.point(ground, "x0")
        parts = decompose_in_mixture_core(p, [literal_from_measure(p), strict], [F(1), F(0)])
        assert parts[1].weights == identity_order_vertex(strict)

    def test_equal_exact_and_float_vectors_are_one_vertex(self):
        # values that mix Fractions and floats: the orderings a,b and b,a give
        # (1/2, 1/2) once exactly and once in floats, one vertex, which the
        # walk lists with the exact weights it meets first
        nu = Capacity(GroundSet.of("ab"), (F(0), F(1, 2), 0.5, F(1)))
        expected = literal_core_vertices(nu)
        assert len(expected) == 1
        assert [typed(v.weights) for v in core_vertices(nu)] == [
            typed(v.weights) for v in expected
        ]

    def test_float_dedupe_matches_the_quadratic_loop(self):
        # copies of a few base vectors, moved on random weights by offsets on
        # both sides of FLOAT_TOL; some bases sit on a 1e-6 cell boundary,
        # and some keep a Fraction weight
        rng = random.Random(1974)
        offsets = (0.0, 1e-16, -1e-16, 9.9e-10, -9.9e-10, 1.01e-9, -1.01e-9, 2e-9, 1e-7)
        merged = near = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            ground = GroundSet.of(LABELS[:n])
            bases = [
                [
                    rng.choice((0.0, 0.5, F(1, 3), (rng.randrange(10) + 0.5) * 1e-6, rng.random()))
                    for _ in range(n)
                ]
                for _ in range(rng.randint(1, 4))
            ]
            measures = []
            for _ in range(rng.randint(1, 40)):
                weights = list(rng.choice(bases))
                for i in rng.sample(range(n), rng.randint(0, n)):
                    weights[i] += rng.choice(offsets)
                measures.append(Measure._derived(ground, tuple(weights)))
            got = _merge_close([m.weights for m in measures])
            assert [id(v) for v in got] == [
                id(m.weights) for m in quadratic_dedupe_measures(measures)
            ]
            merged += len(got) < len(measures)
            near += any(
                a is not b and a != b
                and all(abs(x - y) <= 1e-7 for x, y in zip(a, b))
                for a in got for b in got
            )
        assert merged >= 200 and near >= 100


class TestFloatScans:
    """Float capacities decide monotonicity, convexity and the belief test
    on the floats' exact binary values, with the tolerance as one int shift.
    Away from the 1e-9 edge that is what the float scans decided; within an
    ulp of it the exact values decide."""

    def test_match_the_float_scans_away_from_the_edge(self):
        # a belief function in floats, one carrier value nudged by an offset
        # on either side of the tolerance: its many tight inequalities then
        # hold, hold within the tolerance, or fail by more than it
        rng = random.Random(20261019)
        seen = Counter()
        offsets = (-3e-9, -1.5e-9, -5e-10, 5e-10, 1.5e-9, 3e-9)
        for _ in range(500):
            n = rng.randint(2, 5)
            ground = GroundSet.of(LABELS[:n])
            carrier = rng.randint(1, ground.full_mask) if rng.random() < 0.5 else None
            active = ground.full_mask if carrier is None else carrier
            k = active.bit_count()
            if k < 2:
                continue
            on_carrier = [float(v) for v in random_values_on(rng, k, "belief")]
            on_carrier[rng.randrange(1, (1 << k) - 1)] += rng.choice(offsets)
            values = tuple(spread(on_carrier, active, n))
            first = float_scan_monotone(ground, values, carrier)
            try:
                nu = Capacity(ground, values, carrier)
            except ValidationError as exc:
                mask, i = first
                assert str(exc) == (
                    f"capacity not monotone at {ground.subset_key(mask)} + {ground.labels[i]!r}"
                )
                seen["not_monotone"] += 1
                continue
            assert first is None
            verdicts = (is_convex(nu), is_belief_function(nu))
            assert verdicts == (float_scan_convex(nu), float_scan_belief(nu))
            seen[verdicts] += 1
        assert seen["not_monotone"] >= 50 and seen[True, True] >= 50, seen
        assert seen[False, False] >= 50 and seen[True, False] >= 10, seen

    def test_monotone_one_ulp_around_the_edge(self):
        # nu(x, y) against nu(x) = 0.5: the float nearest 0.5 - 1e-9 lies
        # below it, so it fails as the float below it does; the float scan
        # rounded 0.5 - 1e-9 to that same float and accepted it
        ground = GroundSet.of("xyz")
        edge = 0.5 - FLOAT_TOL
        assert F(edge) < F(0.5) - F(FLOAT_TOL)
        for value, monotone in (
            (math.nextafter(edge, 0), False), (edge, False), (math.nextafter(edge, 1), True),
        ):
            values = (0.0, 0.5, 0.0, value, 0.0, 0.5, 0.0, 1.0)
            assert monotone == (F(value) >= F(0.5) - F(FLOAT_TOL))
            assert (float_scan_monotone(ground, values, None) is None) == (value >= edge)
            if monotone:
                Capacity(ground, values)
            else:
                with pytest.raises(ValidationError, match="not monotone at x \\+ 'y'"):
                    Capacity(ground, values)

    def test_convex_and_belief_one_ulp_around_the_edge(self):
        # on two labels both tests ask whether nu(x) + nu(y) is at most
        # 1 + 1e-9; with nu(x) = 0.5 the float nearest 0.5 + 1e-9 lies below
        # that edge, so it passes and the float above it fails.  The float
        # scans rounded their sums differently and split on that float.
        ground = GroundSet.of("xy")
        edge = float(F(0.5) + F(FLOAT_TOL))
        assert F(edge) < F(0.5) + F(FLOAT_TOL)
        for value, convex, float_scans in (
            (math.nextafter(edge, 0), True, (True, True)),
            (edge, True, (True, True)),
            (math.nextafter(edge, 1), False, (True, False)),
        ):
            nu = Capacity(ground, (0.0, 0.5, value, 1.0))
            assert convex == (F(0.5) + F(value) - F(FLOAT_TOL) <= 1)
            assert is_convex(nu) == is_belief_function(nu) == convex
            assert (float_scan_convex(nu), float_scan_belief(nu)) == float_scans


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
