"""Differential tests: the parse-time validation checks, which decide on int
numerators with the tolerance as one int shift, against the checks on the
values themselves that they replaced (``oracle.float_*``).

Seeded documents from ``gen`` are parsed in both modes, and their measures,
interval-belief bounds, mixture weights and capacities are nudged by offsets
on either side of the 1e-9 tolerance; there every verdict and message is the
old one.  Within an ulp of the edge the exact values decide.  The old checks
decided the same way on every edge but one: ``upper >= lower - tol`` rounded
``lower - tol``, so an interval belief whose upper bound is the float nearest
that edge from below is now refused.
"""

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import gen
import oracle
from capid import Capacity, GroundSet, Measure, ValidationError, schemas
from capid.capacity import carrier_masks, decompose_in_mixture_core
from capid.info_specs import Contamination, IntervalBelief, PointMass, VariationNeighborhood
from capid.numeric import FLOAT_TOL
from capid.updating import ExperimentModel, OddsGrid

TOL = F(FLOAT_TOL)
OFFSETS = (-3e-9, -1.5e-9, -5e-10, 5e-10, 1.5e-9, 3e-9)


def _error(build):
    """The ValidationError message ``build()`` raises, or None."""
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return None


def _offset(rng, exact):
    off = rng.choice(OFFSETS)
    return F(off).limit_denominator(10**10) if exact else off


def _documents(count, seed):
    """(exact, ground, measures, interval beliefs, capacities) of seeded
    problem documents, half of them in float mode."""
    rng = random.Random(seed)
    for case in range(count):
        exact = case % 2 == 0
        doc, q_doc = gen.random_problem_doc(rng, not exact)
        problem = schemas.parse_problem(doc, exact).problem
        ground = problem.ground
        measures = [problem.data, schemas.parse_q(q_doc, problem, exact)]
        beliefs = []
        for entry, rule in zip(doc["rules"], problem.rules):
            spec = schemas.parse_info_spec(entry["info_spec"], ground, rule.spec.carrier, exact)
            if isinstance(spec, Contamination):
                measures.append(spec.rho_hat)
            elif isinstance(spec, VariationNeighborhood):
                measures.append(spec.reference)
            elif isinstance(spec, PointMass):
                measures.append(spec.rho)
            elif isinstance(spec, IntervalBelief):
                beliefs.append(spec)
        yield exact, ground, measures, beliefs, [r.capacity for r in problem.rules]


class TestSeededDocuments:
    def test_measures_match_the_float_checks(self):
        rng = random.Random(5150)
        seen = Counter()
        for exact, _, measures, _, _ in _documents(120, 5151):
            for m in measures:
                for _ in range(4):
                    weights = list(m.weights)
                    i = rng.randrange(len(weights))
                    off = _offset(rng, exact)
                    weights[i] += off
                    if rng.random() < 0.7:
                        # keep the total: move the offset off another label
                        weights[(i + 1) % len(weights)] -= off
                    weights = tuple(weights)
                    want = oracle.float_measure_error(m.ground, weights, m.carrier)
                    got = _error(lambda: Measure(m.ground, weights, m.carrier))
                    assert got == want, (weights, m.carrier)
                    seen[want and want.split(" ")[0], exact] += 1
                    if got is None:
                        p = Measure(m.ground, weights, m.carrier)
                        assert p.support() == oracle.float_support(weights)
                assert m.support() == oracle.float_support(m.weights)
        for exact in (True, False):
            for kind in (None, "negative", "weights", "measure"):
                assert seen[kind, exact] >= 30, seen

    def test_interval_beliefs_match_the_float_checks(self):
        rng = random.Random(5252)
        seen = Counter()
        beliefs = [(exact, b) for exact, _, _, bs, _ in _documents(300, 5253) for b in bs]
        for exact, spec in beliefs:
            for _ in range(8):
                bounds = [list(spec.lower), list(spec.upper)]
                side = bounds[rng.randrange(2)]
                side[rng.randrange(len(side))] += _offset(rng, exact)
                lower, upper = map(tuple, bounds)
                want = oracle.float_interval_belief_error(spec.carrier, lower, upper)
                got = _error(lambda: IntervalBelief(spec.ground, spec.carrier, lower, upper))
                assert got == want, (lower, upper, spec.carrier)
                seen[want and want.split(" ")[0], exact] += 1
        for exact in (True, False):
            for kind in (None, "lower", "upper", "bounds"):
                assert seen[kind, exact] >= 10, seen

    def test_capacities_match_the_float_checks(self):
        rng = random.Random(5354)
        seen = Counter()
        for exact, ground, _, _, capacities in _documents(120, 5355):
            for nu in capacities:
                carrier = nu.carrier
                off_carrier = [mask for mask in ground.masks() if mask & ~nu.active]
                for _ in range(4):
                    values = list(nu.values)
                    where = rng.choice((0, -1, None) if off_carrier else (0, -1))
                    mask = rng.choice(off_carrier) if where is None else where
                    values[mask] += _offset(rng, exact)
                    values = tuple(values)
                    got = _error(lambda: Capacity(ground, values, carrier))
                    # a nudge within the tolerance keeps the capacity monotone,
                    # and the monotonicity scan reads only the carrier's subsets
                    want = oracle.float_capacity_boundary_error(values)
                    if want is None and not oracle.float_carried_by(values, nu.active):
                        want = "capacity is not constant across its carrier"
                    assert got == want, (values, carrier)
                    seen[want and want.split(" ")[-1], exact] += 1
        # in exact mode every nudge is refused
        assert seen[None, False] >= 20, seen
        for exact in (True, False):
            for kind in ("0", "1", "carrier"):
                assert seen[kind, exact] >= 20, seen

    def test_mixture_weights_match_the_float_checks(self):
        rng = random.Random(5456)
        ground = GroundSet.of("ab")
        point = Measure(ground, (F(1, 2), F(1, 2)))
        both = Capacity(ground, (F(0), F(0), F(0), F(1)))
        seen = Counter()
        for exact, _, measures, _, _ in _documents(60, 5457):
            for m in measures:
                nudged = list(m.weights)
                nudged[rng.randrange(len(nudged))] += _offset(rng, exact)
                for weights in (m.weights, nudged):
                    want = oracle.float_mixture_weights_ok(weights)
                    components = [both] * len(weights)
                    got = _error(lambda: decompose_in_mixture_core(point, components, weights))
                    assert (got is None) == want, weights
                    seen[want, exact] += 1
        assert min(seen.values()) >= 20 and len(seen) == 4, seen

    def test_pure_noise_matches_the_float_check(self):
        rng = random.Random(5558)
        seen = Counter()
        for case in range(200):
            exact = case % 2 == 0
            doc = gen.random_updating_doc(rng)
            grid, model, _, _ = schemas.parse_updating(doc, exact)
            values = list(model.nu.values)
            signal = grid.shifted.full_mask & ~(1 << grid.null_signal_index)
            # move all of the informative signals' mass within about 1e-9 of 0
            drop = values[signal] - rng.choice((2e-9, 1e-9, 5e-10, 0.0))
            if exact:
                drop = F(drop).limit_denominator(10**10)
            for mask in carrier_masks(signal):
                values[mask] = max(values[mask] - drop, 0 * drop)
            nu = Capacity(grid.shifted, tuple(values))
            got = _error(lambda: ExperimentModel(grid, nu))
            if got is not None and "pure noise" not in got:
                continue
            assert (got is not None) == oracle.float_pure_noise(grid, nu), values
            seen[got is not None, exact] += 1
        assert min(seen.values()) >= 20 and len(seen) == 4, seen


def _around(edge):
    """The float below ``edge``, ``edge`` and the float above it."""
    return math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)


class TestOneUlpAroundTheEdge:
    """At each edge the float nearest it and its two neighbours: the checks
    decide on the floats' exact values, as exact arithmetic does."""

    def test_negative_weight_and_mass_off_the_carrier(self):
        ground = GroundSet.of("abc")
        carrier = ground.mask_of("ab")
        for w in _around(-FLOAT_TOL):
            weights = (0.5, 0.5 - w, w)
            refused = F(w) < -TOL
            assert (oracle.float_measure_error(ground, weights, None) is not None) == refused
            got = _error(lambda: Measure(ground, weights))
            assert got == (f"negative weight {w!r}" if refused else None)
        for w in _around(FLOAT_TOL):
            weights = (0.5, 0.5 - w, w)
            outside = F(w) > TOL
            assert oracle.float_support(weights) == (0b111 if outside else 0b011)
            assert Measure(ground, weights).support() == (0b111 if outside else 0b011)
            got = _error(lambda: Measure(ground, weights, carrier))
            assert got == ("measure puts mass outside its carrier" if outside else None)
            assert oracle.float_measure_error(ground, weights, carrier) == got

    def test_capacity_boundary_and_carrier(self):
        ground = GroundSet.of("ab")
        for v in _around(FLOAT_TOL):
            values = (v, 0.5, 0.5, 1.0)
            got = _error(lambda: Capacity(ground, values))
            assert (got is not None) == (F(v) > TOL)
            assert oracle.float_capacity_boundary_error(values) == got
        for v in _around(1 + FLOAT_TOL):
            values = (0.0, 0.5, 0.5, v)
            got = _error(lambda: Capacity(ground, values))
            assert (got is not None) == (F(v) - 1 > TOL)
            assert oracle.float_capacity_boundary_error(values) == got
        # nu(b) = nu(empty set) = 0 within the tolerance: carried by {a}
        for v in _around(FLOAT_TOL):
            values = (0.0, 1.0, v, 1.0)
            carried = F(v) <= TOL
            got = _error(lambda: Capacity(ground, values, ground.mask_of("a")))
            assert got == (None if carried else "capacity is not constant across its carrier")
            assert oracle.float_carried_by(values, ground.mask_of("a")) == carried

    def test_mixture_weights(self):
        ground = GroundSet.of("ab")
        point = Measure(ground, (F(1, 2), F(1, 2)))
        both = Capacity(ground, (F(0), F(0), F(0), F(1)))
        for w in _around(-FLOAT_TOL):
            weights = (w, 1 - w)
            ok = F(w) >= -TOL
            assert oracle.float_mixture_weights_ok(weights) == ok
            got = _error(lambda: decompose_in_mixture_core(point, [both, both], weights))
            assert got == (None if ok else "mixture weights must be a probability vector")

    def test_interval_belief_bounds(self):
        ground = GroundSet.of("ab")
        for low in _around(-FLOAT_TOL):
            got = _error(lambda: IntervalBelief(ground, 0b11, (low, 0.5), (0.5, 0.75)))
            assert (got is not None) == (F(low) < -TOL)
            assert oracle.float_interval_belief_error(0b11, (low, 0.5), (0.5, 0.75)) == got
        for off in _around(FLOAT_TOL):
            got = _error(lambda: IntervalBelief(ground, 0b01, (0.5, 0.0), (1.25, off)))
            assert (got is not None) == (F(off) > TOL)
            assert oracle.float_interval_belief_error(0b01, (0.5, 0.0), (1.25, off)) == got
        # upper >= lower - 1e-9 with lower = 0.5: the float nearest the edge
        # lies below it, and the old check rounded 0.5 - 1e-9 to that float
        edge = 0.5 - FLOAT_TOL
        assert F(edge) < F(0.5) - TOL
        for up, dominates, old in zip(_around(edge), (False, False, True), (False, True, True)):
            lower, upper = (0.5, 0.25), (up, 1.0)
            assert dominates == (F(up) >= F(0.5) - TOL)
            got = _error(lambda: IntervalBelief(ground, 0b11, lower, upper))
            assert got == (None if dominates else "upper bounds must dominate lower bounds")
            assert (oracle.float_interval_belief_error(0b11, lower, upper) is None) == old

    def test_pure_noise(self):
        grid = OddsGrid.from_values((F(0), F(1)), F(0))
        for v in _around(FLOAT_TOL):
            nu = Capacity(grid.shifted, (0.0, 0.5, v, 1.0))
            noise = F(v) <= TOL
            assert oracle.float_pure_noise(grid, nu) == noise
            got = _error(lambda: ExperimentModel(grid, nu))
            assert (got is not None and "pure noise" in got) == noise

    def test_kappa_floor(self):
        # nu({0}) = 1/6 as a double N/L; the floor is -N/(L-N) exactly
        grid = OddsGrid.from_values((F(0), F(1)), F(0))
        model = ExperimentModel(grid, Capacity(grid.shifted, (0.0, 1 / 6, 0.5, 1.0)))
        null = F(1 / 6)
        floor = -null / (1 - null)
        assert model.kappa_floor == -(1 / 6) / (1 - 1 / 6) == -0.19999999999999998
        edge = float(floor - TOL)
        for kappa in _around(edge):
            assert model.above_floor(kappa) == (F(kappa) >= floor - TOL)
        # the double of -1/5 lies below the floor computed in doubles, and
        # within the tolerance of the exact floor
        assert -0.2 < model.kappa_floor and model.above_floor(-0.2)
        exact = ExperimentModel(grid, Capacity(grid.shifted, (F(0), F(1, 6), F(1, 2), F(1))))
        assert exact.kappa_floor == F(-1, 5)
        assert exact.above_floor(F(-1, 5)) and not exact.above_floor(F(-1, 5) - F(1, 10**30))


class TestCarrierGuards:
    """A carrier that is empty or reaches past the ground set is refused, by
    the checks that come before any value is read through it."""

    CASES = [(0, "empty carrier"), (0b100, "carrier is not a subset of the ground set"),
             (0b1000, "carrier is not a subset of the ground set")]

    @pytest.mark.parametrize("carrier, message", CASES)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_measure(self, carrier, message, exact):
        one, half = (F(1), F(1, 2)) if exact else (1.0, 0.5)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Measure(GroundSet.of("ab"), (half, one - half), carrier)

    @pytest.mark.parametrize("carrier, message", CASES)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_capacity(self, carrier, message, exact):
        one, half = (F(1), F(1, 2)) if exact else (1.0, 0.5)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Capacity(GroundSet.of("ab"), (0 * one, half, half, one), carrier)
