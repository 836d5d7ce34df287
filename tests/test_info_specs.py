"""Information-specification tests.

The core-equivalence battery is the heart of this file: membership by the
defining formula must agree with core membership of the built capacity on a
full step-1/20 grid of candidate measures.  Expected capacity values were
computed by hand from the closed-form construction rules.
"""

import itertools
from fractions import Fraction as F

import pytest

from capid import (
    Capacity,
    GroundSet,
    Measure,
    NotConvexError,
    ValidationError,
    is_belief_function,
    is_convex,
)
from capid.identification import IdentificationProblem, ProblemRule
from capid.info_specs import (
    Contamination,
    ExplicitCapacity,
    Ignorance,
    IntervalBelief,
    PointMass,
    VariationNeighborhood,
    build_capacity,
    spec_contains,
)
from helpers import core_contains, uniform

AB = GroundSet.of("ab")
ABC = GroundSet.of("abc")


def grid_measures(ground, carrier, step=20):
    """Every measure on the carrier with weights in multiples of 1/step."""
    idx = [i for i in range(ground.size) if carrier >> i & 1]
    out = []
    for combo in itertools.product(range(step + 1), repeat=len(idx) - 1):
        rest = step - sum(combo)
        if rest < 0:
            continue
        weights = [F(0)] * ground.size
        for i, units in zip(idx, combo + (rest,)):
            weights[i] = F(units, step)
        out.append(Measure(ground, tuple(weights), carrier))
    return out


class TestValidation:
    def test_contamination_focal_must_fit_carrier(self):
        with pytest.raises(ValidationError):
            Contamination(
                ABC, ABC.mask_of("ab"),
                rho_hat=Measure(ABC, (F(1, 2), F(0), F(1, 2))),
                epsilon=F(1, 2),
            )

    def test_contamination_epsilon_domain(self):
        with pytest.raises(ValidationError):
            Contamination(AB, AB.full_mask, uniform(AB), F(3, 2))

    def test_interval_totals_must_straddle_one(self):
        with pytest.raises(ValidationError):
            IntervalBelief(
                AB, AB.full_mask,
                lower=(F(3, 5), F(3, 5)),  # lower total 6/5 >= 1
                upper=(F(4, 5), F(4, 5)),
            )

    def test_interval_lower_below_upper(self):
        with pytest.raises(ValidationError):
            IntervalBelief(AB, AB.full_mask, (F(1, 2), F(1, 10)), (F(1, 4), F(2)))

    def test_variation_epsilon_positive(self):
        with pytest.raises(ValidationError):
            VariationNeighborhood(AB, AB.full_mask, uniform(AB), F(0))

    def test_empty_carrier_rejected(self):
        with pytest.raises(ValidationError):
            Ignorance(AB, 0)


class TestBuildCapacity:
    def test_ignorance_indicator(self):
        nu = build_capacity(Ignorance(ABC, ABC.mask_of("ab")))
        assert nu.value(ABC.mask_of("a")) == 0
        assert nu.value(ABC.mask_of("ab")) == 1
        assert nu.value(ABC.mask_of("ac")) == 0
        assert nu.value(ABC.mask_of("abc")) == 1

    def test_contamination_values(self):
        spec = Contamination(
            ABC, ABC.mask_of("ab"),
            rho_hat=Measure(ABC, (F(1, 2), F(1, 2), F(0)), ABC.mask_of("ab")),
            epsilon=F(1, 2),
        )
        nu = build_capacity(spec)
        assert nu.value(ABC.mask_of("a")) == F(1, 4)
        assert nu.value(ABC.mask_of("ab")) == 1
        assert nu.value(ABC.mask_of("ac")) == F(1, 4)
        assert nu.value(ABC.mask_of("c")) == 0

    def test_variation_neighborhood_values(self):
        spec = VariationNeighborhood(
            ABC, ABC.full_mask,
            reference=Measure(ABC, (F(4, 5), F(1, 10), F(1, 10))),
            epsilon=F(3, 20),
        )
        nu = build_capacity(spec)
        assert nu.value(ABC.mask_of("a")) == F(13, 20)
        assert nu.value(ABC.mask_of("b")) == 0
        assert nu.value(ABC.mask_of("ab")) == F(3, 4)
        assert nu.value(ABC.full_mask) == 1

    def test_interval_belief_values(self):
        # lower = 0.2 * uniform, upper = 1.5 * uniform on {a,b}
        spec = IntervalBelief(
            AB, AB.full_mask,
            lower=(F(1, 10), F(1, 10)),
            upper=(F(3, 4), F(3, 4)),
        )
        nu = build_capacity(spec)
        # beta = 3/2 - 1 = 1/2; singleton: max(1/10, 3/4 - 1/2) = 1/4
        assert nu.value(AB.mask_of("a")) == F(1, 4)
        assert nu.value(AB.full_mask) == 1

    def test_explicit_requires_convexity(self):
        bad = Capacity(AB, (F(0), F(7, 10), F(7, 10), F(1)))
        with pytest.raises(NotConvexError):
            build_capacity(ExplicitCapacity(AB, AB.full_mask, bad))

    def test_non_convex_explicit_is_rejected_by_the_problem_too(self):
        # a rule builds its capacity from the specification, so the same
        # convexity test rejects it before any problem is assembled
        bad = Capacity(AB, (F(0), F(7, 10), F(7, 10), F(1)))
        spec = ExplicitCapacity(AB, AB.full_mask, bad)
        with pytest.raises(NotConvexError, match="requires a convex capacity"):
            build_capacity(spec)
        with pytest.raises(NotConvexError, match="requires a convex capacity"):
            IdentificationProblem(AB, (ProblemRule("r", spec),), uniform(AB))

    def test_point_mass_is_measure_capacity(self):
        rho = Measure(ABC, (F(1, 2), F(1, 2), F(0)), ABC.mask_of("ab"))
        nu = build_capacity(PointMass(ABC, ABC.mask_of("ab"), rho))
        for mask in ABC.masks():
            assert nu.value(mask) == rho.mass(mask & ABC.mask_of("ab"))

    def test_point_mass_keeps_its_float_zero_off_the_carrier(self):
        # {c} sums to 0 + 0.0, the float 0.0, where the carrier's table holds
        # the int 0 at the empty set: spreading that table would report "0"
        carrier = ABC.mask_of("ab")
        rho = Measure(ABC, (0.25, 0.75, 0.0), carrier)
        nu = build_capacity(PointMass(ABC, carrier, rho))
        assert repr(nu.value(ABC.mask_of("c"))) == "0.0"
        assert repr(nu.value(0)) == "0"
        assert type(nu.value(0)) is int


class TestSpecContains:
    def test_ignorance_accepts_carrier_support(self):
        spec = Ignorance(ABC, ABC.mask_of("ab"))
        assert spec_contains(spec, Measure(ABC, (F(1, 3), F(2, 3), F(0))))
        assert not spec_contains(spec, Measure(ABC, (F(1, 3), F(1, 3), F(1, 3))))

    def test_contamination_rejects_off_cone(self):
        spec = Contamination(
            AB, AB.full_mask, rho_hat=uniform(AB), epsilon=F(1, 2)
        )
        assert not spec_contains(spec, Measure(AB, (F(1, 5), F(4, 5))))
        assert spec_contains(spec, Measure(AB, (F(1, 4), F(3, 4))))

    def test_interval_belief_setwise(self):
        spec = IntervalBelief(
            AB, AB.full_mask,
            lower=(F(1, 10), F(1, 10)),
            upper=(F(3, 4), F(3, 4)),
        )
        assert spec_contains(spec, Measure(AB, (F(3, 10), F(7, 10))))
        assert not spec_contains(spec, Measure(AB, (F(1, 20), F(19, 20))))

    def test_variation_ball_is_closed(self):
        spec = VariationNeighborhood(
            AB, AB.full_mask, reference=uniform(AB), epsilon=F(1, 4)
        )
        # distance exactly 1/4 is inside the closed ball
        assert spec_contains(spec, Measure(AB, (F(1, 4), F(3, 4))))
        assert not spec_contains(spec, Measure(AB, (F(1, 5), F(4, 5))))

    def test_point_mass_exact_match(self):
        rho = Measure(AB, (F(1, 3), F(2, 3)))
        spec = PointMass(AB, AB.full_mask, rho)
        assert spec_contains(spec, Measure(AB, (F(1, 3), F(2, 3))))
        assert not spec_contains(spec, Measure(AB, (F(1, 2), F(1, 2))))


def _sample_specs(ground, carrier):
    """One representative of each family on the given carrier."""
    k = carrier.bit_count()
    units = list(range(1, k + 1))
    total = sum(units)
    j = 0
    fw = [F(0)] * ground.size
    for i in range(ground.size):
        if carrier >> i & 1:
            fw[i] = F(units[j], total)
            j += 1
    focal = Measure(ground, tuple(fw), carrier)
    lower = tuple(w / 3 for w in focal.weights)
    upper = tuple(w * F(3, 2) + (F(1, 10) if carrier >> i & 1 else F(0))
                  for i, w in enumerate(focal.weights))
    specs = [
        Ignorance(ground, carrier),
        Contamination(ground, carrier, focal, F(2, 5)),
        VariationNeighborhood(ground, carrier, focal, F(3, 20)),
        IntervalBelief(ground, carrier, lower, upper),
        PointMass(ground, carrier, focal),
        ExplicitCapacity(ground, carrier, build_capacity(Contamination(ground, carrier, focal, F(1, 5)))),
    ]
    return specs


class TestCoreEquivalence:
    @pytest.mark.parametrize("carrier_labels", ["ab", "abc"])
    def test_membership_matches_core_on_grid(self, carrier_labels):
        ground = ABC
        carrier = ground.mask_of(carrier_labels)
        for spec in _sample_specs(ground, carrier):
            nu = build_capacity(spec)
            for rho in grid_measures(ground, carrier):
                assert spec_contains(spec, rho) == core_contains(nu, rho), (
                    spec.tag, rho.weights,
                )

    def test_all_families_build_convex(self):
        # build_capacity's capacities record that they are convex, so the
        # test runs on a copy that the validating constructor builds
        for carrier_labels in ("ab", "abc"):
            carrier = ABC.mask_of(carrier_labels)
            for spec in _sample_specs(ABC, carrier):
                nu = build_capacity(spec)
                assert is_convex(Capacity(nu.ground, nu.values, nu.carrier)), spec.tag

    def test_ignorance_and_contamination_are_belief_functions(self):
        carrier = ABC.mask_of("ab")
        for spec in _sample_specs(ABC, carrier):
            if spec.tag in ("ignorance", "contamination", "point"):
                assert is_belief_function(build_capacity(spec)), spec.tag


class TestContaminationLimits:
    def test_epsilon_zero_is_point(self):
        focal = Measure(AB, (F(1, 3), F(2, 3)))
        nu0 = build_capacity(Contamination(AB, AB.full_mask, focal, F(0)))
        point = build_capacity(PointMass(AB, AB.full_mask, focal))
        assert nu0.values == point.values

    def test_epsilon_one_is_ignorance(self):
        focal = Measure(AB, (F(1, 3), F(2, 3)))
        nu1 = build_capacity(Contamination(AB, AB.full_mask, focal, F(1)))
        ign = build_capacity(Ignorance(AB, AB.full_mask))
        assert nu1.values == ign.values
