"""Set-function algebra unit tests.

Expected values were derived independently of the implementation: Moebius
masses by running the inclusion-exclusion sum by hand, greedy core vertices
by walking both permutations manually, and mixtures/extensions by direct
pointwise arithmetic.  The pairwise supermodularity check in
``capacity_oracle`` serves as the oracle for the convexity tests.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capacity_oracle import brute_force_convex, literal_from_measure, lower_probability
from capid import (
    Capacity,
    GroundSet,
    Measure,
    NotConvexError,
    ValidationError,
    core_vertices,
    decompose_in_mixture_core,
    is_belief_function,
    is_convex,
)
from capid.capacity import submasks
from helpers import (
    capacity_from_mobius,
    core_contains,
    cylindrical_extension,
    mixture,
    mobius,
    pushforward,
    pushforward_measure,
)

AB = GroundSet.of("ab")
ABC = GroundSet.of("abc")


def cap(ground, mapping, carrier=None):
    """Capacity from a {labels-key: value} dict; keys like "ab" or "m0,m1"."""
    single = all(isinstance(l, str) and len(l) == 1 for l in ground.labels)
    values = [None] * (1 << ground.size)
    for key, v in mapping.items():
        labels = (list(key) if single else key.split(",")) if key else []
        values[ground.mask_of(labels)] = F(v) if not isinstance(v, float) else v
    assert all(v is not None for v in values)
    return Capacity(ground, tuple(values), carrier)


def meas(ground, *weights):
    return Measure(ground, tuple(F(w) if not isinstance(w, float) else w for w in weights))


def ignorance(ground, carrier_labels):
    carrier = ground.mask_of(carrier_labels)
    values = tuple(
        F(1) if mask & carrier == carrier else F(0) for mask in ground.masks()
    )
    return Capacity(ground, values, carrier)


def cardinality_half(ground):
    """0 on singletons, 1/2 on pairs, 1 on the triple."""
    table = {0: F(0), 1: F(0), 2: F(1, 2), 3: F(1)}
    values = tuple(table[mask.bit_count()] for mask in ground.masks())
    return Capacity(ground, values)


class TestGroundSet:
    def test_masks_and_keys(self):
        g = ABC
        assert g.mask_of("ac") == 0b101
        assert g.labels_of(0b101) == ("a", "c")
        assert g.subset_key(0b101) == "a,c"
        assert g.subset_key(0) == ""

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            GroundSet.of("aa")

    def test_no_size_cap(self, monkeypatch):
        # the label cap guards documents (schemas.parse_ground), not the
        # ground sets of rule ids and menus that capid builds
        monkeypatch.setenv("CAPID_MAX_N", "3")
        assert GroundSet.of("abcd").size == 4


class TestMeasure:
    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError):
            meas(AB, "1/2", "1/4")

    def test_carrier_enforced(self):
        with pytest.raises(ValidationError):
            Measure(ABC, (F(1, 2), F(1, 2), F(0)), ABC.mask_of("a"))

    def test_float_tolerance(self):
        Measure(AB, (0.5 + 1e-13, 0.5), None)  # inside 1e-9

    def test_float_weights_sum_left_to_right(self):
        # summed left to right these miss 1 by just over 1e-9; the
        # compensated sum() of Python 3.12 and later lands just inside
        weights = (0.27885505759256546, 0.15925037800197914, 0.0904281923126858,
                   0.007699137833041104, 0.1287405253480024, 0.33502670991172606)
        with pytest.raises(ValidationError, match=r"^weights sum to 1\.000000001, expected 1$"):
            Measure(GroundSet.of("abcdef"), weights)
        components = [ignorance(AB, "ab")] * len(weights)
        with pytest.raises(ValidationError, match="mixture weights"):
            mixture(components, weights)
        with pytest.raises(ValidationError, match="mixture weights"):
            decompose_in_mixture_core(meas(AB, "1/2", "1/2"), components, weights)

    def test_mass(self):
        p = meas(ABC, "1/2", "1/4", "1/4")
        assert p.mass(ABC.mask_of("ab")) == F(3, 4)


class TestCapacityValidation:
    def test_rejects_non_monotone(self):
        with pytest.raises(ValidationError):
            cap(AB, {"": 0, "a": "3/4", "b": 0, "ab": "1/2"})

    def test_rejects_empty_carrier(self):
        with pytest.raises(ValidationError):
            Capacity(AB, (F(0), F(0), F(0), F(1)), 0)

    def test_rejects_carrier_mismatch(self):
        # value must be constant in the direction of labels outside the carrier
        with pytest.raises(ValidationError):
            cap(ABC, {
                "": 0, "a": 0, "b": 0, "c": "1/2",
                "ab": 1, "ac": "1/2", "bc": "1/2", "abc": 1,
            }, carrier=ABC.mask_of("ab"))


class TestIsConvex:
    def test_probability_measure_is_convex(self):
        nu = literal_from_measure(meas(ABC, "1/2", "1/4", "1/4"))
        assert is_convex(nu) is True

    def test_cardinality_capacity_is_convex(self):
        nu = cardinality_half(ABC)
        assert brute_force_convex(nu)
        assert is_convex(nu) is True

    def test_supermodularity_violation(self):
        # two singletons at 0.7 break nu(union) + nu(intersection) >= sum
        nu = cap(AB, {"": 0, "a": "7/10", "b": "7/10", "ab": 1})
        assert is_convex(nu) is False

    def test_agrees_with_brute_force_on_ignorance(self):
        nu = ignorance(ABC, "ab")
        assert is_convex(nu) == brute_force_convex(nu)


class TestMobius:
    def test_unanimity_game(self):
        nu = ignorance(ABC, "ab")
        mass = mobius(nu)
        expected = {ABC.mask_of("ab"): F(1)}
        for mask in ABC.masks():
            assert mass[mask] == expected.get(mask, F(0))

    def test_probability_measure_masses_on_singletons(self):
        p = meas(ABC, "1/2", "1/3", "1/6")
        mass = mobius(literal_from_measure(p))
        for mask in ABC.masks():
            if mask.bit_count() == 1:
                assert mass[mask] == p.mass(mask)
            else:
                assert mass[mask] == 0

    def test_cardinality_capacity_masses(self):
        # hand inversion: pairs get 1/2, the full set gets -1/2, rest 0
        mass = mobius(cardinality_half(ABC))
        for mask in ABC.masks():
            k = mask.bit_count()
            if k == 2:
                assert mass[mask] == F(1, 2)
            elif k == 3:
                assert mass[mask] == F(-1, 2)
            else:
                assert mass[mask] == 0

    def test_round_trip(self):
        nu = cardinality_half(ABC)
        assert capacity_from_mobius(ABC, mobius(nu)).values == nu.values


class TestIsBeliefFunction:
    def test_ignorance_is_belief_function(self):
        assert is_belief_function(ignorance(ABC, "ab")) is True

    def test_contamination_is_belief_function(self):
        # (1-eps) rho_hat + eps * unanimity has nonnegative masses by construction
        rho_hat = meas(AB, "1/2", "1/2")
        values = tuple(
            F(1, 2) * rho_hat.mass(mask) + (F(1, 2) if mask == 0b11 else F(0))
            for mask in AB.masks()
        )
        assert is_belief_function(Capacity(AB, values)) is True

    def test_convex_but_not_belief_function(self):
        nu = cardinality_half(ABC)
        assert is_convex(nu) is True
        assert is_belief_function(nu) is False


class TestCoreContains:
    def test_measure_core_is_singleton(self):
        p = meas(AB, "3/5", "2/5")
        nu = literal_from_measure(p)
        assert core_contains(nu, p) is True
        assert core_contains(nu, meas(AB, "2/5", "3/5")) is False

    def test_ignorance_core_is_simplex_on_carrier(self):
        nu = ignorance(ABC, "ab")
        assert core_contains(nu, meas(ABC, "1/3", "2/3", 0)) is True
        assert core_contains(nu, meas(ABC, "1/3", "1/3", "1/3")) is False

    def test_contamination_rejects_skewed_measure(self):
        # nu({a}) = 1/4 exceeds the candidate's 1/5
        nu = cap(AB, {"": 0, "a": "1/4", "b": "1/4", "ab": 1})
        assert core_contains(nu, meas(AB, "1/5", "4/5")) is False


class TestCoreVertices:
    def test_ignorance_vertices_are_point_masses(self):
        got = {v.weights for v in core_vertices(ignorance(ABC, "ab"))}
        assert got == {(F(1), F(0), F(0)), (F(0), F(1), F(0))}

    def test_measure_core_vertex(self):
        p = meas(AB, "3/5", "2/5")
        vs = core_vertices(literal_from_measure(p))
        assert len(vs) == 1 and vs[0].weights == p.weights

    def test_contamination_two_vertices(self):
        # greedy on both orders of {a,b}: (1/4,3/4) and (3/4,1/4)
        nu = cap(AB, {"": 0, "a": "1/4", "b": "1/4", "ab": 1})
        got = {v.weights for v in core_vertices(nu)}
        assert got == {(F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))}

    def test_rejects_non_convex(self):
        nu = cap(AB, {"": 0, "a": "7/10", "b": "7/10", "ab": 1})
        with pytest.raises(NotConvexError):
            core_vertices(nu)

    def test_every_vertex_dominates(self):
        nu = cardinality_half(ABC)
        for v in core_vertices(nu):
            assert core_contains(nu, v)


class TestLowerProbability:
    def test_point_masses_give_ignorance(self):
        vs = [Measure.point(AB, "a"), Measure.point(AB, "b")]
        nu = lower_probability(vs, AB)
        assert nu.values == (F(0), F(0), F(0), F(1))

    def test_single_measure_round_trip(self):
        p = meas(AB, "3/5", "2/5")
        assert lower_probability([p], AB).values == literal_from_measure(p).values

    def test_min_per_subset(self):
        vs = [meas(AB, "1/4", "3/4"), meas(AB, "3/4", "1/4")]
        nu = lower_probability(vs, AB)
        assert nu.value(AB.mask_of("a")) == F(1, 4)
        assert nu.value(AB.mask_of("b")) == F(1, 4)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            lower_probability([], AB)

    def test_recovers_convex_capacity_from_its_core(self):
        nu = cardinality_half(ABC)
        assert lower_probability(core_vertices(nu), ABC).values == nu.values


class TestMixture:
    def test_weight_one_is_identity(self):
        nu = cardinality_half(ABC)
        other = ignorance(ABC, "ab")
        assert mixture([nu, other], [F(1), F(0)]).values == nu.values

    def test_measures_mix_additively(self):
        p, q = meas(AB, "3/5", "2/5"), meas(AB, "1/5", "4/5")
        alpha = F(1, 4)
        mixed = mixture(
            [literal_from_measure(p), literal_from_measure(q)], [alpha, 1 - alpha]
        )
        expect = Measure(AB, (alpha * p.weights[0] + (1 - alpha) * q.weights[0],
                              alpha * p.weights[1] + (1 - alpha) * q.weights[1]))
        assert mixed.values == literal_from_measure(expect).values

    def test_half_ignorance_half_point(self):
        mixed = mixture(
            [ignorance(AB, "ab"), literal_from_measure(Measure.point(AB, "a"))],
            [F(1, 2), F(1, 2)],
        )
        assert mixed.value(AB.mask_of("a")) == F(1, 2)
        assert mixed.value(AB.mask_of("b")) == F(0)

    def test_rejects_mismatched_grounds(self):
        with pytest.raises(ValidationError):
            mixture([ignorance(AB, "ab"), ignorance(ABC, "ab")], [F(1, 2), F(1, 2)])


class TestDecomposeInMixtureCore:
    def test_single_component(self):
        nu = cardinality_half(ABC)
        p = core_vertices(nu)[0]
        out = decompose_in_mixture_core(p, [nu], [F(1)])
        assert out is not None and out[0].weights == p.weights

    def test_point_and_ignorance_on_point(self):
        delta_a = literal_from_measure(Measure.point(AB, "a"))
        ign_a = ignorance(AB, "a")
        out = decompose_in_mixture_core(
            Measure.point(AB, "a"), [delta_a, ign_a], [F(1, 2), F(1, 2)]
        )
        assert out is not None
        assert out[0].weights == (F(1), F(0))
        assert out[1].weights == (F(1), F(0))

    def test_uniform_splits_across_ignorance_components(self):
        # the unique split: rho_1 = (1/2,1/2,0) on {a,b}, rho_2 = (0,0,1) on {a,c}
        lam = meas(ABC, "1/3", "1/3", "1/3")
        nu1, nu2 = ignorance(ABC, "ab"), ignorance(ABC, "ac")
        out = decompose_in_mixture_core(lam, [nu1, nu2], [F(2, 3), F(1, 3)])
        assert out is not None
        assert out[0].weights == (F(1, 2), F(1, 2), F(0))
        assert out[1].weights == (F(0), F(0), F(1))

    def test_none_outside_mixture_core(self):
        delta_a = literal_from_measure(Measure.point(AB, "a"))
        out = decompose_in_mixture_core(
            Measure.point(AB, "b"), [delta_a, delta_a], [F(1, 2), F(1, 2)]
        )
        assert out is None


class TestCylindricalExtension:
    def test_identity_when_carrier_is_everything(self):
        nu = cardinality_half(ABC)
        assert cylindrical_extension(nu, ABC).values == nu.values

    def test_point_mass_extends_to_indicator(self):
        a_only = GroundSet.of("a")
        nu = Capacity(a_only, (F(0), F(1)))
        ext = cylindrical_extension(nu, ABC)
        for mask in ABC.masks():
            assert ext.value(mask) == (F(1) if mask & 1 else F(0))

    def test_ignorance_extension_values(self):
        nu = ignorance(AB, "ab")
        ext = cylindrical_extension(nu, ABC)
        assert ext.value(ABC.mask_of("abc")) == F(1)
        assert ext.value(ABC.mask_of("ac")) == F(0)

    def test_rejects_labels_outside_target(self):
        with pytest.raises(ValidationError):
            cylindrical_extension(cardinality_half(ABC), AB)


class TestPushforward:
    MENUS = GroundSet.of(["m0", "m1", "m2", "m3"])

    def test_point_mass_maps_to_point_mass(self):
        psi = literal_from_measure(Measure.point(self.MENUS, "m1"))
        choice = {"m0": "a", "m1": "b", "m2": "c", "m3": "a"}
        nu = pushforward(psi, choice, ABC)
        assert nu.values == literal_from_measure(Measure.point(ABC, "b")).values

    def test_ignorance_maps_to_ignorance_over_range(self):
        # an a-first maximizer on the four menus of size >= 2 reaches {a,b}
        psi = ignorance(self.MENUS, ["m0", "m1", "m2", "m3"])
        choice = {"m0": "a", "m1": "a", "m2": "b", "m3": "a"}
        nu = pushforward(psi, choice, ABC)
        assert nu.values == ignorance(ABC, "ab").values

    def test_rejects_partial_map(self):
        psi = ignorance(self.MENUS, ["m0", "m1", "m2", "m3"])
        with pytest.raises(ValidationError):
            pushforward(psi, {"m0": "a"}, ABC)

    def test_core_commutes_with_pushforward(self):
        # lower envelope of image vertices equals the image capacity
        psi = cap(self.MENUS, {
            "": 0,
            "m0": 0, "m1": 0, "m2": 0, "m3": 0,
            "m0,m1": "1/4", "m0,m2": 0, "m0,m3": 0, "m1,m2": 0, "m1,m3": 0, "m2,m3": "1/4",
            "m0,m1,m2": "1/2", "m0,m1,m3": "1/2", "m0,m2,m3": "1/2", "m1,m2,m3": "1/2",
            "m0,m1,m2,m3": 1,
        })
        assert is_convex(psi)
        choice = {"m0": "a", "m1": "b", "m2": "c", "m3": "b"}
        nu = pushforward(psi, choice, ABC)
        assert is_convex(nu)
        images = [pushforward_measure(v, choice, ABC) for v in core_vertices(psi)]
        assert lower_probability(images, ABC).values == nu.values


# ---------------------------------------------------------------------------
# algebraic invariants on randomized capacities
# ---------------------------------------------------------------------------

def random_mobius_capacity(draw_masses, ground):
    total = sum(draw_masses)
    masses = [F(0)] * (1 << ground.size)
    for i, m in enumerate(draw_masses):
        masses[(i % ((1 << ground.size) - 1)) + 1] += F(m, total)
    return capacity_from_mobius(ground, masses)


@st.composite
def belief_functions(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    ground = GroundSet.of("abcdef"[:n])
    k = (1 << n) - 1
    masses = draw(
        st.lists(st.integers(min_value=0, max_value=8), min_size=k, max_size=k).filter(
            lambda xs: sum(xs) > 0
        )
    )
    return random_mobius_capacity(masses, ground)


@settings(max_examples=60, deadline=None)
@given(belief_functions())
def test_belief_functions_are_convex(nu):
    assert is_belief_function(nu)
    assert is_convex(nu)


@settings(max_examples=60, deadline=None)
@given(belief_functions(max_n=3))
def test_mobius_round_trip_exact(nu):
    assert capacity_from_mobius(nu.ground, mobius(nu)).values == nu.values


@settings(max_examples=40, deadline=None)
@given(belief_functions(max_n=3), belief_functions(max_n=3))
def test_mixture_of_convex_is_convex(nu1, nu2):
    if nu1.ground != nu2.ground:
        return
    mixed = mixture([nu1, nu2], [F(1, 3), F(2, 3)])
    assert is_convex(mixed)


@settings(max_examples=40, deadline=None)
@given(belief_functions(max_n=3))
def test_greedy_vertices_dominate(nu):
    for v in core_vertices(nu):
        assert core_contains(nu, v)
