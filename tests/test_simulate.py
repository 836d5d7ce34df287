"""Rule-constructor and population-synthesis tests."""

from fractions import Fraction as F

import pytest

from capid import GroundSet, Measure, ValidationError
from capid.identification import (
    MenuCollection,
    check_rationalizes,
    choice_range,
    problem_from_info_specs,
)
from capid.info_specs import Contamination, Ignorance, PointMass
from capid.simulate import synth_population
from helpers import PreferenceOrder, SatisficingSpec, rules_from_preferences, rules_from_satisficing

ABC = GroundSet.of("abc")
NESTED = MenuCollection.of(ABC, [["a"], ["a", "b"], ["a", "b", "c"]])


class TestPreferenceRules:
    def test_top_ranked_always_chosen(self):
        (rule,) = rules_from_preferences([PreferenceOrder(("a", "b", "c"))], NESTED)
        assert rule.choices == ("a", "a", "a")

    def test_range_shrinks_without_singleton(self):
        menus = MenuCollection.of(ABC, [["a", "b"], ["a", "b", "c"]])
        (rule,) = rules_from_preferences([PreferenceOrder(("c", "b", "a"))], menus)
        assert rule.choices == ("b", "c")
        assert choice_range(rule, menus) == ABC.mask_of("bc")

    def test_singleton_menus_force_their_element(self):
        menus = MenuCollection.of(ABC, [["b"], ["c"]])
        (rule,) = rules_from_preferences([PreferenceOrder(("a", "b", "c"))], menus)
        assert rule.choices == ("b", "c")

    def test_choice_obeys_containment_across_nested_menus(self):
        # a maximizer that picks x from a superset still picks x from any subset
        # containing it (sanity property of the generated fixtures)
        for order in (("a", "b", "c"), ("b", "a", "c"), ("c", "b", "a")):
            (rule,) = rules_from_preferences([PreferenceOrder(order)], NESTED)
            for i, small in enumerate(NESTED.menus):
                for j, big in enumerate(NESTED.menus):
                    if small & big == small:
                        chosen_big = rule.choices[j]
                        if ABC.singleton(chosen_big) & small:
                            assert rule.choices[i] == chosen_big


class TestSatisficingRules:
    VALUES = (("a", F(1)), ("b", F(2)), ("c", F(3)))

    def test_low_threshold_takes_first_considered(self):
        spec = SatisficingSpec(self.VALUES, F(0), ("a", "b", "c"))
        (rule,) = rules_from_satisficing([spec], NESTED)
        assert rule.choices == ("a", "a", "a")

    def test_high_threshold_falls_back_to_last_in_menu(self):
        spec = SatisficingSpec(self.VALUES, F(10), ("a", "b", "c"))
        (rule,) = rules_from_satisficing([spec], NESTED)
        assert rule.choices == ("a", "b", "c")

    def test_first_satisfactory_element_wins(self):
        spec = SatisficingSpec(self.VALUES, F(2), ("a", "b", "c"))
        menus = MenuCollection.of(ABC, [["a", "b", "c"]])
        (rule,) = rules_from_satisficing([spec], menus)
        assert rule.choices == ("b",)

    def test_fallback_is_per_menu_not_global(self):
        spec = SatisficingSpec(self.VALUES, F(10), ("a", "c", "b"))
        menus = MenuCollection.of(ABC, [["a", "b"]])
        (rule,) = rules_from_satisficing([spec], menus)
        assert rule.choices == ("b",)  # last considered within the menu


class TestSynthPopulation:
    def test_point_specs_reproduce_given_distribution(self):
        rho = Measure(ABC, (F(1, 3), F(2, 3), F(0)), ABC.mask_of("ab"))
        q = Measure(GroundSet.of(["only"]), (F(1),))
        result = synth_population([("only", PointMass(ABC, ABC.mask_of("ab"), rho))], q, seed=7)
        assert result.lam.weights == rho.weights

    def test_two_rule_mixture_with_known_split(self):
        rho1 = Measure(ABC, (F(1, 2), F(1, 2), F(0)), ABC.mask_of("ab"))
        rho2 = Measure(ABC, (F(0), F(0), F(1)), ABC.mask_of("c"))
        q = Measure(GroundSet.of(["one", "two"]), (F(2, 3), F(1, 3)))
        result = synth_population(
            [
                ("one", PointMass(ABC, ABC.mask_of("ab"), rho1)),
                ("two", PointMass(ABC, ABC.mask_of("c"), rho2)),
            ],
            q,
            seed=3,
        )
        assert result.lam.weights == (F(1, 3), F(1, 3), F(1, 3))

    def test_round_trip_rationalization(self):
        focal = Measure(ABC, (F(1, 2), F(1, 2), F(0)), ABC.mask_of("ab"))
        specs = [
            ("ign", Ignorance(ABC, ABC.mask_of("ab"))),
            ("con", Contamination(ABC, ABC.mask_of("ab"), focal, F(1, 2))),
        ]
        q = Measure(GroundSet.of(["ign", "con"]), (F(2, 5), F(3, 5)))
        for seed in range(12):
            result = synth_population(specs, q, seed)
            problem = problem_from_info_specs(ABC, specs, result.lam)
            assert check_rationalizes(problem, q).rationalizes

    def test_repeated_rule_id_is_refused(self):
        # named as a problem refuses it, not as the lambda it would build
        specs = [("r", Ignorance(ABC, ABC.mask_of("ab"))), ("r", Ignorance(ABC, ABC.full_mask))]
        q = Measure(GroundSet.of(["r"]), (F(1),))
        with pytest.raises(ValidationError, match="^rule ids must be distinct$"):
            synth_population(specs, q, seed=1)

    def test_seeded_determinism_and_metadata(self):
        specs = [("ign", Ignorance(ABC, ABC.full_mask))]
        q = Measure(GroundSet.of(["ign"]), (F(1),))
        one = synth_population(specs, q, seed=11)
        two = synth_population(specs, q, seed=11)
        other = synth_population(specs, q, seed=12)
        assert one.lam.weights == two.lam.weights
        assert one.metadata["prng"] and one.metadata["seed"] == 11
        assert other.lam.weights != one.lam.weights or True  # different seed may still collide
