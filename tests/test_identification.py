"""Identification engine tests.

Two fully worked instances anchor this file.  The first uses three nested
menus over {a,b,c} and the six strict preference orders under complete menu
ignorance; its non-redundant inequality set, admissible weights, and sharp
bounds were derived by hand from the dominance conditions.  The second uses
two orders over four menus with uniform data, where the witness split and
the menu-homogeneous distribution are pinned down uniquely by arithmetic.
"""

from fractions import Fraction as F

import pytest

import oracle

from capid import (
    CapidError,
    GroundSet,
    InfeasibleSetError,
    Measure,
    ValidationError,
)
from capid.identification import (
    DecisionRule,
    IdentificationProblem,
    MenuCollection,
    ProblemRule,
    Verdict,
    check_menu_homogeneous,
    check_rationalizes,
    choice_range,
    exists_rationalizing,
    identified_vertices,
    menu_measure,
    probability_bounds,
    problem_from_info_specs,
    witness_decomposition,
)
from capid.info_specs import Contamination, ExplicitCapacity, Ignorance, PointMass
from helpers import (
    PreferenceOrder,
    core_contains,
    induce_choice_distribution,
    rules_from_preferences,
    uniform,
)

ABC = GroundSet.of("abc")

SIX_ORDERS = [
    PreferenceOrder(("a", "b", "c")),
    PreferenceOrder(("a", "c", "b")),
    PreferenceOrder(("b", "a", "c")),
    PreferenceOrder(("b", "c", "a")),
    PreferenceOrder(("c", "a", "b")),
    PreferenceOrder(("c", "b", "a")),
]

NESTED_MENUS = MenuCollection.of(ABC, [["a"], ["a", "b"], ["a", "b", "c"]])
NESTED_MENUS_NO_SINGLETON = MenuCollection.of(ABC, [["a", "b"], ["a", "b", "c"]])


def ignorance_problem(collection, lam_weights):
    """Six preference maximizers under complete menu ignorance."""
    rules = rules_from_preferences(SIX_ORDERS, collection)
    specs = [
        (r.rule_id, Ignorance(ABC, choice_range(r, collection))) for r in rules
    ]
    lam = Measure(ABC, tuple(F(w) for w in lam_weights))
    return problem_from_info_specs(ABC, specs, lam), rules


def q_over(problem, weights):
    return Measure(problem.rule_ground(), tuple(F(w) for w in weights))


class TestChoiceRange:
    def test_b_first_order_on_nested_menus(self):
        rules = rules_from_preferences(SIX_ORDERS, NESTED_MENUS)
        # b > a > c picks a from {a}, then b twice
        assert choice_range(rules[2], NESTED_MENUS) == ABC.mask_of("ab")

    def test_b_first_order_without_singleton(self):
        rules = rules_from_preferences(SIX_ORDERS, NESTED_MENUS_NO_SINGLETON)
        assert choice_range(rules[2], NESTED_MENUS_NO_SINGLETON) == ABC.mask_of("b")

    def test_singleton_collection(self):
        only_a = MenuCollection.of(ABC, [["a"]])
        rule = DecisionRule("r", ("a",))
        assert choice_range(rule, only_a) == ABC.mask_of("a")


class TestInduceChoiceDistribution:
    MENUS = MenuCollection.of(ABC, [["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]])

    def test_point_menu_measure(self):
        rule = DecisionRule("d1", ("a", "a", "b", "a"))
        pi = Measure.point(self.MENUS.menu_ground(), "2")
        rho = induce_choice_distribution(pi, rule, self.MENUS)
        assert rho.weights == (F(0), F(1), F(0))

    def test_half_mass_on_pair_menu(self):
        rule = DecisionRule("d1", ("a", "a", "b", "a"))
        pi = Measure(self.MENUS.menu_ground(), (F(0), F(0), F(1, 2), F(1, 2)))
        rho = induce_choice_distribution(pi, rule, self.MENUS)
        assert rho.weights == (F(1, 2), F(1, 2), F(0))

    def test_point_on_leftover_menu(self):
        rule = DecisionRule("d2", ("a", "a", "c", "a"))
        pi = Measure.point(self.MENUS.menu_ground(), "2")
        rho = induce_choice_distribution(pi, rule, self.MENUS)
        assert rho.weights == (F(0), F(0), F(1))


class TestNestedMenusInstance:
    """Three nested menus, six orders, complete ignorance."""

    def test_non_redundant_constraints_with_singleton(self):
        problem, _ = ignorance_problem(NESTED_MENUS, ["1/2", "1/4", "1/4"])
        kept = oracle.non_redundant_constraints(problem)
        got = {(mask, coeffs) for mask, coeffs, _ in kept}
        one, zero = F(1), F(0)
        assert got == {
            (ABC.mask_of("a"), (one, one, zero, zero, zero, zero)),
            (ABC.mask_of("ab"), (one, one, one, one, zero, zero)),
            (ABC.mask_of("ac"), (one, one, zero, zero, one, zero)),
        }

    def test_two_additional_constraints_without_singleton(self):
        with_menu, _ = ignorance_problem(NESTED_MENUS, ["1/2", "1/4", "1/4"])
        without, _ = ignorance_problem(
            NESTED_MENUS_NO_SINGLETON, ["1/2", "1/4", "1/4"]
        )
        kept_with = {(m, c) for m, c, _ in oracle.non_redundant_constraints(with_menu)}
        kept_without = {(m, c) for m, c, _ in oracle.non_redundant_constraints(without)}
        one, zero = F(1), F(0)
        extra = {
            (ABC.mask_of("b"), (zero, zero, one, one, zero, zero)),
            (ABC.mask_of("bc"), (zero, zero, one, one, zero, one)),
        }
        assert kept_without == kept_with | extra

    def test_quarter_weights_pass_with_singleton(self):
        problem, _ = ignorance_problem(NESTED_MENUS, ["1/2", "1/4", "1/4"])
        q = q_over(problem, ["1/4", 0, "1/4", "1/4", 0, "1/4"])
        verdict = check_rationalizes(problem, q)
        assert verdict.rationalizes and verdict.violated == ()

    def test_point_mass_on_own_data_rationalizes(self):
        lam = Measure(ABC, (F(1, 2), F(1, 3), F(1, 6)))
        specs = [("only", PointMass(ABC, ABC.full_mask, lam))]
        problem = problem_from_info_specs(ABC, specs, lam)
        q = Measure(problem.rule_ground(), (F(1),))
        assert check_rationalizes(problem, q).rationalizes

    def test_exists_under_complete_ignorance_with_covered_support(self):
        specs = [
            ("ab", Ignorance(ABC, ABC.mask_of("ab"))),
            ("c", Ignorance(ABC, ABC.mask_of("c"))),
        ]
        lam = Measure(ABC, (F(1, 5), F(2, 5), F(2, 5)))
        q = exists_rationalizing(problem_from_info_specs(ABC, specs, lam))
        assert q is not None

    def test_quarter_weights_fail_without_singleton(self):
        problem, _ = ignorance_problem(
            NESTED_MENUS_NO_SINGLETON, ["1/2", "1/4", "1/4"]
        )
        q = q_over(problem, ["1/4", 0, "1/4", "1/4", 0, "1/4"])
        verdict = check_rationalizes(problem, q)
        assert not verdict.rationalizes
        shortfalls = dict(verdict.violated)
        # data gives b only 1/4 but the b-first rules carry 1/2
        assert shortfalls[ABC.mask_of("b")] == F(1, 4)
        # and {b,c} carries 3/4 against data mass 1/2
        assert shortfalls[ABC.mask_of("bc")] == F(1, 4)
        assert verdict.violation_count == 2

    def test_max_weight_of_a_first_rule_is_half(self):
        problem, _ = ignorance_problem(NESTED_MENUS, ["1/2", "1/4", "1/4"])
        bounds = probability_bounds(problem)
        assert bounds["pref:a>b>c"][1] == F(1, 2)

    def test_violations_come_in_increasing_mask_order(self):
        problem, _ = ignorance_problem(
            NESTED_MENUS_NO_SINGLETON, ["1/2", "1/4", "1/4"]
        )
        q = q_over(problem, ["1/4", 0, "1/4", "1/4", 0, "1/4"])
        masks = [m for m, _ in check_rationalizes(problem, q).violated]
        assert masks == sorted(masks)

    def test_violation_list_caps_at_64_with_full_count(self):
        big = GroundSet.of("abcdefgh")
        specs = [("u", PointMass(big, big.full_mask, uniform(big)))]
        lam = Measure.point(big, "a")
        problem = problem_from_info_specs(big, specs, lam)
        q = Measure(problem.rule_ground(), (F(1),))
        verdict = check_rationalizes(problem, q)
        assert not verdict.rationalizes
        # every nonempty subset missing "a" falls short: 2^7 - 1 of them
        assert verdict.violation_count == 127
        assert len(verdict.violated) == 64
        masks = [m for m, _ in verdict.violated]
        assert masks == sorted(masks)


class TestTwoOrderInstance:
    """Two orders, four menus, uniform data."""

    MENUS = MenuCollection.of(ABC, [["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]])
    ORDERS = [PreferenceOrder(("a", "b", "c")), PreferenceOrder(("a", "c", "b"))]

    def build(self):
        rules = rules_from_preferences(self.ORDERS, self.MENUS)
        specs = [
            (r.rule_id, Ignorance(ABC, choice_range(r, self.MENUS))) for r in rules
        ]
        lam = Measure(ABC, (F(1, 3), F(1, 3), F(1, 3)))
        return problem_from_info_specs(ABC, specs, lam), rules, lam

    def test_carriers(self):
        _, rules, _ = self.build()
        assert choice_range(rules[0], self.MENUS) == ABC.mask_of("ab")
        assert choice_range(rules[1], self.MENUS) == ABC.mask_of("ac")

    def test_two_thirds_one_third_rationalizes(self):
        problem, _, _ = self.build()
        q = q_over(problem, ["2/3", "1/3"])
        assert check_rationalizes(problem, q).rationalizes

    def test_witness_split_is_unique(self):
        problem, _, lam = self.build()
        q = q_over(problem, ["2/3", "1/3"])
        witness = witness_decomposition(problem, q)
        assert witness["pref:a>b>c"].weights == (F(1, 2), F(1, 2), F(0))
        assert witness["pref:a>c>b"].weights == (F(0), F(0), F(1))
        mixed = [
            sum(q.weight(rid) * witness[rid].weights[i] for rid in witness)
            for i in range(3)
        ]
        assert tuple(mixed) == lam.weights

    def test_exists_returns_admissible_q(self):
        problem, _, _ = self.build()
        q = exists_rationalizing(problem)
        assert q is not None
        assert check_rationalizes(problem, q).rationalizes

    def test_identified_vertices(self):
        problem, _, _ = self.build()
        verts = {v.weights for v in identified_vertices(problem)}
        assert verts == {(F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))}

    def test_menu_homogeneity_rejects_two_thirds(self):
        problem, rules, lam = self.build()
        q = q_over(problem, ["2/3", "1/3"])
        assert check_menu_homogeneous(rules, self.MENUS, lam, q) is None

    def test_menu_homogeneity_accepts_equal_split(self):
        problem, rules, lam = self.build()
        q = q_over(problem, ["1/2", "1/2"])
        pi = check_menu_homogeneous(rules, self.MENUS, lam, q)
        assert pi is not None
        assert pi.weights[2] == F(2, 3)  # the {b,c} menu

    def homogeneous_grid_weights(self, problem, rules, lam):
        """Q on the step-1/10 grid that admit a shared menu distribution."""
        return [
            combo
            for combo in oracle.weight_grid(2, 10)
            if check_menu_homogeneous(
                rules, self.MENUS, lam, Measure(problem.rule_ground(), combo)
            )
            is not None
        ]

    def test_sweep_finds_only_equal_split(self):
        problem, rules, lam = self.build()
        found = self.homogeneous_grid_weights(problem, rules, lam)
        assert found == [(F(1, 2), F(1, 2))]

    def test_single_rule_reduces_to_induced_distribution(self):
        _, rules, _ = self.build()
        rule = rules[0]  # picks a,a,b,a across the four menus
        q = Measure(GroundSet.of([rule.rule_id]), (F(1),))
        reachable = Measure(ABC, (F(3, 4), F(1, 4), F(0)))
        pi = check_menu_homogeneous([rule], self.MENUS, reachable, q)
        assert pi is not None
        assert induce_choice_distribution(pi, rule, self.MENUS).weights == reachable.weights
        unreachable = Measure(ABC, (F(0), F(0), F(1)))  # the rule never picks c
        assert check_menu_homogeneous([rule], self.MENUS, unreachable, q) is None

    def test_homogeneous_weights_also_rationalize(self):
        # menu-homogeneity only shrinks the admissible set
        problem, rules, lam = self.build()
        for combo in self.homogeneous_grid_weights(problem, rules, lam):
            q = Measure(problem.rule_ground(), combo)
            assert check_rationalizes(problem, q).rationalizes


class TestConstructMenuMeasures:
    MENUS = MenuCollection.of(ABC, [["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]])

    def test_point_distribution(self):
        rule = DecisionRule("d", ("a", "a", "b", "a"))
        rho = Measure(ABC, (F(1), F(0), F(0)), ABC.mask_of("ab"))
        pi = menu_measure(rho, rule, self.MENUS)
        assert pi.weights == (F(1), F(0), F(0), F(0))

    def test_witness_puts_half_on_first_b_menu(self):
        rule = DecisionRule("d", ("a", "a", "b", "a"))
        rho = Measure(ABC, (F(1, 2), F(1, 2), F(0)), ABC.mask_of("ab"))
        pi = menu_measure(rho, rule, self.MENUS)
        assert pi.weights == (F(1, 2), F(0), F(1, 2), F(0))

    def test_round_trip(self):
        rule = DecisionRule("d", ("a", "a", "b", "a"))
        rho = Measure(ABC, (F(1, 4), F(3, 4), F(0)), ABC.mask_of("ab"))
        pi = menu_measure(rho, rule, self.MENUS)
        back = induce_choice_distribution(pi, rule, self.MENUS)
        assert back.weights == rho.weights

    def test_rejects_mass_outside_range(self):
        rule = DecisionRule("d", ("a", "a", "a", "a"))
        rho = Measure(ABC, (F(1, 2), F(1, 2), F(0)))
        with pytest.raises(ValidationError):
            menu_measure(rho, rule, self.MENUS)


class TestDisjointCarriers:
    def test_point_identification(self):
        specs = [
            ("left", Ignorance(ABC, ABC.mask_of("a"))),
            ("right", Ignorance(ABC, ABC.mask_of("bc"))),
        ]
        lam = Measure(ABC, (F(1, 2), F(1, 4), F(1, 4)))
        problem = problem_from_info_specs(ABC, specs, lam)
        verts = identified_vertices(problem)
        assert len(verts) == 1
        assert verts[0].weights == (F(1, 2), F(1, 2))

    def test_single_rule(self):
        specs = [("only", Ignorance(ABC, ABC.full_mask))]
        lam = Measure(ABC, (F(1, 3), F(1, 3), F(1, 3)))
        problem = problem_from_info_specs(ABC, specs, lam)
        verts = identified_vertices(problem)
        assert len(verts) == 1 and verts[0].weights == (F(1),)

    def test_infeasible_raises(self):
        specs = [("only", PointMass(ABC, ABC.mask_of("a"), Measure.point(ABC, "a")))]
        lam = Measure(ABC, (F(0), F(1), F(0)))
        problem = problem_from_info_specs(ABC, specs, lam)
        assert exists_rationalizing(problem) is None
        with pytest.raises(InfeasibleSetError):
            identified_vertices(problem)
        with pytest.raises(InfeasibleSetError):
            probability_bounds(problem)

    def test_bounds_degenerate_at_carrier_masses(self):
        specs = [
            ("left", Ignorance(ABC, ABC.mask_of("a"))),
            ("right", Ignorance(ABC, ABC.mask_of("bc"))),
        ]
        lam = Measure(ABC, (F(1, 2), F(1, 4), F(1, 4)))
        bounds = probability_bounds(problem_from_info_specs(ABC, specs, lam))
        assert bounds == {"left": (F(1, 2), F(1, 2)), "right": (F(1, 2), F(1, 2))}

    def test_single_rule_bounds_are_unit(self):
        specs = [("only", Ignorance(ABC, ABC.full_mask))]
        lam = uniform(ABC)
        bounds = probability_bounds(problem_from_info_specs(ABC, specs, lam))
        assert bounds == {"only": (F(1), F(1))}


class TestSoundness:
    def test_vertices_and_bounds_certified(self):
        problem, _ = ignorance_problem(NESTED_MENUS, ["1/2", "1/4", "1/4"])
        for v in identified_vertices(problem):
            assert check_rationalizes(problem, v).rationalizes
        bounds = probability_bounds(problem)
        for rid, (lo, hi) in bounds.items():
            assert 0 <= lo <= hi <= 1

    def test_witness_members_belong_to_cores(self):
        problem, _ = ignorance_problem(NESTED_MENUS, ["1/2", "1/4", "1/4"])
        q = q_over(problem, ["1/4", 0, "1/4", "1/4", 0, "1/4"])
        witness = witness_decomposition(problem, q)
        by_id = {r.rule_id: r for r in problem.rules}
        for rid, rho in witness.items():
            assert core_contains(by_id[rid].capacity, rho)

    def test_witness_requires_admissible_q(self):
        problem, _ = ignorance_problem(
            NESTED_MENUS_NO_SINGLETON, ["1/2", "1/4", "1/4"]
        )
        q = q_over(problem, ["1/4", 0, "1/4", "1/4", 0, "1/4"])
        with pytest.raises(ValidationError):
            witness_decomposition(problem, q)


class TestMonotonicityInInformation:
    def test_bounds_nest_as_confidence_grows(self):
        focal_one = Measure(ABC, (F(2, 3), F(1, 3), F(0)), ABC.mask_of("ab"))
        focal_two = Measure(ABC, (F(0), F(1, 2), F(1, 2)), ABC.mask_of("bc"))
        lam = Measure(
            ABC,
            tuple(
                F(1, 2) * a + F(1, 2) * b
                for a, b in zip(focal_one.weights, focal_two.weights)
            ),
        )
        previous = None
        for eps in (F(1, 4), F(1, 2), F(3, 4), F(1)):
            specs = [
                ("one", Contamination(ABC, ABC.mask_of("ab"), focal_one, eps)),
                ("two", Contamination(ABC, ABC.mask_of("bc"), focal_two, eps)),
            ]
            problem = problem_from_info_specs(ABC, specs, lam)
            bounds = probability_bounds(problem)
            if previous is not None:
                for rid in bounds:
                    lo, hi = bounds[rid]
                    plo, phi = previous[rid]
                    assert lo <= plo and phi <= hi
            previous = bounds


class TestVerdict:
    def test_inconsistent_flag_is_an_internal_error(self):
        with pytest.raises(CapidError) as info:
            Verdict(rationalizes=True, violated=((1, F(1, 4)),), violation_count=1)
        assert not isinstance(info.value, ValidationError)
        with pytest.raises(CapidError):
            Verdict(rationalizes=False, violated=(), violation_count=0)

    def test_consistent_verdicts_build(self):
        assert Verdict(True, (), 0).rationalizes
        assert not Verdict(False, ((1, F(1, 4)),), 1).rationalizes


class TestCompleteIgnoranceReduction:
    def test_dominance_specializes_to_carrier_counting(self):
        problem, _ = ignorance_problem(NESTED_MENUS, ["1/2", "1/4", "1/4"])
        carriers = [r.spec.carrier for r in problem.rules]
        for q_weights in [
            ("1/4", 0, "1/4", "1/4", 0, "1/4"),
            ("1/6",) * 6,
            (1, 0, 0, 0, 0, 0),
        ]:
            q = q_over(problem, list(q_weights))
            verdict = check_rationalizes(problem, q)
            # independent evaluation of the carrier-counting inequalities
            ok = all(
                problem.data.mass(mask)
                >= sum(
                    w
                    for w, c in zip(q.weights, carriers)
                    if mask & c == c
                )
                for mask in ABC.masks()
            )
            assert verdict.rationalizes == ok


class TestProblemValidation:
    def test_rejects_non_convex_capacity(self):
        from capid import Capacity

        bad = Capacity(ABC, tuple(
            F(7, 10) if 0 < m.bit_count() < 3 else F(m.bit_count() // 3)
            for m in ABC.masks()
        ))
        with pytest.raises(ValidationError):
            IdentificationProblem(
                ABC,
                (ProblemRule("r", ExplicitCapacity(ABC, ABC.full_mask, bad)),),
                uniform(ABC),
            )

    def test_rejects_duplicate_ids(self):
        spec = Ignorance(ABC, ABC.full_mask)
        with pytest.raises(ValidationError):
            IdentificationProblem(
                ABC,
                (
                    ProblemRule("r", spec),
                    ProblemRule("r", spec),
                ),
                uniform(ABC),
            )
