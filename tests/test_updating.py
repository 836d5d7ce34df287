"""Average-updating-bias engine tests.

The worked instance: signals {-1, 0, +1} around prior odds 0, a single known
experiment putting half its mass on each informative signal, and data that
piles half the population on the prior.  Every inequality was solved by hand:
the data forces exactly kappa = 1/2 (only positive biases work), and data
fully concentrated on the prior forces kappa = 1.
"""

from fractions import Fraction as F

import pytest

from capid import Capacity, GroundSet, Measure, ValidationError, core_vertices
from capid.identification import IdentificationProblem, ProblemRule, check_rationalizes
from capid.info_specs import ExplicitCapacity
from capid.updating import (
    ExperimentModel,
    KappaRange,
    OddsGrid,
    check_average_bias,
    rationalizing_kappa_interval,
)
from capacity_oracle import literal_from_measure
from helpers import apply_update_rule, average_bias, bayes_posterior, biased_capacity

GRID = OddsGrid.from_values((F(-1), F(0), F(1)), F(0))


def point_experiment_model(weights=(F(1, 2), F(0), F(1, 2))):
    """Singleton experiment set: only E* = weights is admissible."""
    e_star = Measure(GRID.shifted, weights)
    return ExperimentModel(GRID, literal_from_measure(e_star, GRID.shifted.full_mask))


class TestOddsGrid:
    def test_prior_must_be_on_grid(self):
        with pytest.raises(ValidationError):
            OddsGrid.from_values((F(-1), F(1)), F(0))

    def test_shift_is_index_aligned(self):
        grid = OddsGrid.from_values((F(0), F(1), F(2)), F(1))
        assert grid.shifted.labels == (F(-1), F(0), F(1))
        assert grid.null_signal_index == 1


class TestBayesPosterior:
    def test_null_experiment_returns_prior(self):
        e = Measure.point(GRID.shifted, F(0))
        assert bayes_posterior(e, GRID).weights == Measure.point(GRID.ground, F(0)).weights

    def test_identity_shift(self):
        e = Measure(GRID.shifted, (F(1, 2), F(0), F(1, 2)))
        assert bayes_posterior(e, GRID).weights == (F(1, 2), F(0), F(1, 2))

    def test_nonzero_prior_shift(self):
        grid = OddsGrid.from_values((F(0), F(1), F(2)), F(1))
        e = Measure.point(grid.shifted, F(-1))
        posterior = bayes_posterior(e, grid)
        assert posterior.weights == (F(1), F(0), F(0))  # lands on odds value 0


class TestApplyUpdateRule:
    E_STAR = Measure(GRID.shifted, (F(1, 2), F(0), F(1, 2)))

    def test_zero_bias_is_plain_posterior(self):
        assert (
            apply_update_rule(F(0), self.E_STAR, GRID).weights
            == bayes_posterior(self.E_STAR, GRID).weights
        )

    def test_full_bias_collapses_to_prior(self):
        assert apply_update_rule(F(1), self.E_STAR, GRID).weights == (F(0), F(1), F(0))

    def test_half_bias_mixture(self):
        assert apply_update_rule(F(1, 2), self.E_STAR, GRID).weights == (
            F(1, 4), F(1, 2), F(1, 4),
        )

    def test_rejects_kappa_below_floor(self):
        # E*(0) = 0, so any negative kappa creates a negative weight
        with pytest.raises(ValidationError):
            apply_update_rule(F(-1, 10), self.E_STAR, GRID)

    def test_output_is_normalized_for_negative_kappa(self):
        two = OddsGrid.from_values((F(0), F(1)), F(0))
        e = Measure(two.shifted, (F(1, 2), F(1, 2)))
        out = apply_update_rule(F(-1, 2), e, two)
        assert out.weights == (F(1, 4), F(3, 4))
        assert sum(out.weights) == 1


class TestExperimentModel:
    def test_rejects_pure_noise_vertex(self):
        noise = Measure.point(GRID.shifted, F(0))
        with pytest.raises(ValidationError):
            ExperimentModel(GRID, literal_from_measure(noise, GRID.shifted.full_mask))

    def test_rejects_non_convex(self):
        values = tuple(
            F(7, 10) if 0 < m.bit_count() < 3 else (F(0) if m == 0 else F(1))
            for m in GRID.shifted.masks()
        )
        with pytest.raises(ValidationError):
            ExperimentModel(GRID, Capacity(GRID.shifted, values))

    def test_kappa_floor_from_null_mass(self):
        two = OddsGrid.from_values((F(0), F(1)), F(0))
        e = Measure(two.shifted, (F(1, 2), F(1, 2)))
        model = ExperimentModel(two, literal_from_measure(e, two.shifted.full_mask))
        assert model.kappa_floor == F(-1)

    def test_point_model_floor_is_zero(self):
        assert point_experiment_model().kappa_floor == F(0)


class TestBiasedCapacity:
    def test_zero_bias_reproduces_experiment_capacity(self):
        model = point_experiment_model()
        nu0 = biased_capacity(F(0), model, GRID)
        assert nu0.values == model.nu.values  # index-aligned grids

    def test_full_bias_is_prior_point_mass(self):
        model = point_experiment_model()
        nu1 = biased_capacity(F(1), model, GRID)
        expected = literal_from_measure(Measure.point(GRID.ground, F(0)))
        assert nu1.values == expected.values

    def test_half_bias_values(self):
        model = point_experiment_model()
        nu = biased_capacity(F(1, 2), model, GRID)
        assert nu.value(GRID.ground.mask_of([F(0)])) == F(1, 2)
        assert nu.value(GRID.ground.mask_of([F(1)])) == F(1, 4)

    def test_core_vertices_are_update_images(self):
        # admissible experiments: contamination-style blend around E*
        shifted = GRID.shifted
        focal = Measure(shifted, (F(1, 2), F(0), F(1, 2)))
        blend = F(1, 3)
        values = tuple(
            (1 - blend) * focal.mass(m) + (blend if m == shifted.full_mask else F(0))
            for m in shifted.masks()
        )
        model = ExperimentModel(GRID, Capacity(shifted, values))
        for kappa in (F(0), F(1, 4), F(1, 2), F(1)):
            nu_k = biased_capacity(kappa, model, GRID)
            images = {
                apply_update_rule(kappa, e, GRID).weights
                for e in core_vertices(model.nu)
            }
            got = {v.weights for v in core_vertices(nu_k)}
            assert got == images


class TestCheckAverageBias:
    LAM = Measure(GRID.ground, (F(1, 4), F(1, 2), F(1, 4)))

    def test_constructed_data_rationalizes_at_its_kappa(self):
        model = point_experiment_model()
        e_star = core_vertices(model.nu)[0]
        lam = apply_update_rule(F(1, 2), e_star, GRID)
        assert check_average_bias(lam, model, F(1, 2)).rationalizes

    def test_half_prior_mass_needs_half_bias(self):
        model = point_experiment_model()
        assert check_average_bias(self.LAM, model, F(1, 2)).rationalizes

    def test_zero_bias_fails_with_named_subsets(self):
        model = point_experiment_model()
        verdict = check_average_bias(self.LAM, model, F(0))
        assert not verdict.rationalizes
        masks = {m for m, _ in verdict.violated}
        minus_one = GRID.ground.mask_of([F(-1)])
        plus_one = GRID.ground.mask_of([F(1)])
        assert masks == {minus_one, plus_one, minus_one | plus_one}


class TestKappaInterval:
    def test_interval_is_exactly_one_half(self):
        model = point_experiment_model()
        lam = Measure(GRID.ground, (F(1, 4), F(1, 2), F(1, 4)))
        sol = rationalizing_kappa_interval(lam, model)
        assert not sol.empty
        assert (sol.lo, sol.hi) == (F(1, 2), F(1, 2))
        assert sol.diagnosis == "underreaction"
        plus_one = GRID.ground.mask_of([F(1)])
        assert plus_one in sol.under_witnesses
        assert sol.over_witnesses == ()

    def test_prior_point_data_forces_full_bias(self):
        model = point_experiment_model()
        lam = Measure.point(GRID.ground, F(0))
        sol = rationalizing_kappa_interval(lam, model)
        assert (sol.lo, sol.hi) == (F(1), F(1))

    def test_bayes_feasible_when_data_is_posterior(self):
        model = point_experiment_model()
        lam = bayes_posterior(core_vertices(model.nu)[0], GRID)
        sol = rationalizing_kappa_interval(lam, model)
        assert not sol.empty
        assert sol.diagnosis == "bayesian-feasible"
        assert sol.lo <= 0 <= sol.hi

    def test_impossible_when_witnesses_conflict(self):
        # mass below the floor both on a prior subset and a non-prior subset
        two = OddsGrid.from_values((F(0), F(1)), F(0))
        e = Measure(two.shifted, (F(1, 2), F(1, 2)))
        model = ExperimentModel(two, literal_from_measure(e, two.shifted.full_mask))
        lam = Measure(two.ground, (F(1, 4), F(3, 4)))
        # lam({0}) = 1/4 < 1/2 with prior inside; lam({1}) = 3/4 > 1/2: push the
        # other side instead
        sol = rationalizing_kappa_interval(lam, model)
        assert not sol.empty  # one-sided deficit is still solvable
        lam_bad = Measure(two.ground, (F(1, 4), F(3, 4)))
        # shrink the admissible range to exclude the solution
        narrow = KappaRange(F(0), F(1, 10))
        sol2 = rationalizing_kappa_interval(lam_bad, model, narrow)
        assert sol2.empty and sol2.diagnosis == "impossible"

    def test_agrees_with_pointwise_checks(self):
        model = point_experiment_model()
        lam = Measure(GRID.ground, (F(1, 4), F(1, 2), F(1, 4)))
        sol = rationalizing_kappa_interval(lam, model)
        for i in range(101):
            kappa = F(i, 100)
            inside = sol.lo <= kappa <= sol.hi
            assert check_average_bias(lam, model, kappa).rationalizes == inside


class TestModelGrid:
    def test_data_on_another_grid_is_rejected(self):
        # both queries read the grid off the model, whose dominance rows
        # cover 8 subsets where data on a 4-point grid has 16
        four = OddsGrid.from_values((F(-1), F(0), F(1), F(2)), F(0))
        lam = Measure(four.ground, (F(1, 4),) * 4)
        model = point_experiment_model()
        with pytest.raises(ValidationError, match="odds grid"):
            rationalizing_kappa_interval(lam, model)
        with pytest.raises(ValidationError, match="odds grid"):
            check_average_bias(lam, model, F(1, 2))


class TestAverageBias:
    def test_point_at_zero(self):
        q = Measure(GroundSet.of([F(0)]), (F(1),))
        assert average_bias(q) == 0

    def test_signed_average(self):
        q = Measure(GroundSet.of([F(-1, 4), F(3, 4)]), (F(1, 2), F(1, 2)))
        assert average_bias(q) == F(1, 4)

    def test_uniform_three_values(self):
        q = Measure(GroundSet.of([F(0), F(1, 2), F(1)]), (F(1, 3), F(1, 3), F(1, 3)))
        assert average_bias(q) == F(1, 2)


class TestReductionToRuleMixture:
    def test_mixture_check_matches_average_bias(self):
        """Rationalizability by a mix over biases depends only on the mean."""
        model = point_experiment_model()
        kappas = (F(0), F(1, 2), F(1))
        caps = {k: biased_capacity(k, model, GRID) for k in kappas}
        rules = tuple(
            ProblemRule(str(k), ExplicitCapacity(GRID.ground, GRID.ground.full_mask, caps[k]))
            for k in kappas
        )
        rule_ground = GroundSet.of([str(k) for k in kappas])
        lams = [
            Measure(GRID.ground, (F(1, 4), F(1, 2), F(1, 4))),
            Measure(GRID.ground, (F(1, 2), F(0), F(1, 2))),
            Measure(GRID.ground, (F(0), F(1), F(0))),
            Measure(GRID.ground, (F(1, 3), F(1, 3), F(1, 3))),
        ]
        grid_qs = [
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(1, 2), F(0), F(1, 2)),
            (F(1, 5), F(2, 5), F(2, 5)),
            (F(1, 10), F(7, 10), F(1, 5)),
        ]
        for lam in lams:
            problem = IdentificationProblem(GRID.ground, rules, lam)
            for weights in grid_qs:
                q = Measure(rule_ground, weights)
                mean = sum(w * k for w, k in zip(weights, kappas))
                direct = check_average_bias(lam, model, mean).rationalizes
                via_mixture = check_rationalizes(problem, q).rationalizes
                assert direct == via_mixture, (lam.weights, weights)
