"""Model helpers that capid itself does not call, kept for the tests.

The uniform measure on a mask, core membership, pointwise mixtures of
capacities, the Moebius masses of a capacity and the capacity with given
masses, pushforwards of capacities and measures along point maps, the
cylindrical extension of a capacity on a carrier, the choice distribution a
menu distribution induces under a decision rule, Bayes posteriors, the
kappa-updated posteriors of the updating model and the capacity whose core
they form, the average bias of a distribution over update rules, and
maximizing and satisficing decision rules.  The tests use them to build
inputs and to state the theory's facts (cores commute with pushforwards and
mix linearly, the updating reduction), which the engine relies on without
calling them.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from capid.capacity import Capacity, GroundSet, Label, Measure, _moebius, mass_table
from capid.errors import ValidationError
from capid.identification import DecisionRule, MenuCollection
from capid.numeric import Num, fold_sum
from capid.updating import ExperimentModel, OddsGrid
from oracle import eq, ge, tol_for


def uniform(ground: GroundSet, mask: Optional[int] = None) -> Measure:
    """Equal weights on the labels of ``mask`` (default: all), carried by it."""
    mask = ground.full_mask if mask is None else mask
    k = mask.bit_count()
    if k == 0:
        raise ValidationError("cannot spread mass over the empty set")
    w = Fraction(1, k)
    weights = tuple(w if mask >> i & 1 else Fraction(0) for i in range(ground.size))
    return Measure(ground, weights, mask)


def core_contains(nu: Capacity, p: Measure) -> bool:
    """Setwise dominance p(K) >= nu(K) for every subset K."""
    if p.ground != nu.ground:
        raise ValidationError("measure and capacity live on different ground sets")
    tol = tol_for(nu.values, p.weights)
    return all(ge(pk, nuk, tol) for pk, nuk in zip(mass_table(p.weights), nu.values))


def mixture(capacities: Sequence[Capacity], weights: Sequence[Num]) -> Capacity:
    """Pointwise convex combination; preserves convexity."""
    if not capacities or len(capacities) != len(weights):
        raise ValidationError("mixture needs matching capacities and weights")
    ground = capacities[0].ground
    for c in capacities:
        if c.ground != ground:
            raise ValidationError("mixture components live on different ground sets")
    tol = tol_for(weights)
    if any(not ge(w, 0, tol) for w in weights) or not eq(fold_sum(weights), 1, tol):
        raise ValidationError("mixture weights must be a probability vector")
    values = tuple(
        fold_sum(w * c.values[mask] for w, c in zip(weights, capacities))
        for mask in ground.masks()
    )
    carrier = 0
    for w, c in zip(weights, capacities):
        if not eq(w, 0, tol):
            carrier |= c.active
    return Capacity(ground, values, carrier if carrier else None)


def mobius(nu: Capacity) -> tuple[Num, ...]:
    """Moebius masses: mass(K) = sum over J below K of (-1)^|K\\J| nu(J)."""
    return tuple(_moebius(list(nu.values), nu.ground.size))


def capacity_from_mobius(
    ground: GroundSet, mass: Sequence[Num], carrier: Optional[int] = None
) -> Capacity:
    """The capacity whose Moebius masses are ``mass``."""
    if len(mass) != 1 << ground.size:
        raise ValidationError("mass vector has wrong length")
    return Capacity(ground, tuple(zeta(mass, ground.size)), carrier)


def zeta(mass: Sequence[Num], n: int) -> list[Num]:
    """The inverse of the Moebius transform on n labels, O(n 2^n):
    f(K) = sum over J below K of mass(J), summed label by label."""
    values = list(mass)
    for i in range(n):
        bit = 1 << i
        for mask in range(len(values)):
            if mask & bit:
                values[mask] += values[mask ^ bit]
    return values


def cylindrical_extension(nu_on_c: Capacity, ground: GroundSet) -> Capacity:
    """View a capacity on C as one on a larger ground set via nu'(K) = nu(K & C)."""
    for label in nu_on_c.ground.labels:
        if label not in ground:
            raise ValidationError(f"carrier label {label!r} missing from the target ground set")
    carrier = ground.mask_of(nu_on_c.ground.labels)
    positions = [ground.index(l) for l in nu_on_c.ground.labels]
    values = []
    for mask in ground.masks():
        small = 0
        for j, pos in enumerate(positions):
            if mask >> pos & 1:
                small |= 1 << j
        values.append(nu_on_c.values[small])
    return Capacity(ground, tuple(values), carrier)


def pushforward(
    psi: Capacity, mapping: Mapping[Label, Label], target: GroundSet
) -> Capacity:
    """Image capacity nu(K) = psi(preimage of K) along a total point map.

    Convexity survives the pushforward, and the core of the image is exactly
    the set of image measures of the core.
    """
    preimage_bits = []
    for label in psi.ground.labels:
        if label not in mapping:
            raise ValidationError(f"map is not total: {label!r} has no image")
        preimage_bits.append(target.singleton(mapping[label]))
    values = []
    for mask in target.masks():
        pre = 0
        for i, bit in enumerate(preimage_bits):
            if bit & mask:
                pre |= 1 << i
        values.append(psi.values[pre])
    image = 0
    for bit in preimage_bits:
        image |= bit
    return Capacity(target, tuple(values), image)


def pushforward_measure(
    pi: Measure, mapping: Mapping[Label, Label], target: GroundSet
) -> Measure:
    """Image measure of ``pi`` along a total point map into ``target``."""
    weights: list[Num] = [0] * target.size
    image = 0
    for i, label in enumerate(pi.ground.labels):
        if label not in mapping:
            raise ValidationError(f"map is not total: {label!r} has no image")
        j = target.index(mapping[label])
        weights[j] = weights[j] + pi.weights[i]
        image |= 1 << j
    return Measure(target, tuple(weights), image)


def induce_choice_distribution(
    pi: Measure, rule: DecisionRule, collection: MenuCollection
) -> Measure:
    """Distribution over chosen alternatives induced by a menu distribution."""
    rule.validate_on(collection)
    if pi.ground != collection.menu_ground():
        raise ValidationError("menu measure does not match the collection")
    choice_map = {str(i): c for i, c in enumerate(rule.choices)}
    return pushforward_measure(pi, choice_map, collection.ground)


def bayes_posterior(experiment: Measure, grid: OddsGrid) -> Measure:
    """Posterior odds when the change in odds is distributed as the signal."""
    if experiment.ground != grid.shifted:
        raise ValidationError("experiment must live on the shifted grid")
    return Measure(grid.ground, experiment.weights)


def apply_update_rule(kappa: Num, experiment: Measure, grid: OddsGrid) -> Measure:
    """Blend the posterior with the prior point mass at weight kappa.

    kappa = 0 reproduces ``bayes_posterior``; kappa = 1 collapses onto the
    prior.  Negative kappa overshoots away from the prior and is admissible
    only while all probabilities stay nonnegative.
    """
    if kappa > 1:
        raise ValidationError("kappa cannot exceed 1")
    posterior = bayes_posterior(experiment, grid)
    prior_idx = grid.ground.index(grid.prior)
    weights = list((1 - kappa) * w for w in posterior.weights)
    weights[prior_idx] += kappa
    tol = tol_for(weights)
    for w in weights:
        if not ge(w, 0, tol):
            raise ValidationError(
                f"kappa {kappa} drives a posterior weight negative; it lies "
                "below the admissible floor for this experiment"
            )
    return Measure(grid.ground, tuple(weights))


def prior_mask(grid: OddsGrid) -> int:
    """The mask of the grid's prior point on its odds labels."""
    return grid.ground.singleton(grid.prior)


def biased_capacity(kappa: Num, model: ExperimentModel, grid: OddsGrid) -> Capacity:
    """Capacity whose core is the set of kappa-updated posterior distributions.

    Values blend the experiment capacity of the recentred subset with the
    indicator of the prior's membership; this stays convex for every kappa in
    the admissible range, negative values included.
    """
    if not (model.above_floor(kappa) and kappa <= 1):
        raise ValidationError(f"kappa {kappa} outside the admissible range")
    prior = prior_mask(grid)
    values = tuple(
        (1 - kappa) * model.nu.values[mask] + (kappa if mask & prior else 0)
        for mask in grid.ground.masks()
    )
    return Capacity(grid.ground, values)


def average_bias(q: Measure) -> Num:
    """Mean kappa of a distribution over update rules (labels are kappas)."""
    return sum(w * label for w, label in zip(q.weights, q.ground.labels))


class PreferenceOrder:
    """Strict ranking over all alternatives, best first."""

    def __init__(self, ranking: tuple[Label, ...]) -> None:
        self.ranking = ranking

    def name(self) -> str:
        return "pref:" + ">".join(str(l) for l in self.ranking)


def rules_from_preferences(
    orders: Sequence[PreferenceOrder], collection: MenuCollection
) -> list[DecisionRule]:
    """Maximizers: each rule picks its highest-ranked member of every menu."""
    ground = collection.ground
    out = []
    for order in orders:
        if set(order.ranking) != set(ground.labels):
            raise ValidationError("ranking must be a permutation of the ground set")
        choices = []
        for menu in collection.menus:
            best = next(l for l in order.ranking if ground.singleton(l) & menu)
            choices.append(best)
        out.append(DecisionRule(order.name(), tuple(choices)))
    return out


@dataclass(frozen=True)
class SatisficingSpec:
    """Threshold search: values, an aspiration level, and a consideration order."""

    values: tuple[tuple[Label, Num], ...]
    threshold: Num
    search_order: tuple[Label, ...]

    def value_of(self, label: Label) -> Num:
        for key, v in self.values:
            if key == label:
                return v
        raise ValidationError(f"no value assigned to {label!r}")


def rules_from_satisficing(
    specs: Sequence[SatisficingSpec], collection: MenuCollection
) -> list[DecisionRule]:
    """Threshold searchers walking their consideration order within each menu.

    The first satisfactory alternative is taken; when a menu offers none, the
    searcher settles for the menu's last alternative in consideration order.
    """
    ground = collection.ground
    out = []
    for idx, spec in enumerate(specs):
        if set(spec.search_order) != set(ground.labels):
            raise ValidationError("search order must be a permutation of the ground set")
        choices = []
        for menu in collection.menus:
            in_menu = [l for l in spec.search_order if ground.singleton(l) & menu]
            pick = next(
                (l for l in in_menu if spec.value_of(l) >= spec.threshold),
                in_menu[-1],
            )
            choices.append(pick)
        out.append(DecisionRule(f"sat{idx}:{spec.threshold}", tuple(choices)))
    return out
