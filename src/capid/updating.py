"""Identification of the average updating bias from posterior-odds data.

The population holds a common prior log-odds value and each individual runs
an unobserved experiment, then updates by a rule that blends the standard
posterior with inertia toward the prior: weight kappa on the prior point mass
(kappa > 0 underreacts to information, kappa < 0 overreacts).  The analyst's
knowledge of experiments is a convex capacity over signal shifts whose core
is the admissible experiment set.

Whether a distribution over update rules explains the observed cross-section
of posterior odds turns out to depend only on its mean kappa, so the engine
reduces to a one-dimensional question: ``rationalizing_kappa_interval``
intersects one linear inequality per subset of odds values and reports the
exact interval of admissible average biases, plus a diagnosis of which way
the data deviates from pure-noise-free updating.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

# core_vertices is no longer called here, but perfbench/tracing.py rebinds
# capid.updating.core_vertices, so the name stays importable from this module
from .capacity import (  # noqa: F401
    Capacity, GroundSet, Measure, core_vertices, is_convex, mass_table,
)
from .errors import ValidationError
from .identification import Verdict, dominance_verdict
from .numeric import Num, ge, tol_for


class OddsGrid:
    """Finite grid of log-odds values with a designated prior point.

    ``ground`` carries the odds values themselves as labels; ``shifted``
    carries the same grid recentred at the prior (signal space).  The two are
    index-aligned, so subset masks transfer between them unchanged.
    """

    def __init__(self, ground: GroundSet, prior: Num, shifted: GroundSet) -> None:
        self.ground = ground
        self.prior = prior
        self.shifted = shifted

    @classmethod
    def from_values(cls, values: Sequence[Num], prior: Num) -> "OddsGrid":
        if prior not in values:
            raise ValidationError("prior odds value must belong to the grid")
        ground = GroundSet(tuple(values))
        shifted = GroundSet(tuple(v - prior for v in values))
        return cls(ground, prior, shifted)

    @property
    def prior_mask(self) -> int:
        return self.ground.singleton(self.prior)

    @property
    def null_signal_index(self) -> int:
        return self.shifted.index(self.prior - self.prior)


class ExperimentModel:
    """Admissible experiments as the core of a convex capacity on signals.

    The core of a convex capacity attains nu(K) for every K, so the null
    signal's mass over admissible experiments ranges from nu({0}) to
    1 - nu(X minus {0}).  An experiment that is pure noise (mass 1 on the
    null signal) leaves the inertia floor undefined, so a model admitting
    one, i.e. with nu(X minus {0}) = 0, is rejected.
    """

    def __init__(self, grid: OddsGrid, nu: Capacity) -> None:
        self.grid = grid
        self.nu = nu
        self.__post_init__()

    # the checks stay a method of their own: perfbench/tracing.py times the
    # experiment-model layer under this name
    def __post_init__(self) -> None:
        if self.nu.ground != self.grid.shifted:
            raise ValidationError("experiment capacity must live on the shifted grid")
        if not is_convex(self.nu):
            raise ValidationError("experiment capacity must be convex")
        signal = self.nu.ground.full_mask & ~(1 << self.grid.null_signal_index)
        if self.nu.values[signal] <= self.nu.tol:
            raise ValidationError(
                "an admissible experiment is allowed to be pure noise "
                "(mass 1 on the null signal); such models are rejected"
            )

    @property
    def kappa_floor(self) -> Num:
        """Largest inertia weight floor over admissible experiments.

        The floor -w/(1-w) falls as the null-signal mass w grows, so the
        largest one comes from the smallest mass, nu({0}).
        """
        null = self.nu.values[1 << self.grid.null_signal_index]
        return -null / (1 - null)


class KappaRange:
    """Admissible bias interval, clipped to [model floor, 1]."""

    def __init__(self, lo: Num, hi: Num) -> None:
        self.lo = lo
        self.hi = hi
        if self.lo > self.hi:
            raise ValidationError("empty kappa range")
        if self.hi > 1:
            raise ValidationError("kappa cannot exceed 1")

    @classmethod
    def for_model(
        cls, model: ExperimentModel, lo: Optional[Num] = None, hi: Optional[Num] = None
    ) -> "KappaRange":
        floor = model.kappa_floor
        lo = floor if lo is None else max(lo, floor)
        hi = Fraction(1) if hi is None else min(hi, Fraction(1))
        return cls(lo, hi)

    def contains(self, kappa: Num) -> bool:
        return self.lo <= kappa <= self.hi


def biased_capacity(kappa: Num, model: ExperimentModel, grid: OddsGrid) -> Capacity:
    """Capacity whose core is the set of kappa-updated posterior distributions.

    Values blend the experiment capacity of the recentred subset with the
    indicator of the prior's membership; this stays convex for every kappa in
    the admissible range, negative values included.
    """
    if not KappaRange.for_model(model).contains(kappa):
        raise ValidationError(f"kappa {kappa} outside the admissible range")
    prior_mask = grid.prior_mask
    values = tuple(
        (1 - kappa) * model.nu.values[mask] + (kappa if mask & prior_mask else 0)
        for mask in grid.ground.masks()
    )
    return Capacity(grid.ground, values)


def check_average_bias(
    lam: Measure, model: ExperimentModel, grid: OddsGrid, kappa_av: Num
) -> Verdict:
    """Dominance verdict at a single average bias.

    Rationalizability by any rule mix depends only on the mean kappa, so this
    one check settles every mix with that mean.
    """
    if lam.ground != grid.ground:
        raise ValidationError("data must live on the odds grid")
    nu_k = biased_capacity(kappa_av, model, grid)
    return dominance_verdict(lam, [nu_k], [Fraction(1)])


class KappaSolution:
    """Exact interval of rationalizing average biases plus a diagnosis.

    ``diagnosis`` is one of "bayesian-feasible" (zero bias works),
    "underreaction" (only positive biases work), "overreaction" (only
    negative), or "impossible".  The witness masks collect the subsets whose
    data mass falls below the pure-posterior floor, split by whether the
    prior belongs to the subset.
    """

    def __init__(
        self,
        empty: bool,
        lo: Optional[Num],
        hi: Optional[Num],
        diagnosis: str,
        under_witnesses: tuple[int, ...],
        over_witnesses: tuple[int, ...],
    ) -> None:
        self.empty = empty
        self.lo = lo
        self.hi = hi
        self.diagnosis = diagnosis
        self.under_witnesses = under_witnesses
        self.over_witnesses = over_witnesses


def rationalizing_kappa_interval(
    lam: Measure,
    model: ExperimentModel,
    grid: OddsGrid,
    krange: Optional[KappaRange] = None,
) -> KappaSolution:
    """Intersect the per-subset linear inequalities in the average bias.

    Every subset K yields ``lam(K) >= (1-kappa) nu(K recentred) + kappa [prior in K]``,
    a half-line in kappa; the admissible interval is their intersection with
    the model range.
    """
    if lam.ground != grid.ground:
        raise ValidationError("data must live on the odds grid")
    krange = KappaRange.for_model(model) if krange is None else KappaRange.for_model(
        model, krange.lo, krange.hi
    )
    tol = tol_for(lam.weights, model.nu.values)
    prior_mask = grid.prior_mask
    lo: Num = krange.lo
    hi: Num = krange.hi
    empty = False
    under: list[int] = []
    over: list[int] = []
    for mask, (base, lam_k) in enumerate(zip(model.nu.values, mass_table(lam.weights))):
        in_prior = 1 if mask & prior_mask else 0
        if lam_k < base - tol:
            # data falls below the zero-bias floor on this subset
            (over if in_prior else under).append(mask)
        coeff = in_prior - base
        slackv = lam_k - base
        if coeff > tol:
            bound = slackv / coeff
            if bound < hi:
                hi = bound
        elif coeff < -tol:
            bound = slackv / coeff
            if bound > lo:
                lo = bound
        elif slackv < -tol:
            empty = True
    if not empty and lo > hi + tol:
        empty = True
    if empty:
        return KappaSolution(True, None, None, "impossible", tuple(under), tuple(over))
    if lo > hi:
        hi = lo
    if ge(0, lo, tol) and ge(hi, 0, tol):
        diagnosis = "bayesian-feasible"
    elif lo > 0:
        diagnosis = "underreaction"
    else:
        diagnosis = "overreaction"
    return KappaSolution(False, lo, hi, diagnosis, tuple(under), tuple(over))
