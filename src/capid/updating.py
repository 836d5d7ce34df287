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

The kappa-updated capacity is the (1 - kappa, kappa) mixture of Bayesian
updating under nu and full inertia on the prior, so both answers read that
pair's int dominance rows (``identification._dominance_rows``), float mode's
tolerance as one int shift; the endpoints are exact quotients of the ints,
which float mode rounds to doubles once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

# core_vertices is no longer called here, but perfbench/tracing.py rebinds
# capid.updating.core_vertices, so the name stays importable from this module
from .capacity import Capacity, GroundSet, Measure, core_vertices, is_convex  # noqa: F401
from .errors import ValidationError
from .identification import Verdict, _dominance_rows, dominance_verdict
from .numeric import Num, as_fraction, tol_shift


class OddsGrid(NamedTuple):
    """Finite grid of log-odds values with a designated prior point.

    ``ground`` carries the odds values themselves as labels; ``shifted``
    carries the same grid recentred at the prior (signal space).  The two are
    index-aligned, so subset masks transfer between them unchanged.
    """

    ground: GroundSet
    prior: Num
    shifted: GroundSet

    @classmethod
    def from_values(cls, values: Sequence[Num], prior: Num) -> "OddsGrid":
        if prior not in values:
            raise ValidationError("prior odds value must belong to the grid")
        ground = GroundSet(tuple(values))
        shifted = GroundSet(tuple(v - prior for v in values))
        return cls(ground, prior, shifted)

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
        nums, scale = self.nu.int_view
        signal = self.nu.ground.full_mask & ~(1 << self.grid.null_signal_index)
        if nums[signal] <= tol_shift(self.nu.tol, scale):
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

    def above_floor(self, kappa: Num) -> bool:
        """Whether ``kappa`` lies at or above the exact floor -N/(L-N), with
        nu({0}) = N/L on nu's int view, up to the tolerance.  For kappa = a/b
        that is one int comparison, a(L-N) + N b >= -tol_shift(tol, b(L-N));
        L - N is positive, as the capacity is convex and not pure noise."""
        nums, scale = self.nu.int_view
        null = nums[1 << self.grid.null_signal_index]
        a, b = kappa.as_integer_ratio()
        room = scale - null
        return a * room + null * b >= -tol_shift(self.nu.tol, b * room)

    @cached_property
    def inertia(self) -> Capacity:
        """The full-inertia rule's capacity: 1 on every subset that holds
        the prior (the null signal), 0 elsewhere."""
        return Capacity._derived(self.nu.ground, (0, 1), 1 << self.grid.null_signal_index)


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
        """[lo, hi] clipped to [floor, 1], each end decided by ``above_floor``.
        An admitted end is raised to the printed floor, as a float end within
        the tolerance may lie below that double; a lower end that is missing
        or not admitted becomes the floor.  ``max`` keeps an end equal to the
        floor as its own object."""
        one = Fraction(1) if model.nu.is_exact else 1.0
        hi = one if hi is None else min(hi, one)
        if not model.above_floor(hi):
            raise ValidationError("empty kappa range")
        floor = model.kappa_floor
        lo = max(lo, floor) if lo is not None and model.above_floor(lo) else floor
        return cls(lo, max(hi, floor))


def check_average_bias(
    lam: Measure, model: ExperimentModel, grid: OddsGrid, kappa_av: Num
) -> Verdict:
    """Dominance verdict at a single average bias: the mixture of Bayesian
    updating and full inertia at weights (1 - kappa, kappa).

    Rationalizability by any rule mix depends only on the mean kappa, so this
    one check settles every mix with that mean.
    """
    if lam.ground != grid.ground:
        raise ValidationError("data must live on the odds grid")
    if not (model.above_floor(kappa_av) and kappa_av <= 1):
        raise ValidationError(f"kappa {kappa_av} outside the admissible range")
    return dominance_verdict(lam, [model.nu, model.inertia], [1 - kappa_av, kappa_av])


class KappaSolution(NamedTuple):
    """Exact interval of rationalizing average biases plus a diagnosis.

    ``diagnosis`` is one of "bayesian-feasible" (zero bias works),
    "underreaction" (only positive biases work), "overreaction" (only
    negative), or "impossible".  The witness masks collect the subsets whose
    data mass falls below the pure-posterior floor, split by whether the
    prior belongs to the subset.
    """

    empty: bool
    lo: Optional[Num]
    hi: Optional[Num]
    diagnosis: str
    under_witnesses: tuple[int, ...]
    over_witnesses: tuple[int, ...]


def rationalizing_kappa_interval(
    lam: Measure,
    model: ExperimentModel,
    grid: OddsGrid,
    krange: Optional[KappaRange] = None,
) -> KappaSolution:
    """Intersect the per-subset linear inequalities in the average bias.

    Every subset K yields ``lam(K) >= (1-kappa) nu(K recentred) + kappa [prior in K]``,
    a half-line in kappa; the admissible interval is their intersection with
    the model range.  With nu(K) and the inertia value as N and I over L and
    lam(K) as Lam over D, the row is ``kappa (I - N) D <= Lam L - N D``, all
    over L D.  An endpoint that no row tightens is the range's own object.
    """
    if lam.ground != grid.ground:
        raise ValidationError("data must live on the odds grid")
    krange = KappaRange.for_model(model) if krange is None else KappaRange.for_model(
        model, krange.lo, krange.hi
    )
    tol, (scale, lam_scale), rows = _dominance_rows(lam, [model.nu, model.inertia])
    shift = tol_shift(tol, scale * lam_scale)
    lo, hi = krange.lo, krange.hi
    empty = False
    under: list[int] = []
    over: list[int] = []
    for mask, (base, inert), lam_k in rows:
        coeff = (inert - base) * lam_scale
        slack = lam_k * scale - base * lam_scale
        below = -slack > shift
        if below:
            # data falls below the zero-bias floor on this subset
            (over if inert else under).append(mask)
        if coeff > shift:
            hi = min(hi, Fraction(slack, coeff))
        elif -coeff > shift:
            lo = max(lo, Fraction(slack, coeff))
        else:
            empty = empty or below
    if not empty and as_fraction(lo) - as_fraction(hi) > tol:
        empty = True
    if empty:
        return KappaSolution(True, None, None, "impossible", tuple(under), tuple(over))
    if lo > hi:
        hi = lo
    if lo <= tol and hi >= -tol:
        diagnosis = "bayesian-feasible"
    elif lo > 0:
        diagnosis = "underreaction"
    else:
        diagnosis = "overreaction"
    if tol:
        lo, hi = float(lo), float(hi)
    return KappaSolution(False, lo, hi, diagnosis, tuple(under), tuple(over))
