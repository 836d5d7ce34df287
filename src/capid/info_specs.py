"""Analyst information about unobserved menus, as credal sets over choices.

Each specification describes the set of choice distributions the analyst
deems possible for one decision rule, confined to the rule's carrier (the
alternatives the rule can actually produce).  ``build_capacity`` turns a
specification into the convex capacity whose core is exactly that set;
``spec_contains`` tests membership directly from the defining formula, never
through the capacity, so the two can be played against each other in tests.

Such a capacity is the cylindrical extension nu(K) = nu(K & C) of one on the
carrier C, so ``build_capacity`` computes the 2^|C| values on the carrier's
subsets and shares each one, as the same object, across the other masks.

The specifications validate their parameters, which come from a document.
The capacities built from valid parameters are monotone and convex by
theorem, so ``build_capacity`` makes them with ``Capacity._derived``, which
skips the monotonicity, carrier and convexity scans.  Ignorance is the
vacuous belief function.  The lower probabilities of epsilon-contamination
classes and of total-variation neighborhoods are 2-monotone (Wasserman &
Kadane 1990), and so is that of a set of probability intervals,
max(lower(K), 1 - upper(C minus K)) (de Campos, Huete & Moral 1994).  A
point mass gives an additive capacity.  An explicit capacity is read from a
document: its constructor validates it, and ``build_capacity`` tests it for
convexity once.  Float mode checks the parameters up to the 1e-9
tolerance, so a capacity built from parameters at that edge (a weight of
-1e-9, say) can miss monotonicity or convexity by about as much; it is used
as it is, as the toleranced comparisons downstream allow.

Supported families:

* ``Ignorance`` — every distribution on the carrier.
* ``Contamination`` — a focal estimate blended with an arbitrary distribution
  at mixing weight epsilon.
* ``VariationNeighborhood`` — a closed total-variation ball around a
  reference measure.
* ``IntervalBelief`` — setwise lower and upper bounding vectors.
* ``ExplicitCapacity`` — a convex capacity supplied directly.
* ``PointMass`` — a single known distribution.
"""

from __future__ import annotations

from .capacity import Capacity, GroundSet, Measure, Record, carrier_masks, is_convex, mass_table
from .errors import NotConvexError, ValidationError
from .numeric import ONE, ZERO, Num, fold_sum, in_mode, int_numerators, tol_of, tol_shift


class InfoSpec(Record):
    """Common shape: a ground set and a carrier mask.

    A specification's fields are its whole instance ``__dict__``, set in
    constructor order, so ``Record`` reads them from there.
    """

    def __init__(self, ground: GroundSet, carrier: int) -> None:
        self.ground = ground
        self.carrier = carrier
        if self.carrier == 0:
            raise ValidationError("carrier must be nonempty")
        if self.carrier > self.ground.full_mask:
            raise ValidationError("carrier is not a subset of the ground set")

    @property
    def tag(self) -> str:
        raise NotImplementedError


class Ignorance(InfoSpec):
    """Anything on the carrier goes."""

    tag = "ignorance"


class Contamination(InfoSpec):
    """(1 - epsilon) * focal + epsilon * (anything on the carrier)."""

    tag = "contamination"

    def __init__(self, ground: GroundSet, carrier: int, rho_hat: Measure, epsilon: Num) -> None:
        super().__init__(ground, carrier)
        self.rho_hat = rho_hat
        self.epsilon = epsilon
        if self.rho_hat.ground != self.ground:
            raise ValidationError("focal measure lives on a different ground set")
        if not 0 <= self.epsilon <= 1:
            raise ValidationError("epsilon must lie in [0, 1]")
        if self.rho_hat.support() & ~self.carrier:
            raise ValidationError("focal measure puts mass outside the carrier")


class VariationNeighborhood(InfoSpec):
    """Closed ball of radius epsilon around a reference, in total variation.

    The defining inequality is applied with <= so that the set coincides with
    the core of its lower probability (cores are closed).
    """

    tag = "variation-neighborhood"

    def __init__(self, ground: GroundSet, carrier: int, reference: Measure, epsilon: Num) -> None:
        super().__init__(ground, carrier)
        self.reference = reference
        self.epsilon = epsilon
        if self.reference.ground != self.ground:
            raise ValidationError("reference measure lives on a different ground set")
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be positive")
        if self.reference.support() & ~self.carrier:
            raise ValidationError("reference measure puts mass outside the carrier")


class IntervalBelief(InfoSpec):
    """Setwise sandwich lower(K) <= rho(K) <= upper(K) on the carrier.

    ``lower`` and ``upper`` are nonnegative vectors (not probabilities)
    extended additively to sets; the carrier totals must straddle 1 strictly.
    """

    tag = "interval-belief"

    def __init__(
        self, ground: GroundSet, carrier: int, lower: tuple[Num, ...], upper: tuple[Num, ...]
    ) -> None:
        super().__init__(ground, carrier)
        self.lower = lower
        self.upper = upper
        n = self.ground.size
        if len(self.lower) != n or len(self.upper) != n:
            raise ValidationError("bound vectors have wrong length")
        # the bounds over one denominator, lower first
        bounds = (*self.lower, *self.upper)
        nums, scale = int_numerators(bounds)
        shift = tol_shift(tol_of(bounds), scale)
        for i, low, up in zip(range(n), nums, nums[n:]):
            if low < -shift:
                raise ValidationError("lower bounds must be nonnegative")
            if up - low < -shift:
                raise ValidationError("upper bounds must dominate lower bounds")
            if not self.carrier >> i & 1 and max(abs(low), abs(up)) > shift:
                raise ValidationError("bounds must vanish outside the carrier")
        # the left-to-right float sums decide, as printed
        low_total = self._sum(self.lower, self.carrier)
        up_total = self._sum(self.upper, self.carrier)
        if not (0 < low_total < 1 < up_total):
            raise ValidationError(
                "carrier totals must satisfy 0 < lower < 1 < upper, got "
                f"{low_total} and {up_total}"
            )

    @staticmethod
    def _sum(vec: tuple[Num, ...], mask: int) -> Num:
        return fold_sum(v for i, v in enumerate(vec) if mask >> i & 1)

    @property
    def excess(self) -> Num:
        """How far the upper bound overshoots a probability on the carrier."""
        return self._sum(self.upper, self.carrier) - 1


class ExplicitCapacity(InfoSpec):
    """A convex capacity given directly; its core is the credal set."""

    tag = "explicit"

    def __init__(self, ground: GroundSet, carrier: int, nu: Capacity) -> None:
        super().__init__(ground, carrier)
        self.nu = nu
        if self.nu.ground != self.ground:
            raise ValidationError("capacity lives on a different ground set")
        if self.nu.active & ~self.carrier:
            raise ValidationError("capacity carrier exceeds the declared carrier")


class PointMass(InfoSpec):
    """Perfect information: a single admissible distribution."""

    tag = "point"

    def __init__(self, ground: GroundSet, carrier: int, rho: Measure) -> None:
        super().__init__(ground, carrier)
        self.rho = rho
        if self.rho.ground != self.ground:
            raise ValidationError("distribution lives on a different ground set")
        if self.rho.support() & ~self.carrier:
            raise ValidationError("distribution puts mass outside the carrier")


def build_capacity(spec: InfoSpec) -> Capacity:
    """The convex capacity whose core equals the specification's credal set.

    The parametric families evaluate their formula once per subset t of the
    carrier, on subset-sum tables of the vectors restricted to the carrier,
    and ``Capacity._derived`` shares each value with every mask K where
    K & C is t.  Entry t of a restricted table adds the same weights in the
    same order as the full table's entry at t's mask, so the values are
    those of the per-mask formula, bit for bit.  A point mass keeps the
    measure's sums at every mask, ``mass_table`` of its weights: an
    off-carrier mask holds its own sum (the float 0.0 at a mask that misses
    the carrier, where the carrier table holds the int 0).
    """
    ground, carrier = spec.ground, spec.carrier
    top = (1 << carrier.bit_count()) - 1
    if isinstance(spec, Ignorance):
        values = [ZERO] * top + [ONE]
    elif isinstance(spec, Contamination):
        eps = spec.epsilon
        keep = 1 - eps
        focal = mass_table(_on_carrier(spec.rho_hat.weights, carrier))
        values = [keep * focal[t] + eps * (1 if t == top else 0) for t in range(top + 1)]
    elif isinstance(spec, VariationNeighborhood):
        eps = spec.epsilon
        tol = tol_of(spec.reference.weights, (eps,))
        zero = in_mode(ZERO, tol)
        reference = mass_table(_on_carrier(spec.reference.weights, carrier))
        values = [max(zero, reference[t] - eps) for t in range(top)] + [in_mode(ONE, tol)]
    elif isinstance(spec, IntervalBelief):
        beta = spec.excess
        lower = mass_table(_on_carrier(spec.lower, carrier))
        upper = mass_table(_on_carrier(spec.upper, carrier))
        values = [max(low, up - beta) for low, up in zip(lower, upper)]
    elif isinstance(spec, ExplicitCapacity):
        if not is_convex(spec.nu):
            raise NotConvexError("explicit specification requires a convex capacity")
        if spec.nu.carrier is not None:
            return spec.nu
        # without a carrier of its own the capacity spans the ground set,
        # which the spec's carrier must then be
        return Capacity._derived(ground, spec.nu.values, carrier)
    elif isinstance(spec, PointMass):
        weights = spec.rho.weights
        return Capacity._derived(
            ground, mass_table(_on_carrier(weights, carrier)), carrier, tuple(mass_table(weights))
        )
    else:
        raise ValidationError(f"unknown specification {type(spec).__name__}")
    return Capacity._derived(ground, values, carrier)


def _on_carrier(vec: tuple[Num, ...], carrier: int) -> list[Num]:
    """The carrier's coordinates of ``vec``, in index order."""
    return [v for i, v in enumerate(vec) if carrier >> i & 1]


def spec_contains(spec: InfoSpec, rho: Measure) -> bool:
    """Membership by the defining formula, independent of ``build_capacity``."""
    if rho.ground != spec.ground:
        raise ValidationError("measure lives on a different ground set")
    tol = rho.tol
    carrier = spec.carrier
    outside = rho.support() & ~carrier
    if outside:
        return False
    if isinstance(spec, Ignorance):
        return True
    if isinstance(spec, Contamination):
        # rho - (1-eps) rho_hat must be a nonnegative vector supported on the carrier
        eps = spec.epsilon
        for i in range(spec.ground.size):
            diff = rho.weights[i] - (1 - eps) * spec.rho_hat.weights[i]
            if diff < -tol:
                return False
        return True
    if isinstance(spec, VariationNeighborhood):
        worst = max(abs(rho.mass(k) - spec.reference.mass(k)) for k in carrier_masks(carrier))
        return spec.epsilon >= worst - tol
    if isinstance(spec, IntervalBelief):
        for k in carrier_masks(carrier):
            value = rho.mass(k)
            if value < IntervalBelief._sum(spec.lower, k) - tol:
                return False
            if IntervalBelief._sum(spec.upper, k) < value - tol:
                return False
        return True
    if isinstance(spec, ExplicitCapacity):
        # core membership: rho(K) >= nu(K) for every subset K
        nu = build_capacity(spec)
        core_tol = max(nu.tol, rho.tol)
        return all(pk >= nuk - core_tol for pk, nuk in zip(mass_table(rho.weights), nu.values))
    if isinstance(spec, PointMass):
        return all(abs(a - b) <= tol for a, b in zip(rho.weights, spec.rho.weights))
    raise ValidationError(f"unknown specification {type(spec).__name__}")
