"""Analyst information about unobserved menus, as credal sets over choices.

Each specification describes the set of choice distributions the analyst
deems possible for one decision rule, confined to the rule's carrier (the
alternatives the rule can actually produce).  ``build_capacity`` turns a
specification into the convex capacity whose core is exactly that set;
``spec_contains`` tests membership directly from the defining formula, never
through the capacity, so the two can be played against each other in tests.

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

from dataclasses import dataclass
from fractions import Fraction


from .capacity import Capacity, GroundSet, Measure, is_convex, submasks
from .errors import NotConvexError, ValidationError
from .numeric import Num, eq, ge, tol_for


@dataclass(frozen=True)
class InfoSpec:
    """Common shape: a ground set and a carrier mask."""

    ground: GroundSet
    carrier: int

    def __post_init__(self) -> None:
        if self.carrier == 0:
            raise ValidationError("carrier must be nonempty")
        if self.carrier > self.ground.full_mask:
            raise ValidationError("carrier is not a subset of the ground set")

    @property
    def tag(self) -> str:
        raise NotImplementedError

    def _carrier_indicator(self, mask: int) -> int:
        return 1 if mask & self.carrier == self.carrier else 0


@dataclass(frozen=True)
class Ignorance(InfoSpec):
    """Anything on the carrier goes."""

    tag = "ignorance"


@dataclass(frozen=True)
class Contamination(InfoSpec):
    """(1 - epsilon) * focal + epsilon * (anything on the carrier)."""

    rho_hat: Measure
    epsilon: Num

    tag = "contamination"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rho_hat.ground != self.ground:
            raise ValidationError("focal measure lives on a different ground set")
        if not (ge(self.epsilon, 0, 0) and ge(1, self.epsilon, 0)):
            raise ValidationError("epsilon must lie in [0, 1]")
        if self.rho_hat.support() & ~self.carrier:
            raise ValidationError("focal measure puts mass outside the carrier")


@dataclass(frozen=True)
class VariationNeighborhood(InfoSpec):
    """Closed ball of radius epsilon around a reference, in total variation.

    The defining inequality is applied with <= so that the set coincides with
    the core of its lower probability (cores are closed).
    """

    reference: Measure
    epsilon: Num

    tag = "variation-neighborhood"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.reference.ground != self.ground:
            raise ValidationError("reference measure lives on a different ground set")
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be positive")
        if self.reference.support() & ~self.carrier:
            raise ValidationError("reference measure puts mass outside the carrier")


@dataclass(frozen=True)
class IntervalBelief(InfoSpec):
    """Setwise sandwich lower(K) <= rho(K) <= upper(K) on the carrier.

    ``lower`` and ``upper`` are nonnegative vectors (not probabilities)
    extended additively to sets; the carrier totals must straddle 1 strictly.
    """

    lower: tuple[Num, ...]
    upper: tuple[Num, ...]

    tag = "interval-belief"

    def __post_init__(self) -> None:
        super().__post_init__()
        n = self.ground.size
        if len(self.lower) != n or len(self.upper) != n:
            raise ValidationError("bound vectors have wrong length")
        tol = tol_for(self.lower, self.upper)
        for i in range(n):
            if not ge(self.lower[i], 0, tol):
                raise ValidationError("lower bounds must be nonnegative")
            if not ge(self.upper[i], self.lower[i], tol):
                raise ValidationError("upper bounds must dominate lower bounds")
            if not self.carrier >> i & 1:
                if not (eq(self.lower[i], 0, tol) and eq(self.upper[i], 0, tol)):
                    raise ValidationError("bounds must vanish outside the carrier")
        low_total = self._sum(self.lower, self.carrier)
        up_total = self._sum(self.upper, self.carrier)
        if not (0 < low_total < 1 < up_total):
            raise ValidationError(
                "carrier totals must satisfy 0 < lower < 1 < upper, got "
                f"{low_total} and {up_total}"
            )

    @staticmethod
    def _sum(vec: tuple[Num, ...], mask: int) -> Num:
        return sum(v for i, v in enumerate(vec) if mask >> i & 1)

    @property
    def excess(self) -> Num:
        """How far the upper bound overshoots a probability on the carrier."""
        return self._sum(self.upper, self.carrier) - 1


@dataclass(frozen=True)
class ExplicitCapacity(InfoSpec):
    """A convex capacity given directly; its core is the credal set."""

    nu: Capacity

    tag = "explicit"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nu.ground != self.ground:
            raise ValidationError("capacity lives on a different ground set")
        if self.nu.active & ~self.carrier:
            raise ValidationError("capacity carrier exceeds the declared carrier")


@dataclass(frozen=True)
class PointMass(InfoSpec):
    """Perfect information: a single admissible distribution."""

    rho: Measure

    tag = "point"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rho.ground != self.ground:
            raise ValidationError("distribution lives on a different ground set")
        if self.rho.support() & ~self.carrier:
            raise ValidationError("distribution puts mass outside the carrier")


def build_capacity(spec: InfoSpec) -> Capacity:
    """The convex capacity whose core equals the specification's credal set."""
    ground, carrier = spec.ground, spec.carrier
    if isinstance(spec, Ignorance):
        values = tuple(
            Fraction(spec._carrier_indicator(mask)) for mask in ground.masks()
        )
        return Capacity(ground, values, carrier)
    if isinstance(spec, Contamination):
        eps = spec.epsilon
        values = tuple(
            (1 - eps) * spec.rho_hat.mass(mask & carrier)
            + eps * spec._carrier_indicator(mask)
            for mask in ground.masks()
        )
        return Capacity(ground, values, carrier)
    if isinstance(spec, VariationNeighborhood):
        eps = spec.epsilon
        exact = spec.reference.is_exact and not isinstance(eps, float)
        one = Fraction(1) if exact else 1.0
        zero = Fraction(0) if exact else 0.0
        values = []
        for mask in ground.masks():
            if mask & carrier == carrier:
                values.append(one)
            else:
                shaved = spec.reference.mass(mask & carrier) - eps
                values.append(shaved if shaved > 0 else zero)
        return Capacity(ground, tuple(values), carrier)
    if isinstance(spec, IntervalBelief):
        beta = spec.excess
        values = tuple(
            max(
                IntervalBelief._sum(spec.lower, mask & carrier),
                IntervalBelief._sum(spec.upper, mask & carrier) - beta,
            )
            for mask in ground.masks()
        )
        return Capacity(ground, values, carrier)
    if isinstance(spec, ExplicitCapacity):
        if not is_convex(spec.nu):
            raise NotConvexError("explicit specification requires a convex capacity")
        if spec.nu.carrier is not None:
            return spec.nu
        return Capacity(ground, spec.nu.values, carrier)
    if isinstance(spec, PointMass):
        return Capacity.from_measure(spec.rho, carrier)
    raise ValidationError(f"unknown specification {type(spec).__name__}")


def spec_contains(spec: InfoSpec, rho: Measure) -> bool:
    """Membership by the defining formula, independent of ``build_capacity``."""
    if rho.ground != spec.ground:
        raise ValidationError("measure lives on a different ground set")
    tol = tol_for(rho.weights)
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
            if not ge(diff, 0, tol):
                return False
        return True
    if isinstance(spec, VariationNeighborhood):
        worst = max(
            abs(rho.mass(k) - spec.reference.mass(k)) for k in submasks(carrier)
        )
        return ge(spec.epsilon, worst, tol)
    if isinstance(spec, IntervalBelief):
        for k in submasks(carrier):
            value = rho.mass(k)
            if not ge(value, IntervalBelief._sum(spec.lower, k), tol):
                return False
            if not ge(IntervalBelief._sum(spec.upper, k), value, tol):
                return False
        return True
    if isinstance(spec, ExplicitCapacity):
        from .capacity import core_contains

        return core_contains(build_capacity(spec), rho)
    if isinstance(spec, PointMass):
        return all(
            eq(a, b, tol) for a, b in zip(rho.weights, spec.rho.weights)
        )
    raise ValidationError(f"unknown specification {type(spec).__name__}")
