"""Exact set-function algebra on small finite ground sets.

A capacity is a monotone set function with value 0 on the empty set and 1 on
the full set; probability measures are the additive special case.  Subsets
are bitmasks over an ordered ground set, values live in a dense array of
length 2^n, and all arithmetic is exact on Fractions unless the caller opts
into floats (comparisons then carry a 1e-9 absolute tolerance).

The module provides the full toolkit needed downstream: convexity
(supermodularity) testing, the Moebius inversion and the belief-function
test, core membership, the core vertices of convex capacities as distinct
marginal vectors built over prefix sets, lower envelopes, pointwise mixtures
with exact core decomposition, cylindrical extension from a carrier, and
pushforwards along point maps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from . import lp
from .errors import NotConvexError, SizeLimitError, ValidationError
from .numeric import FLOAT_TOL, Num, all_exact, as_fraction, eq, ge, tol_for

Label = Hashable

_DEFAULT_MAX_N = 20

#: Cap on the candidate vectors core_vertices may generate: about 2.5 s of
#: work, enough for every ordering of 8 labels (109,600 candidates).
MAX_CORE_CANDIDATES = 250_000


def _max_ground_size() -> int:
    """Hard cap on |X|; CAPID_MAX_N overrides it at the user's risk."""
    raw = os.environ.get("CAPID_MAX_N")
    if raw is None:
        return _DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"CAPID_MAX_N must be an integer, got {raw!r}") from exc


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask``, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def carrier_masks(active: int) -> list[int]:
    """All subsets of ``active`` in increasing order; entry t spreads the bits
    of t over the bits of ``active``."""
    masks = [0]
    for i in range(active.bit_length()):
        if active >> i & 1:
            masks += [mask | 1 << i for mask in masks]
    return masks


@dataclass(frozen=True)
class GroundSet:
    """Ordered finite set of alternatives; subsets are bitmasks over it."""

    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("ground set labels must be distinct")
        if len(self.labels) < 1:
            raise ValidationError("ground set must be nonempty")
        if len(self.labels) > _max_ground_size():
            raise SizeLimitError(
                f"ground set of size {len(self.labels)} exceeds the cap "
                f"{_max_ground_size()} (set CAPID_MAX_N to override)"
            )

    @classmethod
    def of(cls, labels: Iterable[Label]) -> "GroundSet":
        return cls(tuple(labels))

    @cached_property
    def _index(self) -> dict[Label, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"label {label!r} not in ground set") from None

    def singleton(self, label: Label) -> int:
        return 1 << self.index(label)

    def mask_of(self, labels: Iterable[Label]) -> int:
        mask = 0
        for label in labels:
            mask |= self.singleton(label)
        return mask

    def labels_of(self, mask: int) -> tuple[Label, ...]:
        return tuple(l for i, l in enumerate(self.labels) if mask >> i & 1)

    def masks(self) -> range:
        """All 2^n subset masks in increasing order."""
        return range(1 << self.size)

    def subset_key(self, mask: int) -> str:
        """Comma-joined labels in ground order; '' for the empty set."""
        return ",".join(str(l) for l in self.labels_of(mask))


@dataclass(frozen=True)
class Measure:
    """Probability measure on a ground set, optionally confined to a carrier."""

    ground: GroundSet
    weights: tuple[Num, ...]
    carrier: Optional[int] = None

    def __post_init__(self) -> None:
        n = self.ground.size
        if len(self.weights) != n:
            raise ValidationError("measure weight vector has wrong length")
        tol = self.tol
        for w in self.weights:
            if not ge(w, 0, tol):
                raise ValidationError(f"negative weight {w!r}")
        if not eq(sum(self.weights), 1, tol):
            raise ValidationError(f"weights sum to {sum(self.weights)}, expected 1")
        if self.carrier is not None:
            if self.carrier == 0:
                raise ValidationError("empty carrier")
            if self.carrier > self.ground.full_mask:
                raise ValidationError("carrier is not a subset of the ground set")
            for i, w in enumerate(self.weights):
                if not self.carrier >> i & 1 and not eq(w, 0, tol):
                    raise ValidationError("measure puts mass outside its carrier")

    @property
    def tol(self) -> Num:
        return tol_for(self.weights)

    @property
    def is_exact(self) -> bool:
        return all_exact(self.weights)

    def mass(self, mask: int) -> Num:
        return sum(w for i, w in enumerate(self.weights) if mask >> i & 1)

    def weight(self, label: Label) -> Num:
        return self.weights[self.ground.index(label)]

    def support(self) -> int:
        tol = self.tol
        mask = 0
        for i, w in enumerate(self.weights):
            if not eq(w, 0, tol):
                mask |= 1 << i
        return mask

    @classmethod
    def point(cls, ground: GroundSet, label: Label, carrier: Optional[int] = None) -> "Measure":
        weights = [Fraction(0)] * ground.size
        weights[ground.index(label)] = Fraction(1)
        return cls(ground, tuple(weights), carrier)

    @classmethod
    def uniform(cls, ground: GroundSet, mask: Optional[int] = None) -> "Measure":
        mask = ground.full_mask if mask is None else mask
        k = mask.bit_count()
        if k == 0:
            raise ValidationError("cannot spread mass over the empty set")
        w = Fraction(1, k)
        weights = tuple(w if mask >> i & 1 else Fraction(0) for i in range(ground.size))
        return cls(ground, weights, mask)

    @classmethod
    def from_mapping(
        cls,
        ground: GroundSet,
        mapping: Mapping[Label, Num],
        carrier: Optional[int] = None,
    ) -> "Measure":
        weights = [Fraction(0)] * ground.size
        for label, value in mapping.items():
            weights[ground.index(label)] = value
        return cls(ground, tuple(weights), carrier)


@dataclass(frozen=True)
class Capacity:
    """Monotone set function with nu(empty)=0 and nu(X)=1, dense over bitmasks.

    When a carrier C is attached the capacity satisfies nu(K) = nu(K & C) for
    every K, i.e. it is the cylindrical extension of a capacity living on C.
    """

    ground: GroundSet
    values: tuple[Num, ...]
    carrier: Optional[int] = None

    def __post_init__(self) -> None:
        n = self.ground.size
        if len(self.values) != 1 << n:
            raise ValidationError(
                f"capacity needs {1 << n} values, got {len(self.values)}"
            )
        tol = self.tol
        values = self.values
        if not eq(values[0], 0, tol):
            raise ValidationError("capacity of the empty set must be 0")
        if not eq(values[-1], 1, tol):
            raise ValidationError("capacity of the full set must be 1")
        if self.carrier is not None:
            if self.carrier == 0:
                raise ValidationError("empty carrier")
            if self.carrier > self.ground.full_mask:
                raise ValidationError("carrier is not a subset of the ground set")
        # monotone on the carrier's subsets and constant across the carrier
        # together make the capacity monotone on every subset
        active = self.active
        bits = [1 << i for i in range(n) if active >> i & 1]
        for mask in carrier_masks(active):
            for bit in bits:
                if not mask & bit and not ge(values[mask | bit], values[mask], tol):
                    raise ValidationError(
                        f"capacity not monotone at {self.ground.subset_key(mask)} "
                        f"+ {self.ground.labels[bit.bit_length() - 1]!r}"
                    )
        # values spread from the carrier's subsets pass at once; the toleranced
        # comparison runs only when some value differs from its spread
        if self.carrier is not None and values != tuple(
            values[mask & active] for mask in range(1 << n)
        ):
            for mask in range(1 << n):
                if not eq(values[mask], values[mask & active], tol):
                    raise ValidationError("capacity is not constant across its carrier")

    @property
    def tol(self) -> Num:
        return tol_for(self.values)

    @property
    def is_exact(self) -> bool:
        return all_exact(self.values)

    @property
    def active(self) -> int:
        """The carrier, or the full ground set when none is attached."""
        return self.carrier if self.carrier is not None else self.ground.full_mask

    def value(self, mask: int) -> Num:
        return self.values[mask]

    @classmethod
    def from_measure(cls, p: Measure, carrier: Optional[int] = None) -> "Capacity":
        values = tuple(p.mass(mask) for mask in p.ground.masks())
        if carrier is None:
            carrier = p.carrier if p.carrier is not None else p.support()
            if carrier == 0:
                carrier = p.ground.full_mask
        return cls(p.ground, values, carrier)


def is_convex(nu: Capacity) -> bool:
    """Local supermodularity: nu(K+i+j) + nu(K) >= nu(K+i) + nu(K+j).

    The local inequalities, over labels i, j of the carrier and subsets K of
    the carrier without them, add up to the pairwise definition
    nu(K|K') + nu(K&K') >= nu(K) + nu(K'), so they are equivalent to it
    (Grabisch 2016, ch. 2).  Values are constant in the directions off the
    carrier, so the test stays on the carrier's subsets: O(|C|^2 2^|C|).
    """
    tol = nu.tol
    values = nu.values
    active = nu.active
    bits = [1 << i for i in range(nu.ground.size) if active >> i & 1]
    for a, bit_i in enumerate(bits):
        for bit_j in bits[a + 1:]:
            pair = bit_i | bit_j
            for mask in submasks(active & ~pair):
                if not ge(
                    values[mask | pair] + values[mask],
                    values[mask | bit_i] + values[mask | bit_j],
                    tol,
                ):
                    return False
    return True


def _moebius(values: list[Num], n: int, sign: int) -> list[Num]:
    """In-place subset-sum transform over bitmasks of n labels, O(n 2^n).

    ``sign=1`` turns masses into values, f(K) = sum over J below K of m(J);
    ``sign=-1`` inverts it, giving the Moebius masses of a set function.
    """
    size = 1 << n
    for i in range(n):
        bit = 1 << i
        for block in range(0, size, bit << 1):
            for mask in range(block | bit, block + (bit << 1)):
                if sign > 0:
                    values[mask] += values[mask ^ bit]
                else:
                    values[mask] -= values[mask ^ bit]
    return values


def mobius(nu: Capacity) -> tuple[Num, ...]:
    """Moebius masses: mass(K) = sum over J below K of (-1)^|K\\J| nu(J)."""
    return tuple(_moebius(list(nu.values), nu.ground.size, -1))


def capacity_from_mobius(
    ground: GroundSet, mass: Sequence[Num], carrier: Optional[int] = None
) -> Capacity:
    """The capacity whose Moebius masses are ``mass``."""
    if len(mass) != 1 << ground.size:
        raise ValidationError("mass vector has wrong length")
    return Capacity(ground, tuple(_moebius(list(mass), ground.size, 1)), carrier)


def is_belief_function(nu: Capacity) -> bool:
    """Total monotonicity, equivalently all Moebius masses nonnegative.

    Masses outside the carrier's powerset vanish for cylindrical capacities,
    so only the carrier's subsets are transformed.
    """
    tol = nu.tol
    active = nu.active
    restricted = [nu.values[mask] for mask in carrier_masks(active)]
    masses = _moebius(restricted, active.bit_count(), -1)
    return all(ge(m, 0, tol) for m in masses)


def core_contains(nu: Capacity, p: Measure) -> bool:
    """Setwise dominance p(K) >= nu(K) for every subset K."""
    if p.ground != nu.ground:
        raise ValidationError("measure and capacity live on different ground sets")
    tol = tol_for(nu.values, p.weights)
    prefix = _mass_table(p)
    return all(ge(prefix[mask], nu.values[mask], tol) for mask in nu.ground.masks())


def _mass_table(p: Measure) -> list[Num]:
    """p(K) for all masks K, built by dynamic programming in O(n 2^n)."""
    n = p.ground.size
    table: list[Num] = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        table[mask] = table[mask ^ low] + p.weights[low.bit_length() - 1]
    return table


def _dedupe_measures(measures: Iterable[Measure]) -> list[Measure]:
    exact: dict[tuple, Measure] = {}
    fuzzy: list[Measure] = []
    out: list[Measure] = []
    for m in measures:
        if m.is_exact:
            key = tuple(as_fraction(w) for w in m.weights)
            if key not in exact:
                exact[key] = m
                out.append(m)
        else:
            if not any(
                all(eq(a, b, FLOAT_TOL) for a, b in zip(m.weights, kept.weights))
                for kept in fuzzy
            ):
                fuzzy.append(m)
                out.append(m)
    return out


def core_vertices(nu: Capacity) -> tuple[Measure, ...]:
    """Exact vertex set of the core of a convex capacity.

    The vertices are the marginal vectors of the orderings of the active
    labels, each label receiving the capacity increment of the growing prefix
    (Shapley 1971).  Many orderings share a vector, so instead of walking all
    |C|! of them this keeps, for each prefix set S, the distinct tails: the
    increment vectors on the labels outside S, built from the tails of S+i
    over i in ascending order.  The vertices come out in the order in which
    the lexicographic walk over orderings first meets them.  Raises
    SizeLimitError past MAX_CORE_CANDIDATES candidate tails, and
    NotConvexError for a capacity that is not convex, where marginal vectors
    stop being a vertex description.
    """
    if not is_convex(nu):
        raise NotConvexError("core_vertices requires a convex capacity")
    ground = nu.ground
    values = nu.values
    active = nu.active
    bits = [(1 << i, i) for i in range(ground.size) if active >> i & 1]
    # _dedupe_measures compares a vector that holds a float only with other
    # such vectors, so when values mix floats and exact numbers, equal tails
    # merge only if both hold a float or neither does
    mixed = not nu.is_exact and not all(isinstance(v, float) for v in values)
    tails: dict[int, list[tuple[Num, ...]]] = {active: [(0,) * ground.size]}
    candidates = 0
    for prefix in reversed(carrier_masks(active)[:-1]):
        candidates += sum(len(tails[prefix | bit]) for bit, _ in bits if not prefix & bit)
        if candidates > MAX_CORE_CANDIDATES:
            raise SizeLimitError(
                f"core vertex enumeration on {len(bits)} labels needs more than "
                f"{MAX_CORE_CANDIDATES} candidate vectors"
            )
        level: dict = {}
        for bit, i in bits:
            if prefix & bit:
                continue
            step = values[prefix | bit] - values[prefix]
            for tail in tails[prefix | bit]:
                vector = tail[:i] + (step,) + tail[i + 1:]
                key = (vector, not all_exact(vector)) if mixed else vector
                level.setdefault(key, vector)
        tails[prefix] = list(level.values())
    return tuple(_dedupe_measures(Measure(ground, v, active) for v in tails[0]))


def lower_probability(vertices: Sequence[Measure], ground: GroundSet) -> Capacity:
    """Lower envelope nu(K) = min over the given measures of p(K).

    The minimum of a linear functional over a polytope sits at a vertex, so
    feeding the vertex set of any credal set recovers its lower probability.
    """
    if not vertices:
        raise ValidationError("lower_probability needs at least one measure")
    for p in vertices:
        if p.ground != ground:
            raise ValidationError("all measures must live on the stated ground set")
    tables = [_mass_table(p) for p in vertices]
    values = tuple(min(t[mask] for t in tables) for mask in ground.masks())
    carrier = 0
    for p in vertices:
        carrier |= p.support()
    return Capacity(ground, values, carrier if carrier else None)


def mixture(capacities: Sequence[Capacity], weights: Sequence[Num]) -> Capacity:
    """Pointwise convex combination; preserves convexity."""
    if not capacities or len(capacities) != len(weights):
        raise ValidationError("mixture needs matching capacities and weights")
    ground = capacities[0].ground
    for c in capacities:
        if c.ground != ground:
            raise ValidationError("mixture components live on different ground sets")
    tol = tol_for(weights)
    if any(not ge(w, 0, tol) for w in weights) or not eq(sum(weights), 1, tol):
        raise ValidationError("mixture weights must be a probability vector")
    values = tuple(
        sum(w * c.values[mask] for w, c in zip(weights, capacities))
        for mask in ground.masks()
    )
    carrier = 0
    for w, c in zip(weights, capacities):
        if not eq(w, 0, tol):
            carrier |= c.active
    return Capacity(ground, values, carrier if carrier else None)


def decompose_in_mixture_core(
    p: Measure, capacities: Sequence[Capacity], weights: Sequence[Num]
) -> Optional[list[Measure]]:
    """Split a member of the mixture core into per-component core members.

    Finds measures p_i with p_i in core(nu_i) and sum_i w_i p_i = p; for
    convex components this always succeeds when p lies in the core of the
    mixture (cores mix linearly).  Returns None when the linear system is
    infeasible, which signals a violated precondition.
    """
    if len(capacities) != len(weights):
        raise ValidationError("capacities and weights must align")
    ground = p.ground
    for c in capacities:
        if c.ground != ground:
            raise ValidationError("components live on a different ground set")
    n = ground.size
    tol = tol_for(weights)
    if any(not ge(w, 0, tol) for w in weights) or not eq(sum(weights), 1, tol):
        raise ValidationError("mixture weights must be a probability vector")
    exact = p.is_exact and all(c.is_exact for c in capacities) and all_exact(weights)
    slack = Fraction(0) if exact else Fraction(FLOAT_TOL)

    active = [i for i, w in enumerate(weights) if w > 0]
    # variables: for each active component, the weights on its carrier labels
    var_of: list[dict[int, int]] = [dict() for _ in capacities]
    nvars = 0
    for ci in active:
        cap = capacities[ci]
        carrier = cap.active
        for i in range(n):
            if carrier >> i & 1:
                var_of[ci][i] = nvars
                nvars += 1

    a_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    a_eq: list[list[Fraction]] = []
    b_eq: list[Fraction] = []
    for ci in active:
        cap = capacities[ci]
        carrier = cap.active
        row = [Fraction(0)] * nvars
        for i, var in var_of[ci].items():
            row[var] = Fraction(1)
        a_eq.append(row)
        b_eq.append(Fraction(1))
        for mask in submasks(carrier):
            if mask == 0 or mask == carrier:
                continue
            # p_i(K) >= nu_i(K), written on the complement so the right-hand
            # side stays nonnegative: p_i(C\K) <= 1 - nu_i(K)
            row = [Fraction(0)] * nvars
            comp = carrier & ~mask
            for i, var in var_of[ci].items():
                if comp >> i & 1:
                    row[var] = Fraction(1)
            a_ub.append(row)
            b_ub.append(Fraction(1) - as_fraction(cap.values[mask]) + slack)
    mix_rows: list[list[Fraction]] = []
    targets: list[Fraction] = []
    for i in range(n):
        row = [Fraction(0)] * nvars
        covered = False
        for ci in active:
            var = var_of[ci].get(i)
            if var is not None:
                row[var] = as_fraction(weights[ci])
                covered = True
        target = as_fraction(p.weights[i])
        if not covered:
            if exact:
                if target != 0:
                    return None
            elif not eq(p.weights[i], 0, FLOAT_TOL):
                return None
            continue
        mix_rows.append(row)
        targets.append(target)

    if exact:
        solution = lp.feasible_point(a_ub, b_ub, a_eq + mix_rows, b_eq + targets, nvars)
    else:
        # float weights cannot meet the mix-back exactly, so it becomes a band.
        # Half the tolerance on either side leaves room to round the parts to
        # floats; the full tolerance, which the dominance check allows, is the
        # fallback for data that sits at the edge of that check.
        for band in (slack / 2, slack):
            band_rows, band_rhs = [], []
            for row, target in zip(mix_rows, targets):
                band_rows += [row, [-v for v in row]]
                band_rhs += [target + band, band - target]
            solution = lp.feasible_point(a_ub + band_rows, b_ub + band_rhs, a_eq, b_eq, nvars)
            if solution is not None:
                break
    if solution is None:
        return None

    def _back(x: Fraction) -> Num:
        return x if exact else float(x)

    out: list[Measure] = []
    for ci, cap in enumerate(capacities):
        carrier = cap.active
        if var_of[ci]:
            weights_i = [Fraction(0)] * n
            for i, var in var_of[ci].items():
                weights_i[i] = solution[var]
            out.append(Measure(ground, tuple(_back(w) for w in weights_i), carrier))
        else:
            # zero-weight component: any core member will do, and for a convex
            # capacity the first vertex core_vertices lists is one
            if not is_convex(cap):
                return None
            out.append(_ascending_marginal_vector(cap))
    return out


def _ascending_marginal_vector(nu: Capacity) -> Measure:
    """The marginal vector of the active labels in ascending order, which
    core_vertices lists first, without enumerating the others."""
    weights: list[Num] = [0] * nu.ground.size
    prefix = 0
    for i in range(nu.ground.size):
        if nu.active >> i & 1:
            weights[i] = nu.values[prefix | 1 << i] - nu.values[prefix]
            prefix |= 1 << i
    return Measure(nu.ground, tuple(weights), nu.active)


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
