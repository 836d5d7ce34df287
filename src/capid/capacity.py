"""Exact set-function algebra on small finite ground sets.

A capacity is a monotone set function with value 0 on the empty set and 1 on
the full set; probability measures are the additive special case.  Subsets
are bitmasks over an ordered ground set, values live in a dense array of
length 2^n, and all arithmetic is exact on Fractions unless the caller opts
into floats (comparisons then carry a 1e-9 absolute tolerance).  An exact
capacity also keeps its values as int numerators over one denominator, on
which the monotonicity and convexity scans, the dominance rows and the core
rows of an exact decomposition run.

The module provides the full toolkit needed downstream: convexity
(supermodularity) testing, the Moebius inversion and the belief-function
test, core membership, the core vertices of convex capacities as distinct
marginal vectors built over prefix sets, and pointwise mixtures with exact
core decomposition.  ``mass_table`` gives a vector's sums over every subset
at once.

Capacities and measures read from a document are validated in full when
they are constructed.  Those that capid derives from validated inputs, whose
properties follow from a theorem (see ``info_specs``) or from the linear
program that produced them, come from ``Capacity._derived`` and
``Measure._derived`` without the checks; a derived capacity records that it
is convex, and ``is_convex`` scans any other capacity at most once.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from . import lp
from .errors import NotConvexError, SizeLimitError, ValidationError
from .numeric import (
    FLOAT_TOL, ZERO, Num, all_exact, as_fraction, eq, fold_sum, format_number, ge,
    int_numerators, tol_for,
)

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


def mass_table(weights: Sequence[Num]) -> list[Num]:
    """The sum of ``weights`` over every subset, indexed by mask, in O(2^n).

    Entry K adds K's weights to int 0 in ascending index order, as
    ``Measure.mass`` does, so the two agree bit for bit in both modes.
    """
    table: list[Num] = [0]
    for w in weights:
        table += [x + w for x in table]
    return table


def carrier_masks(active: int) -> list[int]:
    """All subsets of ``active`` in increasing order; entry t spreads the bits
    of t over the bits of ``active``."""
    masks = [0]
    for i in range(active.bit_length()):
        if active >> i & 1:
            masks += [mask | 1 << i for mask in masks]
    return masks


def _spread_index(carrier: int, n: int) -> list[int]:
    """Entry K is the position of K & carrier in ``carrier_masks(carrier)``.
    The list doubles per label, as ``mass_table`` does, stepping only on the
    carrier's labels."""
    index = [0]
    step = 1
    for i in range(n):
        if carrier >> i & 1:
            index += [t + step for t in index]
            step <<= 1
        else:
            index += index
    return index


def spread(small: Sequence[Num], carrier: int, n: int) -> tuple[Num, ...]:
    """The cylindrical extension of a table indexed like
    ``carrier_masks(carrier)``: entry K of the 2^n result is the very object
    at K & carrier."""
    return tuple(map(small.__getitem__, _spread_index(carrier, n)))


class GroundSet:
    """Ordered finite set of alternatives; subsets are bitmasks over it."""

    def __init__(self, labels: tuple[Label, ...]) -> None:
        self.labels = labels
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("ground set labels must be distinct")
        if len(self.labels) < 1:
            raise ValidationError("ground set must be nonempty")
        if len(self.labels) > _max_ground_size():
            raise SizeLimitError(
                f"ground set of size {len(self.labels)} exceeds the cap "
                f"{_max_ground_size()} (set CAPID_MAX_N to override)"
            )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet(labels={self.labels!r})"

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


class Measure:
    """Probability measure on a ground set, optionally confined to a carrier.

    The constructor validates the weights, as every measure read from a
    document needs; ``_derived`` builds one that capid derived itself.
    """

    def __init__(
        self, ground: GroundSet, weights: tuple[Num, ...], carrier: Optional[int] = None
    ) -> None:
        self.ground = ground
        self.weights = weights
        self.carrier = carrier
        n = self.ground.size
        if len(self.weights) != n:
            raise ValidationError("measure weight vector has wrong length")
        tol = self.tol
        for w in self.weights:
            if not ge(w, 0, tol):
                raise ValidationError(f"negative weight {format_number(w)}")
        total = fold_sum(self.weights)
        if not eq(total, 1, tol):
            raise ValidationError(f"weights sum to {total}, expected 1")
        if self.carrier is not None:
            if self.carrier == 0:
                raise ValidationError("empty carrier")
            if self.carrier > self.ground.full_mask:
                raise ValidationError("carrier is not a subset of the ground set")
            for i, w in enumerate(self.weights):
                if not self.carrier >> i & 1 and not eq(w, 0, tol):
                    raise ValidationError("measure puts mass outside its carrier")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ground, self.weights, self.carrier) == (
            other.ground, other.weights, other.carrier
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.weights, self.carrier))

    def __repr__(self) -> str:
        return (
            f"Measure(ground={self.ground!r}, weights={self.weights!r}, "
            f"carrier={self.carrier!r})"
        )

    @classmethod
    def _derived(
        cls, ground: GroundSet, weights: tuple[Num, ...], carrier: Optional[int] = None
    ) -> "Measure":
        """A measure whose weights capid computed from validated inputs, built
        without the checks: an LP solution over the probability simplex, the
        per-rule parts of a decomposition, or such a part moved onto menus."""
        m = object.__new__(cls)
        m.__dict__.update(ground=ground, weights=weights, carrier=carrier)
        return m

    @cached_property
    def is_exact(self) -> bool:
        return all_exact(self.weights)

    @cached_property
    def tol(self) -> Num:
        return ZERO if self.is_exact else FLOAT_TOL

    def mass(self, mask: int) -> Num:
        return fold_sum(w for i, w in enumerate(self.weights) if mask >> i & 1)

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


class Capacity:
    """Monotone set function with nu(empty)=0 and nu(X)=1, dense over bitmasks.

    When a carrier C is attached the capacity satisfies nu(K) = nu(K & C) for
    every K, i.e. it is the cylindrical extension of a capacity living on C.

    The constructor validates all of that, as every capacity read from a
    document needs; ``_derived`` builds one that holds by construction.
    """

    def __init__(
        self, ground: GroundSet, values: tuple[Num, ...], carrier: Optional[int] = None
    ) -> None:
        self.ground = ground
        self.values = values
        self.carrier = carrier
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
        masks = carrier_masks(active)
        scan, slack = (self.int_view[0], 0) if self.is_exact else (values, tol)
        for mask in masks:
            for bit in bits:
                if not mask & bit and not ge(scan[mask | bit], scan[mask], slack):
                    raise ValidationError(
                        f"capacity not monotone at {self.ground.subset_key(mask)} "
                        f"+ {self.ground.labels[bit.bit_length() - 1]!r}"
                    )
        # values spread from the carrier's subsets pass at once, on identity
        # when they share objects; the toleranced comparison runs only when
        # some value differs from its spread
        if self.carrier is not None and values != spread(
            [values[mask] for mask in masks], active, n
        ):
            for mask in range(1 << n):
                if not eq(values[mask], values[mask & active], tol):
                    raise ValidationError("capacity is not constant across its carrier")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ground, self.values, self.carrier) == (
            other.ground, other.values, other.carrier
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.values, self.carrier))

    def __repr__(self) -> str:
        return (
            f"Capacity(ground={self.ground!r}, values={self.values!r}, "
            f"carrier={self.carrier!r})"
        )

    @classmethod
    def _derived(
        cls,
        ground: GroundSet,
        table: Sequence[Num],
        carrier: int,
        values: Optional[tuple[Num, ...]] = None,
    ) -> "Capacity":
        """A capacity that capid derived from validated inputs and that is
        monotone, convex and carried by ``carrier`` by construction, built
        without the checks.  ``table`` holds its values on the carrier's
        subsets, indexed like ``carrier_masks(carrier)``, and ``values``
        defaults to the table spread to every mask.  ``is_exact`` and
        ``int_view`` are read off the table (``is_exact`` off ``values`` when
        given), on the index list that spreads it, and ``is_convex`` answers
        True without a scan."""
        index = _spread_index(carrier, ground.size)
        exact = all_exact(table if values is None else values)
        if values is None:
            values = tuple(map(table.__getitem__, index))
        nu = object.__new__(cls)
        memo = nu.__dict__
        memo.update(ground=ground, values=values, carrier=carrier, is_exact=exact, _convex=True)
        if exact:
            nums, scale = int_numerators(table)
            memo["int_view"] = tuple(map(nums.__getitem__, index)), scale
        return nu

    # computed once per capacity: is_exact and int_view scan all 2^n values.
    # A cached property stores its value in the instance __dict__, next to
    # the fields; equality, hashing and repr read the fields by name, so
    # they never see it.
    @cached_property
    def is_exact(self) -> bool:
        return all_exact(self.values)

    @cached_property
    def int_view(self) -> tuple[tuple[int, ...], int]:
        """Exact mode only: the values as int numerators over the lcm of their
        denominators, so comparing numerators compares values.  Only the
        carrier's subsets are converted; every other value is a copy."""
        active = self.active
        masks = carrier_masks(active)
        nums, scale = int_numerators([self.values[mask] for mask in masks])
        if len(masks) < len(self.values):
            nums = spread(nums, active, self.ground.size)
        return nums, scale

    @cached_property
    def tol(self) -> Num:
        return ZERO if self.is_exact else FLOAT_TOL

    @cached_property
    def _convex(self) -> bool:
        """Local supermodularity: nu(K+i+j) + nu(K) >= nu(K+i) + nu(K+j).

        The local inequalities, over labels i, j of the carrier and subsets K
        of the carrier without them, add up to the pairwise definition
        nu(K|K') + nu(K&K') >= nu(K) + nu(K'), so they are equivalent to it
        (Grabisch 2016, ch. 2).  Values are constant in the directions off
        the carrier, so the test stays on the carrier's subsets:
        O(|C|^2 2^|C|).
        """
        values, tol = (self.int_view[0], 0) if self.is_exact else (self.values, self.tol)
        active = self.active
        bits = [1 << i for i in range(self.ground.size) if active >> i & 1]
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

    @property
    def active(self) -> int:
        """The carrier, or the full ground set when none is attached."""
        return self.carrier if self.carrier is not None else self.ground.full_mask

    def value(self, mask: int) -> Num:
        return self.values[mask]

    @classmethod
    def from_measure(cls, p: Measure, carrier: Optional[int] = None) -> "Capacity":
        values = tuple(mass_table(p.weights))
        if carrier is None:
            carrier = p.carrier if p.carrier is not None else p.support()
            if carrier == 0:
                carrier = p.ground.full_mask
        return cls(p.ground, values, carrier)


def is_convex(nu: Capacity) -> bool:
    """Whether ``nu`` is convex (supermodular).  The test runs at most once
    per capacity; a capacity from ``Capacity._derived`` is convex by
    construction and is not scanned at all."""
    return nu._convex


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
    return all(ge(pk, nuk, tol) for pk, nuk in zip(mass_table(p.weights), nu.values))


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
    if any(not ge(w, 0, tol) for w in weights) or not eq(fold_sum(weights), 1, tol):
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

    # rows in the LP kernel's form: int numerators, and (rhs, denominator)
    a_ub: list[list[int]] = []
    b_ub: list[tuple[int, int]] = []
    a_eq: list[list[int]] = []
    b_eq: list[tuple[int, int]] = []
    for ci in active:
        cap = capacities[ci]
        carrier = cap.active
        row = [0] * nvars
        for var in var_of[ci].values():
            row[var] = 1
        a_eq.append(row)
        b_eq.append((1, 1))
        masks = [mask for mask in submasks(carrier) if mask and mask != carrier]
        # p_i(K) >= nu_i(K), written on the complement so the right-hand
        # side stays nonnegative: p_i(C\K) <= 1 - nu_i(K).  With nu_i(K),
        # less the float slack, as N_K over L, the row is [L..., L - N_K, L].
        if exact:
            nums, scale = cap.int_view
            floors = [nums[mask] for mask in masks]
        else:
            floors, scale = int_numerators(
                [as_fraction(cap.values[mask]) - slack for mask in masks]
            )
        for mask, floor in zip(masks, floors):
            row = [0] * nvars
            comp = carrier & ~mask
            for i, var in var_of[ci].items():
                if comp >> i & 1:
                    row[var] = scale
            a_ub.append(row)
            b_ub.append((scale - floor, scale))
    # the mix-back sum_i w_i p_i(a) = p(a), over the weights' and p's scales
    w_nums, w_scale = int_numerators([as_fraction(w) for w in weights])
    p_nums, p_scale = int_numerators([as_fraction(v) for v in p.weights])
    den = w_scale * p_scale
    mix_rows: list[list[int]] = []
    targets: list[int] = []
    for i in range(n):
        row = [0] * nvars
        covered = False
        for ci in active:
            var = var_of[ci].get(i)
            if var is not None:
                row[var] = w_nums[ci] * p_scale
                covered = True
        if not covered:
            if exact:
                if p_nums[i] != 0:
                    return None
            elif not eq(p.weights[i], 0, FLOAT_TOL):
                return None
            continue
        mix_rows.append(row)
        targets.append(p_nums[i] * w_scale)

    if exact:
        mix_rhs = [(target, den) for target in targets]
        solution = lp.feasible_point(a_ub, b_ub, a_eq + mix_rows, b_eq + mix_rhs, nvars)
    else:
        # float weights cannot meet the mix-back exactly, so it becomes a band.
        # Half the tolerance on either side leaves room to round the parts to
        # floats; the full tolerance, which the dominance check allows, is the
        # fallback for data that sits at the edge of that check.
        for band in (slack / 2, slack):
            # target/den +- band, all over den * band's denominator
            up, band_den = band.numerator * den, band.denominator
            band_rows, band_rhs = [], []
            for row, target in zip(mix_rows, targets):
                scaled = [v * band_den for v in row]
                band_rows += [scaled, [-v for v in scaled]]
                shift = target * band_den
                band_rhs += [(shift + up, den * band_den), (up - shift, den * band_den)]
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
            out.append(Measure._derived(ground, tuple(_back(w) for w in weights_i), carrier))
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
