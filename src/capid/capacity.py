"""Exact set-function algebra on small finite ground sets.

A capacity is a monotone set function with value 0 on the empty set and 1 on
the full set; probability measures are the additive special case.  Subsets
are bitmasks over an ordered ground set, values live in a dense array of
length 2^n, and all arithmetic is exact on Fractions unless the caller opts
into floats.  A capacity also keeps its values as int numerators over one
denominator, floats at their binary values, on which the monotonicity,
convexity and belief scans, the dominance rows and the core rows of a
decomposition run in both modes, float mode's 1e-9 tolerance as an int shift.

The module provides the toolkit the engine needs: convexity
(supermodularity) testing, the belief-function test on the Moebius masses,
the core vertices of convex capacities as distinct marginal vectors built
over prefix sets, and the exact decomposition of a member of a mixture's
core.  ``mass_table`` gives a vector's sums over every subset at once.

Capacities and measures read from a document are validated in full when
they are constructed.  Those that capid derives from validated inputs, whose
properties follow from a theorem (see ``info_specs``) or from the linear
program that produced them, come from ``Capacity._derived`` and
``Measure._derived`` without the checks; a derived capacity records that it
is convex, and ``is_convex`` scans any other capacity at most once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from . import lp
from .errors import NotConvexError, SizeLimitError, ValidationError
from .numeric import (
    FLOAT_TOL, ZERO, Num, all_exact, as_fraction, fold_sum, format_number, int_numerators,
    tol_for, tol_shift,
)

Label = Hashable

#: Cap on the candidate vectors core_vertices may generate: about 2.5 s of
#: work, enough for every ordering of 8 labels (109,600 candidates).
MAX_CORE_CANDIDATES = 250_000


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
    of t over the bits of ``active``: the subset sums of its bit values."""
    return mass_table([1 << i for i in range(active.bit_length()) if active >> i & 1])


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


class Record:
    """Equality, hashing and a dataclass-format repr over a record's fields:
    the names in ``_fields``, or the whole instance ``__dict__`` when
    ``_fields`` is None.  A class with cached properties, whose values sit
    in the ``__dict__`` too, names its fields."""

    _fields: Optional[tuple[str, ...]] = None

    def _values(self) -> tuple:
        if self._fields is None:
            return tuple(vars(self).values())
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other is self:
            # what comparing the fields gives: tuples match items by identity first
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        names = vars(self) if self._fields is None else self._fields
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__name__}({fields})"


class GroundSet(Record):
    """Ordered finite set of alternatives; subsets are bitmasks over it."""

    _fields = ("labels",)

    def __init__(self, labels: tuple[Label, ...]) -> None:
        self.labels = labels
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("ground set labels must be distinct")
        if len(self.labels) < 1:
            raise ValidationError("ground set must be nonempty")

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


class Measure(Record):
    """Probability measure on a ground set, optionally confined to a carrier.

    The constructor validates the weights, as every measure read from a
    document needs; ``_derived`` builds one that capid derived itself.
    """

    _fields = ("ground", "weights", "carrier")

    def __init__(
        self, ground: GroundSet, weights: tuple[Num, ...], carrier: Optional[int] = None
    ) -> None:
        self.ground = ground
        self.weights = weights
        self.carrier = carrier
        n = self.ground.size
        if len(self.weights) != n:
            raise ValidationError("measure weight vector has wrong length")
        nums, scale = self.int_view
        shift = tol_shift(self.tol, scale)
        for w, num in zip(self.weights, nums):
            if num < -shift:
                raise ValidationError(f"negative weight {format_number(w)}")
        if self.is_exact:
            if sum(nums) != scale:
                raise ValidationError(f"weights sum to {Fraction(sum(nums), scale)}, expected 1")
        else:
            # the left-to-right float sum decides, as printed
            total = fold_sum(self.weights)
            if abs(total - 1) > self.tol:
                raise ValidationError(f"weights sum to {total}, expected 1")
        if self.carrier is not None:
            if self.carrier == 0:
                raise ValidationError("empty carrier")
            if self.carrier > self.ground.full_mask:
                raise ValidationError("carrier is not a subset of the ground set")
            if self.support() & ~self.carrier:
                raise ValidationError("measure puts mass outside its carrier")

    @classmethod
    def _derived(
        cls, ground: GroundSet, weights: tuple[Num, ...], carrier: Optional[int] = None
    ) -> "Measure":
        """A measure whose weights capid computed from validated inputs, built
        without the checks: an LP solution over the probability simplex, the
        per-rule parts of a decomposition, or such a part moved onto menus,
        and the core vertices of a convex capacity, whose weights are its
        increments along an ordering."""
        m = object.__new__(cls)
        m.__dict__.update(ground=ground, weights=weights, carrier=carrier)
        return m

    @cached_property
    def is_exact(self) -> bool:
        return all_exact(self.weights)

    @cached_property
    def tol(self) -> Num:
        return ZERO if self.is_exact else FLOAT_TOL

    @cached_property
    def int_view(self) -> tuple[tuple[int, ...], int]:
        return int_numerators(self.weights)

    def mass(self, mask: int) -> Num:
        return fold_sum(w for i, w in enumerate(self.weights) if mask >> i & 1)

    def weight(self, label: Label) -> Num:
        return self.weights[self.ground.index(label)]

    def support(self) -> int:
        """The labels whose weight is nonzero, up to the tolerance."""
        nums, scale = self.int_view
        shift = tol_shift(self.tol, scale)
        return sum(1 << i for i, num in enumerate(nums) if abs(num) > shift)

    @classmethod
    def point(cls, ground: GroundSet, label: Label, carrier: Optional[int] = None) -> "Measure":
        weights = [Fraction(0)] * ground.size
        weights[ground.index(label)] = Fraction(1)
        return cls(ground, tuple(weights), carrier)


class Capacity(Record):
    """Monotone set function with nu(empty)=0 and nu(X)=1, dense over bitmasks.

    When a carrier C is attached the capacity satisfies nu(K) = nu(K & C) for
    every K, i.e. it is the cylindrical extension of a capacity living on C.

    The constructor validates all of that, as every capacity read from a
    document needs; ``_derived`` builds one that holds by construction.
    """

    _fields = ("ground", "values", "carrier")

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
        if self.carrier is not None:
            if self.carrier == 0:
                raise ValidationError("empty carrier")
            if self.carrier > self.ground.full_mask:
                raise ValidationError("carrier is not a subset of the ground set")
        nums, scale = self.int_view
        shift = tol_shift(self.tol, scale)
        if abs(nums[0]) > shift:
            raise ValidationError("capacity of the empty set must be 0")
        if abs(nums[-1] - scale) > shift:
            raise ValidationError("capacity of the full set must be 1")
        # monotone on the carrier's subsets and constant across the carrier
        # together make the capacity monotone on every subset
        active = self.active
        bits = [1 << i for i in range(n) if active >> i & 1]
        for mask in carrier_masks(active):
            for bit in bits:
                if not mask & bit and nums[mask | bit] + shift < nums[mask]:
                    raise ValidationError(
                        f"capacity not monotone at {self.ground.subset_key(mask)} "
                        f"+ {self.ground.labels[bit.bit_length() - 1]!r}"
                    )
        if self.carrier is not None and not self.carried_by(self.carrier):
            raise ValidationError("capacity is not constant across its carrier")

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
        nums, scale = int_numerators(table)
        nu = object.__new__(cls)
        memo = nu.__dict__
        memo.update(ground=ground, values=values, carrier=carrier, is_exact=exact, _convex=True)
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
        """The values as int numerators over the lcm of their denominators."""
        return int_numerators(self.values)

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
        values, scale = self.int_view
        shift = tol_shift(self.tol, scale)
        active = self.active
        bits = [1 << i for i in range(self.ground.size) if active >> i & 1]
        for a, bit_i in enumerate(bits):
            for bit_j in bits[a + 1:]:
                pair = bit_i | bit_j
                for mask in submasks(active & ~pair):
                    if (
                        values[mask | pair] + values[mask] + shift
                        < values[mask | bit_i] + values[mask | bit_j]
                    ):
                        return False
        return True

    def carried_by(self, carrier: int) -> bool:
        """Whether nu(K) = nu(K & carrier) for every K, up to the tolerance."""
        nums, scale = self.int_view
        shift = tol_shift(self.tol, scale)
        return all(abs(num - nums[mask & carrier]) <= shift for mask, num in enumerate(nums))

    @property
    def active(self) -> int:
        """The carrier, or the full ground set when none is attached."""
        return self.carrier if self.carrier is not None else self.ground.full_mask

    def value(self, mask: int) -> Num:
        return self.values[mask]


def is_convex(nu: Capacity) -> bool:
    """Whether ``nu`` is convex (supermodular).  The test runs at most once
    per capacity; a capacity from ``Capacity._derived`` is convex by
    construction and is not scanned at all."""
    return nu._convex


def _moebius(values: list[Num], n: int) -> list[Num]:
    """The Moebius masses of a set function on n labels, in place, O(n 2^n):
    mass(K) = sum over J below K of (-1)^|K\\J| f(J)."""
    size = 1 << n
    for i in range(n):
        bit = 1 << i
        for block in range(0, size, bit << 1):
            for mask in range(block | bit, block + (bit << 1)):
                values[mask] -= values[mask ^ bit]
    return values


def is_belief_function(nu: Capacity) -> bool:
    """Total monotonicity, equivalently all Moebius masses nonnegative.

    Masses outside the carrier's powerset vanish for cylindrical capacities,
    so only the carrier's subsets are transformed, on their int numerators.
    """
    nums, scale = nu.int_view
    active = nu.active
    masses = _moebius([nums[mask] for mask in carrier_masks(active)], active.bit_count())
    return min(masses) >= -tol_shift(nu.tol, scale)


def _cell(w: Num) -> int:
    """The 1e-6 grid cell of a weight, centred on the multiples of 1e-6 so
    that 0 and other round values sit well inside one cell."""
    return math.floor(w * 1e6 + 0.5)


def _dedupe_measures(measures: Iterable[Measure]) -> list[Measure]:
    """The measures in order, without those equal to one kept before: exactly
    in exact mode, within FLOAT_TOL in every weight otherwise.  A kept float
    vector is filed under its weights' cells, and a new one is compared only
    with the vectors in the cells its tolerance box touches, the box widened
    by 2 FLOAT_TOL against rounding in the cell arithmetic."""
    exact: dict[tuple, Measure] = {}
    fuzzy: dict[tuple[int, ...], list[Measure]] = {}
    reach = 3 * FLOAT_TOL
    out: list[Measure] = []
    for m in measures:
        if m.is_exact:
            key = tuple(as_fraction(w) for w in m.weights)
            if key not in exact:
                exact[key] = m
                out.append(m)
        else:
            spans = [range(_cell(w - reach), _cell(w + reach) + 1) for w in m.weights]
            if not any(
                all(abs(a - b) <= FLOAT_TOL for a, b in zip(m.weights, kept.weights))
                for cell in product(*spans)
                for kept in fuzzy.get(cell, ())
            ):
                fuzzy.setdefault(tuple(map(_cell, m.weights)), []).append(m)
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
    return tuple(_dedupe_measures(Measure._derived(ground, v, active) for v in tails[0]))


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
    w_nums, w_scale = int_numerators(weights)
    # the left-to-right float sum decides, as in Measure
    if min(w_nums, default=0) < -tol_shift(tol, w_scale) or abs(fold_sum(weights) - 1) > tol:
        raise ValidationError("mixture weights must be a probability vector")
    exact = p.is_exact and all(c.is_exact for c in capacities) and all_exact(weights)
    slack = Fraction(0) if exact else Fraction(FLOAT_TOL)
    slack_num, slack_den = slack.as_integer_ratio()

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
        # p_i(K) >= nu_i(K) less the slack, written on the complement so the
        # right-hand side stays nonnegative: p_i(C\K) <= 1 - nu_i(K) + slack.
        # With nu_i(K) as N_K over L and the slack as s over t, the row is
        # [L t..., (L - N_K) t + s L, L t].
        nums, scale = cap.int_view
        unit = scale * slack_den
        for mask in submasks(carrier):
            if not mask or mask == carrier:
                continue
            row = [0] * nvars
            comp = carrier & ~mask
            for i, var in var_of[ci].items():
                if comp >> i & 1:
                    row[var] = unit
            a_ub.append(row)
            b_ub.append(((scale - nums[mask]) * slack_den + slack_num * scale, unit))
    # the mix-back sum_i w_i p_i(a) = p(a), over the weights' and p's scales
    p_nums, p_scale = p.int_view
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
            # mass on a label no active carrier holds, beyond the slack
            if abs(p_nums[i]) > tol_shift(slack, p_scale):
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
    return Measure._derived(nu.ground, tuple(weights), nu.active)
