"""Sharp identification of rule distributions from aggregate choice data.

A distribution Q over decision rules explains the observed choice frequencies
exactly when the data dominates the Q-mixture of the per-rule capacities on
every subset of alternatives.  That finite family of linear inequalities cuts
the sharp identified set out of the probability simplex, so every query below
is linear programming or exact vertex enumeration:

* ``check_rationalizes`` evaluates the dominance inequalities for a given Q;
* ``exists_rationalizing`` finds some admissible Q or reports that none exists;
* ``probability_bounds`` computes sharp per-rule probability intervals;
* ``identified_vertices`` enumerates the polytope's extreme points exactly;
* ``witness_decomposition`` recovers per-rule choice distributions certifying
  an admissible Q, and ``construct_menu_measures`` lifts them to menu
  distributions;
* ``check_menu_homogeneous`` additionally forces a single menu distribution
  shared by all rules.

The verdicts and the LP rows, and ``updating``'s average-bias answers, all
come from one source, ``_dominance_rows``, whose rows are ints in both
modes: the capacities' values over one common denominator and lambda's
subset sums (summed as floats in float mode) over another, a float at its
exact binary value.  The verdict scan compares int dot products, and the LP
rows are deduplicated and sorted as int tuples and reach the LP kernel, for
the simplex and vertex enumeration alike, as ints in its row form, as do
``check_menu_homogeneous``'s rows.  Float mode's 1e-9 tolerance is one int
shift in the scan and an exact slack on the rows' right-hand sides.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from operator import mul
from typing import Iterator, Mapping, Optional, Sequence

from . import lp
from .capacity import (
    Capacity,
    GroundSet,
    Label,
    Measure,
    Record,
    decompose_in_mixture_core,
    is_convex,
    mass_table,
)
from .errors import CapidError, InfeasibleSetError, SizeLimitError, ValidationError
from .info_specs import InfoSpec, build_capacity
from .numeric import FLOAT_TOL, ZERO, Num, all_exact, fold_sum, int_numerators, tol_shift

#: Vertex enumeration is exact but exponential; keep it at desk scale.
MAX_RULES_FOR_VERTICES = 8

#: Verdicts list at most this many violated subsets (plus a total count).
MAX_REPORTED_VIOLATIONS = 64


class MenuCollection:
    """The menus the analyst considers relevant, as masks over the ground set."""

    def __init__(self, ground: GroundSet, menus: tuple[int, ...]) -> None:
        self.ground = ground
        self.menus = menus
        if not self.menus:
            raise ValidationError("menu collection must be nonempty")
        for menu in self.menus:
            if menu == 0:
                raise ValidationError("menus must be nonempty")
            if menu > self.ground.full_mask:
                raise ValidationError("menu is not a subset of the ground set")

    @classmethod
    def of(cls, ground: GroundSet, menus: Sequence[Sequence[Label]]) -> "MenuCollection":
        return cls(ground, tuple(ground.mask_of(m) for m in menus))

    def menu_ground(self) -> GroundSet:
        """Index-labelled ground set for measures over menus."""
        return GroundSet(tuple(str(i) for i in range(len(self.menus))))


class DecisionRule:
    """Total choice assignment: ``choices[i]`` is picked from menu i."""

    def __init__(self, rule_id: str, choices: tuple[Label, ...]) -> None:
        self.rule_id = rule_id
        self.choices = choices

    def validate_on(self, collection: MenuCollection) -> None:
        if len(self.choices) != len(collection.menus):
            raise ValidationError(
                f"rule {self.rule_id!r} is not total on the menu collection"
            )
        for choice, menu in zip(self.choices, collection.menus):
            if not collection.ground.singleton(choice) & menu:
                raise ValidationError(
                    f"rule {self.rule_id!r} picks {choice!r} outside its menu"
                )


def choice_range(rule: DecisionRule, collection: MenuCollection) -> int:
    """Mask of all alternatives the rule can produce across the collection."""
    rule.validate_on(collection)
    return collection.ground.mask_of(rule.choices)


class ProblemRule:
    """One rule as the identification engine sees it: id, carrier, capacity."""

    def __init__(self, rule_id: str, carrier: int, capacity: Capacity) -> None:
        self.rule_id = rule_id
        self.carrier = carrier
        self.capacity = capacity
        cap_carrier = self.capacity.carrier
        if cap_carrier is not None and cap_carrier & ~self.carrier:
            raise ValidationError(
                f"rule {self.rule_id!r}: capacity carrier exceeds the declared carrier"
            )
        if cap_carrier is None and not self.capacity.carried_by(self.carrier):
            raise ValidationError(
                f"rule {self.rule_id!r}: capacity is not carried by the declared carrier"
            )


class IdentificationProblem:
    def __init__(
        self, ground: GroundSet, rules: tuple[ProblemRule, ...], data: Measure
    ) -> None:
        self.ground = ground
        self.rules = rules
        self.data = data
        if not self.rules:
            raise ValidationError("at least one rule is required")
        ids = [r.rule_id for r in self.rules]
        if len(set(ids)) != len(ids):
            raise ValidationError("rule ids must be distinct")
        for rule in self.rules:
            if rule.capacity.ground != self.ground:
                raise ValidationError("rule capacity lives on a different ground set")
        if self.data.ground != self.ground:
            raise ValidationError("data lives on a different ground set")
        for rule in self.rules:
            if not is_convex(rule.capacity):
                raise ValidationError(
                    f"rule {rule.rule_id!r}: capacity must be convex"
                )

    def rule_ground(self) -> GroundSet:
        return GroundSet(tuple(r.rule_id for r in self.rules))


class Verdict(Record):
    """Outcome of a dominance check; ``violated`` holds (subset mask, shortfall)."""

    def __init__(
        self, rationalizes: bool, violated: tuple[tuple[int, Num], ...], violation_count: int
    ) -> None:
        self.rationalizes = rationalizes
        self.violated = violated
        self.violation_count = violation_count
        # capid builds every verdict, so a mismatch is its own fault
        if self.rationalizes != (self.violation_count == 0):
            raise CapidError("verdict flag inconsistent with violations")


def _q_weights(problem_rules: Sequence[ProblemRule], q: Measure) -> list[Num]:
    ids = tuple(r.rule_id for r in problem_rules)
    if q.ground.labels != ids:
        # accept any ordering of the same id set
        if set(q.ground.labels) != set(ids):
            raise ValidationError("Q is not a measure over this problem's rules")
        return [q.weight(rid) for rid in ids]
    return list(q.weights)


def _dominance_rows(
    lam: Measure, capacities: Sequence[Capacity], weights: Sequence[Num] = ()
) -> tuple[Num, tuple[int, int], Iterator[tuple[int, tuple[int, ...], int]]]:
    """The dominance family lam(K) >= sum_d Q(d) nu_d(K), one row per subset K.

    Returns the tolerance, zero unless lam, a capacity or a mixing weight
    holds a float, the scales (L, D) and a single-pass iterator over the
    rows (K, the capacities' values at K as ints over L, lam(K) as an int
    over D) in mask order.  lam's subset sums come off one table, of its
    numerators when lam is exact and of its floats, as ``Measure.mass``
    adds them, when not.
    """
    exact = lam.is_exact and all(c.is_exact for c in capacities) and all_exact(weights)
    views = [c.int_view for c in capacities]
    scale = math.lcm(*(den for _, den in views))
    columns = zip(*(
        nums if den == scale else tuple(v * (scale // den) for v in nums) for nums, den in views
    ))
    if lam.is_exact:
        lam_nums, lam_scale = lam.int_view
        sums = mass_table(lam_nums)
    else:
        sums, lam_scale = int_numerators(mass_table(lam.weights))
    return ZERO if exact else FLOAT_TOL, (scale, lam_scale), zip(count(), columns, sums)


def dominance_verdict(
    lam: Measure, capacities: Sequence[Capacity], weights: Sequence[Num]
) -> Verdict:
    """Scan every dominance row at the mixing weights; at most
    MAX_REPORTED_VIOLATIONS shortfalls are listed, all are counted."""
    tol, (scale, lam_scale), rows = _dominance_rows(lam, capacities, weights)
    # sum_d (w_d/W)(N_d/L) - Lam/D > tol, with W, L and D positive
    w_nums, w_scale = int_numerators(weights)
    bound = w_scale * scale
    shift = tol_shift(tol, bound * lam_scale)
    failing = (
        mask for mask, column, lam_k in rows
        if sum(map(mul, w_nums, column)) * lam_scale > lam_k * bound + shift
    )
    violations: list[tuple[int, Num]] = []
    violation_count = 0
    for mask in failing:
        violation_count += 1
        if len(violations) < MAX_REPORTED_VIOLATIONS:
            # the listed shortfalls are worked out on the values themselves,
            # so they keep their types
            total = fold_sum(w * c.values[mask] for w, c in zip(weights, capacities))
            violations.append((mask, total - lam.mass(mask)))
    return Verdict(violation_count == 0, tuple(violations), violation_count)


def check_rationalizes(problem: IdentificationProblem, q: Measure) -> Verdict:
    """Evaluate the dominance inequalities for every subset at the given Q."""
    weights = _q_weights(problem.rules, q)
    return dominance_verdict(problem.data, [r.capacity for r in problem.rules], weights)


def _lp_rows(
    problem: IdentificationProblem, share: Num = 1
) -> tuple[bool, list[list[int]], list[tuple[int, int]]]:
    """Whether the rows are exact, and the dominance rows ``coeffs . Q <= rhs``
    in the LP kernel's row form, for ``exists``, ``bounds`` and ``vertices``.

    Zero rows are dropped and duplicate coefficient vectors keep only their
    smallest right-hand side; both are pure reductions of the same feasible set.
    Rows come out sorted by value.  The coefficients are ``_dominance_rows``'
    ints over L and the right-hand sides its ints over D, plus ``share`` of
    the tolerance, all put over one row denominator by ``lp.scaled_rows``.
    """
    caps = [r.capacity for r in problem.rules]
    tol, (scale, lam_scale), rows = _dominance_rows(problem.data, caps)
    best: dict[tuple[int, ...], int] = {}
    for _, column, lam_k in rows:
        if any(column) and (column not in best or lam_k < best[column]):
            best[column] = lam_k
    # ints over shared positive scales compare as their values
    kept = sorted(best.items())
    a_ub, b_ub = lp.scaled_rows(
        [c for c, _ in kept], scale, [r for _, r in kept], lam_scale, tol * share
    )
    return not tol, a_ub, b_ub


def _measure_over_rules(
    problem: IdentificationProblem, point: Sequence[Fraction], exact: bool
) -> Measure:
    weights = tuple(w if exact else float(w) for w in point)
    return Measure._derived(problem.rule_ground(), weights)


def exists_rationalizing(problem: IdentificationProblem) -> Optional[Measure]:
    """Some admissible Q, or None when the identified set is empty.  Float
    mode solves at half the tolerance first, so that the point, which lies on
    some rows, stays within them once rounded to floats."""
    m = len(problem.rules)
    for share in (Fraction(1, 2), 1):
        exact, a_ub, b_ub = _lp_rows(problem, share)
        point = lp.feasible_point(a_ub, b_ub, [[1] * m], [(1, 1)], m)
        if point is not None or exact:
            break
    if point is None:
        return None
    return _measure_over_rules(problem, point, exact)


def probability_bounds(
    problem: IdentificationProblem,
) -> dict[str, tuple[Num, Num]]:
    """Sharp [min, max] of Q(d) per rule over the identified set.

    Each bound is the optimum of an exact LP, so it is attained by a feasible
    Q (the simplex returns a certifying basic solution).
    """
    m = len(problem.rules)
    exact, a_ub, b_ub = _lp_rows(problem)
    # per rule, min Q(d) and then min -Q(d), all from one phase 1
    objectives = [[sign if j == i else 0 for j in range(m)] for i in range(m) for sign in (1, -1)]
    results = lp.minimize_each(objectives, a_ub, b_ub, [[1] * m], [(1, 1)])
    out: dict[str, tuple[Num, Num]] = {}
    for i, rule in enumerate(problem.rules):
        lo, hi = results[2 * i], results[2 * i + 1]
        if lo.status != "optimal":
            raise InfeasibleSetError("the identified set is empty")
        if hi.status != "optimal":
            raise CapidError("bound query failed on a nonempty identified set")
        lo_v, hi_v = lo.objective, -hi.objective
        out[rule.rule_id] = (lo_v, hi_v) if exact else (float(lo_v), float(hi_v))
    return out


def identified_vertices(problem: IdentificationProblem) -> list[Measure]:
    """Exact extreme points of the identified polytope, in sorted order."""
    m = len(problem.rules)
    if m > MAX_RULES_FOR_VERTICES:
        raise SizeLimitError(
            f"vertex enumeration supports at most {MAX_RULES_FOR_VERTICES} rules"
        )
    exact, a_ub, b_ub = _lp_rows(problem)
    verts = lp.simplex_polytope_vertices(m, a_ub, b_ub)
    if not verts:
        raise InfeasibleSetError("the identified set is empty")
    return [_measure_over_rules(problem, v, exact) for v in sorted(verts)]


class _NoWitness(ValidationError):
    """Q fails the dominance check; carries the failing verdict, so that a
    caller which reports it does not check a second time."""

    def __init__(self, verdict: Verdict) -> None:
        super().__init__("Q does not rationalize the data; no witness exists")
        self.verdict = verdict


def witness_decomposition(
    problem: IdentificationProblem, q: Measure
) -> dict[str, Measure]:
    """Per-rule choice distributions certifying an admissible Q.

    Only rules with positive Q weight appear in the result; their Q-weighted
    sum reproduces the data exactly.
    """
    verdict = check_rationalizes(problem, q)
    if not verdict.rationalizes:
        raise _NoWitness(verdict)
    weights = _q_weights(problem.rules, q)
    positive = [i for i, w in enumerate(weights) if w > 0]
    caps = [problem.rules[i].capacity for i in positive]
    share = [weights[i] for i in positive]
    parts = decompose_in_mixture_core(problem.data, caps, share)
    if parts is None:
        raise CapidError("decomposition failed despite a passing dominance check")
    return {problem.rules[i].rule_id: part for i, part in zip(positive, parts)}


def construct_menu_measures(
    rho_by_rule: Mapping[str, Measure],
    rules: Sequence[DecisionRule],
    collection: MenuCollection,
) -> dict[str, Measure]:
    """Menu distributions generating the given choice distributions.

    For every alternative with positive weight the first menu (in collection
    order) at which the rule picks it receives that weight; everything else
    gets zero.  Deterministic by construction and exact by bookkeeping.
    """
    menu_ground = collection.menu_ground()
    out: dict[str, Measure] = {}
    for rule in rules:
        if rule.rule_id not in rho_by_rule:
            continue
        rule.validate_on(collection)
        rho = rho_by_rule[rule.rule_id]
        support = rho.support()
        weights: list[Num] = [Fraction(0) if rho.is_exact else 0.0] * len(collection.menus)
        for i, (label, w) in enumerate(zip(rho.ground.labels, rho.weights)):
            if not support >> i & 1:
                continue
            menu_idx = next((j for j, c in enumerate(rule.choices) if c == label), None)
            if menu_idx is None:
                raise ValidationError(
                    f"rule {rule.rule_id!r} never chooses {label!r}: choice "
                    "distribution puts mass outside the rule's range"
                )
            weights[menu_idx] = weights[menu_idx] + w
        out[rule.rule_id] = Measure._derived(menu_ground, tuple(weights))
    return out


def check_menu_homogeneous(
    rules: Sequence[DecisionRule],
    collection: MenuCollection,
    lam: Measure,
    q: Measure,
) -> Optional[Measure]:
    """A single menu distribution shared by all rules that explains the data.

    Solves the linear feasibility problem in pi over menus:
    for every alternative a,  sum_d Q(d) pi(menus where d picks a) = lambda(a).
    Returns the found distribution or None.
    """
    for rule in rules:
        rule.validate_on(collection)
    ids = tuple(r.rule_id for r in rules)
    if set(q.ground.labels) != set(ids):
        raise ValidationError("Q is not a measure over the given rules")
    ground = collection.ground
    if lam.ground != ground:
        raise ValidationError("data lives on a different ground set")
    k = len(collection.menus)
    exact = all_exact(lam.weights) and all_exact(q.weights)
    # alternative a's row holds, at menu j, the Q-weight of the rules that
    # pick a there, and its right-hand side is lambda(a): Q as ints over W
    # and lambda over D
    w_nums, w_scale = int_numerators([q.weight(rule.rule_id) for rule in rules])
    lam_nums, lam_scale = lam.int_view
    rows = [
        [sum(w for w, r in zip(w_nums, rules) if r.choices[j] == label) for j in range(k)]
        for label in ground.labels
    ]
    if exact:
        a_ub, b_ub = [], []
        a_eq, b_eq = lp.scaled_rows(rows, w_scale, lam_nums, lam_scale)
        a_eq.append([1] * k)
        b_eq.append((1, 1))
    else:
        # relax the per-alternative equalities into a +/- tolerance band
        a_ub, b_ub = lp.scaled_rows(
            rows + [[-v for v in row] for row in rows], w_scale,
            [*lam_nums, *(-v for v in lam_nums)], lam_scale, FLOAT_TOL,
        )
        a_eq, b_eq = [[1] * k], [(1, 1)]
    point = lp.feasible_point(a_ub, b_ub, a_eq, b_eq, k)
    if point is None:
        return None
    weights = tuple(w if exact else float(w) for w in point)
    return Measure._derived(collection.menu_ground(), weights)


def problem_from_info_specs(
    ground: GroundSet,
    specs: Sequence[tuple[str, InfoSpec]],
    lam: Measure,
) -> IdentificationProblem:
    """Assemble a problem from per-rule information specifications."""
    rules = tuple(
        ProblemRule(rule_id, spec.carrier, build_capacity(spec))
        for rule_id, spec in specs
    )
    return IdentificationProblem(ground, rules, lam)
