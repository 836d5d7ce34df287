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

The verdicts and the LP rows all come from one source, ``_dominance_rows``.
In exact mode its rows are ints: the capacities' values over one common
denominator and lambda's subset sums over lambda's denominator, so the
verdict scan compares int dot products and the LP rows are deduplicated and
sorted as int tuples.  The kept rows reach the LP kernel as ints in its row
form; only the shortfalls a verdict lists, and the rows of vertex
enumeration, become Fractions.  Float mode scans the floats themselves and
hands the LP the rows' exact Fractions, which the kernel's converter puts
over their common denominators.
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
    decompose_in_mixture_core,
    mass_table,
)
from .errors import CapidError, InfeasibleSetError, SizeLimitError, ValidationError
from .info_specs import InfoSpec, build_capacity
from .numeric import FLOAT_TOL, Num, all_exact, as_fraction, eq, fold_sum, int_numerators

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
    mask = 0
    for choice in rule.choices:
        mask |= collection.ground.singleton(choice)
    return mask


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
        if cap_carrier is None and self.carrier != self.capacity.ground.full_mask:
            # the capacity must actually be cylindrical over the declared carrier
            tol = self.capacity.tol
            for mask in self.capacity.ground.masks():
                if not eq(
                    self.capacity.values[mask],
                    self.capacity.values[mask & self.carrier],
                    tol,
                ):
                    raise ValidationError(
                        f"rule {self.rule_id!r}: capacity is not carried by the "
                        "declared carrier"
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
        from .capacity import is_convex

        for rule in self.rules:
            if not is_convex(rule.capacity):
                raise ValidationError(
                    f"rule {rule.rule_id!r}: capacity must be convex"
                )

    def rule_ground(self) -> GroundSet:
        return GroundSet(tuple(r.rule_id for r in self.rules))


class Verdict:
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

    def __repr__(self) -> str:
        return (
            f"Verdict(rationalizes={self.rationalizes!r}, violated={self.violated!r}, "
            f"violation_count={self.violation_count!r})"
        )


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
) -> tuple[Optional[tuple[int, int]], Iterator[tuple[int, tuple[Num, ...], Num]]]:
    """The dominance family lam(K) >= sum_d Q(d) nu_d(K), one row per subset K.

    Returns the row scales and a single-pass iterator over the rows (K, the
    capacities' values at K, lam(K)) in mask order, with lam's subset sums
    read off one table.  The arithmetic mode is decided once, on lam, the
    capacities and any mixing ``weights``.  In exact mode the scales are
    (L, D): the values come as ints over L, the lcm of the capacities'
    denominators, and lam(K) as an int over D, lam's denominator.  In float
    mode the scales are None and the rows hold the values themselves.
    """
    if not (lam.is_exact and all(c.is_exact for c in capacities) and all_exact(weights)):
        columns = zip(*(c.values for c in capacities))
        return None, zip(count(), columns, mass_table(lam.weights))
    views = [c.int_view for c in capacities]
    scale = math.lcm(*(den for _, den in views))
    columns = zip(*(
        nums if den == scale else tuple(v * (scale // den) for v in nums) for nums, den in views
    ))
    lam_nums, lam_scale = int_numerators(lam.weights)
    return (scale, lam_scale), zip(count(), columns, mass_table(lam_nums))


def dominance_verdict(
    lam: Measure, capacities: Sequence[Capacity], weights: Sequence[Num]
) -> Verdict:
    """Scan every dominance row at the mixing weights; at most
    MAX_REPORTED_VIOLATIONS shortfalls are listed, all are counted."""
    scales, rows = _dominance_rows(lam, capacities, weights)
    if scales is None:
        # a float weight times a Fraction value is float(w) * float(v), so
        # float weights take float(v) directly, without Fraction.__rmul__
        floats = all(isinstance(w, float) for w in weights)
        failing = (
            mask for mask, column, lam_k in rows
            if fold_sum(map(mul, weights, map(float, column) if floats else column))
            - lam_k > FLOAT_TOL
        )
    else:
        # sum_d (w_d/W)(N_d/L) > Lam/D, with W, L and D positive
        w_nums, w_scale = int_numerators(weights)
        scale, lam_scale = scales
        bound = w_scale * scale
        failing = (
            mask for mask, column, lam_k in rows
            if sum(map(mul, w_nums, column)) * lam_scale > lam_k * bound
        )
    violations: list[tuple[int, Num]] = []
    violation_count = 0
    for mask in failing:
        violation_count += 1
        if len(violations) < MAX_REPORTED_VIOLATIONS:
            # the listed shortfalls are worked out on the values themselves,
            # as the float scan does, so they keep their types
            total = fold_sum(w * c.values[mask] for w, c in zip(weights, capacities))
            violations.append((mask, total - lam.mass(mask)))
    return Verdict(violation_count == 0, tuple(violations), violation_count)


def check_rationalizes(problem: IdentificationProblem, q: Measure) -> Verdict:
    """Evaluate the dominance inequalities for every subset at the given Q."""
    weights = _q_weights(problem.rules, q)
    return dominance_verdict(problem.data, [r.capacity for r in problem.rules], weights)


def _lp_rows(
    problem: IdentificationProblem,
) -> tuple[Optional[tuple[int, int]], list[tuple[tuple[Num, ...], Num]]]:
    """The row scales and the dominance rows as LP rows ``coeffs . Q <= rhs``.

    Zero rows are dropped and duplicate coefficient vectors keep only their
    smallest right-hand side; both are pure reductions of the same feasible set.
    Rows come out sorted.  In exact mode the scales are those of
    ``_dominance_rows``: the coefficients are ints over L and the right-hand
    sides ints over D.  In float mode the scales are None, the rows are the
    values' exact Fractions, and right-hand sides gain the standard
    feasibility slack.
    """
    scales, rows = _dominance_rows(problem.data, [r.capacity for r in problem.rules])
    best: dict[tuple[Num, ...], Num] = {}
    for _, column, lam_k in rows:
        if any(column) and (column not in best or lam_k < best[column]):
            best[column] = lam_k
    if scales is None:
        slack = Fraction(FLOAT_TOL)
        return None, sorted(
            (tuple(as_fraction(v) for v in coeffs), as_fraction(rhs) + slack)
            for coeffs, rhs in best.items()
        )
    # every row is over the same positive scales, so the ints sort as the values
    return scales, sorted(best.items())


def _fraction_rows(
    scales: Optional[tuple[int, int]], rows: list[tuple[tuple[Num, ...], Num]]
) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """``_lp_rows``' rows as Fractions."""
    if scales is None:
        return rows
    scale, lam_scale = scales
    return [
        (tuple(Fraction(v, scale) for v in coeffs), Fraction(rhs, lam_scale))
        for coeffs, rhs in rows
    ]


def _lp_inequalities(
    problem: IdentificationProblem,
) -> tuple[bool, list[list[int]], list[tuple[int, int]]]:
    """Exactness and ``_lp_rows``' rows in the LP kernel's row form."""
    scales, rows = _lp_rows(problem)
    if scales is None:
        return False, *lp.int_rows([coeffs for coeffs, _ in rows], [rhs for _, rhs in rows])
    # coefficients N/L and right-hand sides R/D, over L * D
    scale, lam_scale = scales
    den = scale * lam_scale
    a_ub = [[v * lam_scale for v in coeffs] for coeffs, _ in rows]
    return True, a_ub, [(rhs * scale, den) for _, rhs in rows]


def _measure_over_rules(
    problem: IdentificationProblem, point: Sequence[Fraction], exact: bool
) -> Measure:
    weights = tuple(w if exact else float(w) for w in point)
    return Measure._derived(problem.rule_ground(), weights)


def exists_rationalizing(problem: IdentificationProblem) -> Optional[Measure]:
    """Some admissible Q, or None when the identified set is empty."""
    m = len(problem.rules)
    exact, a_ub, b_ub = _lp_inequalities(problem)
    point = lp.feasible_point(a_ub, b_ub, [[1] * m], [(1, 1)], m)
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
    exact, a_ub, b_ub = _lp_inequalities(problem)
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
    scales, rows = _lp_rows(problem)
    verts = lp.simplex_polytope_vertices(m, _fraction_rows(scales, rows))
    if not verts:
        raise InfeasibleSetError("the identified set is empty")
    return [_measure_over_rules(problem, v, scales is not None) for v in sorted(verts)]


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
        tol = rho.tol
        weights: list[Num] = [Fraction(0) if rho.is_exact else 0.0] * len(collection.menus)
        for i, label in enumerate(rho.ground.labels):
            w = rho.weights[i]
            if eq(w, 0, tol):
                continue
            menu_idx = next(
                (j for j, c in enumerate(rule.choices) if c == label), None
            )
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
    a_eq: list[list[Fraction]] = []
    b_eq: list[Fraction] = []
    for i, label in enumerate(ground.labels):
        row = [Fraction(0)] * k
        for rule in rules:
            qd = as_fraction(q.weight(rule.rule_id))
            for j, choice in enumerate(rule.choices):
                if choice == label:
                    row[j] += qd
        a_eq.append(row)
        b_eq.append(as_fraction(lam.weights[i]))
    a_eq.append([Fraction(1)] * k)
    b_eq.append(Fraction(1))
    a_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    if not exact:
        # relax the per-alternative equalities into a +/- tolerance band
        a_ub = [row[:] for row in a_eq[:-1]] + [[-v for v in row] for row in a_eq[:-1]]
        b_ub = [v + Fraction(FLOAT_TOL) for v in b_eq[:-1]] + [
            Fraction(FLOAT_TOL) - v for v in b_eq[:-1]
        ]
        a_eq, b_eq = [a_eq[-1]], [b_eq[-1]]
    point = lp.feasible_point(*lp.int_rows(a_ub, b_ub), *lp.int_rows(a_eq, b_eq), k)
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
