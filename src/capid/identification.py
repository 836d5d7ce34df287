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
  shared by all rules;
* ``necessary_check`` / ``necessary_exists`` run the dominance test against
  the lower envelope of an arbitrary finite credal set, where failure refutes
  and success does not certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from . import lp
from .capacity import (
    Capacity,
    GroundSet,
    Label,
    Measure,
    decompose_in_mixture_core,
    lower_probability,
    pushforward_measure,
)
from .errors import CapidError, InfeasibleSetError, SizeLimitError, ValidationError
from .info_specs import InfoSpec, build_capacity
from .numeric import FLOAT_TOL, Num, all_exact, as_fraction, eq, tol_for

#: Vertex enumeration is exact but exponential; keep it at desk scale.
MAX_RULES_FOR_VERTICES = 8

#: Verdicts list at most this many violated subsets (plus a total count).
MAX_REPORTED_VIOLATIONS = 64


@dataclass(frozen=True)
class MenuCollection:
    """The menus the analyst considers relevant, as masks over the ground set."""

    ground: GroundSet
    menus: tuple[int, ...]

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class DecisionRule:
    """Total choice assignment: ``choices[i]`` is picked from menu i."""

    rule_id: str
    choices: tuple[Label, ...]

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

    def choice_map(self, collection: MenuCollection) -> dict[str, Label]:
        return {str(i): c for i, c in enumerate(self.choices)}


def choice_range(rule: DecisionRule, collection: MenuCollection) -> int:
    """Mask of all alternatives the rule can produce across the collection."""
    rule.validate_on(collection)
    mask = 0
    for choice in rule.choices:
        mask |= collection.ground.singleton(choice)
    return mask


def induce_choice_distribution(
    pi: Measure, rule: DecisionRule, collection: MenuCollection
) -> Measure:
    """Distribution over chosen alternatives induced by a menu distribution."""
    rule.validate_on(collection)
    if pi.ground != collection.menu_ground():
        raise ValidationError("menu measure does not match the collection")
    return pushforward_measure(pi, rule.choice_map(collection), collection.ground)


@dataclass(frozen=True)
class ProblemRule:
    """One rule as the identification engine sees it: id, carrier, capacity."""

    rule_id: str
    carrier: int
    capacity: Capacity

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class IdentificationProblem:
    ground: GroundSet
    rules: tuple[ProblemRule, ...]
    data: Measure

    def __post_init__(self) -> None:
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

    @property
    def tol(self) -> Num:
        streams = [self.data.weights]
        streams.extend(r.capacity.values for r in self.rules)
        return tol_for(*streams)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a dominance check; ``violated`` holds (subset mask, shortfall).

    ``necessary_only`` marks verdicts produced from a lower envelope without
    the core assumption: a failure refutes, a pass does not certify.
    """

    rationalizes: bool
    violated: tuple[tuple[int, Num], ...]
    violation_count: int
    necessary_only: bool = False

    def __post_init__(self) -> None:
        if self.rationalizes != (self.violation_count == 0):
            raise ValidationError("verdict flag inconsistent with violations")


def _q_weights(problem_rules: Sequence[ProblemRule], q: Measure) -> list[Num]:
    ids = tuple(r.rule_id for r in problem_rules)
    if q.ground.labels != ids:
        # accept any ordering of the same id set
        if set(q.ground.labels) != set(ids):
            raise ValidationError("Q is not a measure over this problem's rules")
        return [q.weight(rid) for rid in ids]
    return list(q.weights)


def _dominance_verdict(
    ground: GroundSet,
    lam: Measure,
    capacities: Sequence[Capacity],
    weights: Sequence[Num],
    necessary_only: bool = False,
) -> Verdict:
    tol = tol_for(lam.weights, weights, *(c.values for c in capacities))
    violations: list[tuple[int, Num]] = []
    count = 0
    for mask in ground.masks():
        rhs = sum(w * c.values[mask] for w, c in zip(weights, capacities))
        shortfall = rhs - lam.mass(mask)
        if shortfall > tol:
            count += 1
            if len(violations) < MAX_REPORTED_VIOLATIONS:
                violations.append((mask, shortfall))
    return Verdict(
        rationalizes=count == 0,
        violated=tuple(violations),
        violation_count=count,
        necessary_only=necessary_only,
    )


def check_rationalizes(problem: IdentificationProblem, q: Measure) -> Verdict:
    """Evaluate the dominance inequalities for every subset at the given Q."""
    weights = _q_weights(problem.rules, q)
    return _dominance_verdict(
        problem.ground, problem.data, [r.capacity for r in problem.rules], weights
    )


def _constraint_rows(
    ground: GroundSet, lam: Measure, capacities: Sequence[Capacity]
) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """Dominance inequalities as LP rows ``coeffs . Q <= rhs``, one per subset.

    Zero rows are dropped and duplicate coefficient vectors keep only their
    smallest right-hand side; both are pure reductions of the same feasible set.
    In float mode right-hand sides gain the standard feasibility slack.
    """
    exact = all_exact(lam.weights) and all(c.is_exact for c in capacities)
    slack = Fraction(0) if exact else Fraction(FLOAT_TOL)
    best: dict[tuple[Fraction, ...], Fraction] = {}
    for mask in ground.masks():
        coeffs = tuple(as_fraction(c.values[mask]) for c in capacities)
        if not any(coeffs):
            continue
        rhs = as_fraction(lam.mass(mask)) + slack
        if coeffs not in best or rhs < best[coeffs]:
            best[coeffs] = rhs
    return sorted(best.items())


def exists_rationalizing(problem: IdentificationProblem) -> Optional[Measure]:
    """Some admissible Q, or None when the identified set is empty."""
    m = len(problem.rules)
    rows = _constraint_rows(problem.ground, problem.data, [r.capacity for r in problem.rules])
    a_ub = [list(coeffs) for coeffs, _ in rows]
    b_ub = [rhs for _, rhs in rows]
    point = lp.feasible_point(a_ub, b_ub, [[Fraction(1)] * m], [Fraction(1)], m)
    if point is None:
        return None
    return _measure_over_rules(problem, point)


def _measure_over_rules(problem: IdentificationProblem, point: Sequence[Fraction]) -> Measure:
    exact = problem.tol == 0
    weights = tuple(w if exact else float(w) for w in point)
    return Measure(problem.rule_ground(), weights)


def probability_bounds(
    problem: IdentificationProblem,
) -> dict[str, tuple[Num, Num]]:
    """Sharp [min, max] of Q(d) per rule over the identified set.

    Each bound is the optimum of an exact LP, so it is attained by a feasible
    Q (the simplex returns a certifying basic solution).
    """
    m = len(problem.rules)
    rows = _constraint_rows(problem.ground, problem.data, [r.capacity for r in problem.rules])
    a_ub = [list(coeffs) for coeffs, _ in rows]
    b_ub = [rhs for _, rhs in rows]
    a_eq, b_eq = [[Fraction(1)] * m], [Fraction(1)]
    exact = problem.tol == 0
    out: dict[str, tuple[Num, Num]] = {}
    for i, rule in enumerate(problem.rules):
        lo_obj = [Fraction(0)] * m
        lo_obj[i] = Fraction(1)
        lo = lp.solve_lp(lo_obj, a_ub, b_ub, a_eq, b_eq)
        if lo.status != "optimal":
            raise InfeasibleSetError("the identified set is empty")
        hi_obj = [Fraction(0)] * m
        hi_obj[i] = Fraction(-1)
        hi = lp.solve_lp(hi_obj, a_ub, b_ub, a_eq, b_eq)
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
    rows = _constraint_rows(problem.ground, problem.data, [r.capacity for r in problem.rules])
    verts = lp.simplex_polytope_vertices(m, rows)
    if not verts:
        raise InfeasibleSetError("the identified set is empty")
    return [_measure_over_rules(problem, v) for v in sorted(verts)]


def witness_decomposition(
    problem: IdentificationProblem, q: Measure
) -> dict[str, Measure]:
    """Per-rule choice distributions certifying an admissible Q.

    Only rules with positive Q weight appear in the result; their Q-weighted
    sum reproduces the data exactly.
    """
    verdict = check_rationalizes(problem, q)
    if not verdict.rationalizes:
        raise ValidationError("Q does not rationalize the data; no witness exists")
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
        out[rule.rule_id] = Measure(menu_ground, tuple(weights))
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
    point = lp.feasible_point(a_ub, b_ub, a_eq, b_eq, k)
    if point is None:
        return None
    weights = tuple(w if exact else float(w) for w in point)
    return Measure(collection.menu_ground(), weights)


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


def necessary_check(
    ground: GroundSet,
    lam: Measure,
    rule_vertex_sets: Sequence[tuple[str, Sequence[Measure]]],
    q: Measure,
) -> Verdict:
    """Dominance test against lower envelopes of arbitrary finite credal sets.

    No core assumption is made, so a failing verdict refutes rationalizability
    while a passing one does not certify it; the verdict carries
    ``necessary_only=True`` to make that explicit.
    """
    capacities = []
    ids = []
    for rule_id, vertices in rule_vertex_sets:
        capacities.append(lower_probability(list(vertices), ground))
        ids.append(rule_id)
    if set(q.ground.labels) != set(ids):
        raise ValidationError("Q is not a measure over the given rules")
    weights = [q.weight(rid) for rid in ids]
    return _dominance_verdict(ground, lam, capacities, weights, necessary_only=True)


def necessary_exists(
    ground: GroundSet,
    lam: Measure,
    rule_vertex_sets: Sequence[tuple[str, Sequence[Measure]]],
) -> Optional[Measure]:
    """Search for any Q passing the lower-envelope dominance test.

    None refutes rationalizability for every Q; a returned Q is necessary-only
    evidence, not a certificate.
    """
    ids = tuple(rule_id for rule_id, _ in rule_vertex_sets)
    capacities = [
        lower_probability(list(vertices), ground) for _, vertices in rule_vertex_sets
    ]
    exact = all_exact(lam.weights) and all(c.is_exact for c in capacities)
    rows = _constraint_rows(ground, lam, capacities)
    m = len(ids)
    point = lp.feasible_point(
        [list(c) for c, _ in rows], [r for _, r in rows], [[Fraction(1)] * m], [Fraction(1)], m
    )
    if point is None:
        return None
    weights = tuple(w if exact else float(w) for w in point)
    return Measure(GroundSet(ids), weights)
