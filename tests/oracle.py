"""Brute-force rationalization oracle, independent of the LP path.

Candidate choice distributions per rule are convex combinations of the
rule's core vertices with mixing weights on a step-1/20 grid; the oracle
then searches exhaustively for an assignment whose Q-weighted sum reproduces
the data, splitting the rules in half and meeting in the middle so the cost
is the product of two half-enumerations rather than the full product.
Everything is Fraction arithmetic, so "no witness found" is a certain
statement about the grid.

``non_redundant_constraints`` is the structural redundancy sieve over the
dominance inequalities, which the acceptance and identification tests use to
name the inequalities that matter on the nested-menu instances.

``_dominance_verdict`` and ``_constraint_rows`` are the two per-mask builders
of the dominance family that ``capid.identification._dominance_rows``
replaced; each sums lambda over every subset on its own.
``_decomposition_rows`` builds the LP rows of
``capid.capacity.decompose_in_mixture_core`` as Fractions, one value at a
time, as they were built before the kernel took int rows, and
``_menu_homog_rows`` those of ``capid.identification.check_menu_homogeneous``.

``kappa_interval_scan`` is the per-subset scan that
``capid.updating.rationalizing_kappa_interval`` ran before it read the
dominance rows: it pairs lambda's subset sums with the experiment
capacity's values and decides on the values themselves, so in float mode on
rounded floats, within the tolerance.

``ge`` and ``eq`` are the toleranced comparisons that ``capid.numeric`` kept
for the parse-time checks, ``tol_for`` the tolerance they were given, and
the ``float_*`` functions are those checks as they ran on the values
themselves, before they read int numerators: a
measure's weights, its support, a capacity's boundary values and constancy
across a carrier, mixture weights, interval-belief bounds and the updating
model's pure-noise test.  Each ``*_error`` function returns the message the
constructor raised, or None.
"""

from fractions import Fraction as F
from itertools import combinations
from typing import Optional, Sequence

from capid.capacity import Capacity, GroundSet, Measure, mass_table
from capid.identification import (
    MAX_REPORTED_VIOLATIONS, DecisionRule, IdentificationProblem, MenuCollection, Verdict,
)
from capid.numeric import (
    FLOAT_TOL, ZERO, Num, all_exact, as_fraction, fold_sum, format_number,
)
from capid.updating import ExperimentModel, KappaRange, KappaSolution, OddsGrid

_ZERO = F(0)


def tol_for(*collections: Sequence[Num]) -> Num:
    """Zero for all-exact inputs, FLOAT_TOL as soon as any float appears."""
    for values in collections:
        if not all_exact(values):
            return FLOAT_TOL
    return ZERO


def ge(a: Num, b: Num, tol: Num) -> bool:
    """a >= b up to tol.  At the exact ZERO the values are compared
    directly, without a Fraction subtraction; subtracting ZERO from a float
    gives the same float, so the result is the same for every operand."""
    if tol is ZERO:
        return a >= b
    return a >= b - tol


def eq(a: Num, b: Num, tol: Num) -> bool:
    """a == b up to tol.  At the exact ZERO with no float operand the
    values are compared directly; a float operand keeps the subtraction,
    which rounds: ``eq(Fraction(1, 3), 1 / 3, ZERO)`` holds."""
    if tol is ZERO and not isinstance(a, float) and not isinstance(b, float):
        return a == b
    return abs(a - b) <= tol


def weight_grid(k: int, step: int):
    """All length-k tuples of nonnegative multiples of 1/step summing to 1."""
    for cuts in combinations(range(step + k - 1), k - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(step + k - 2 - prev)
        yield tuple(F(p, step) for p in parts)


def mixture_candidates(vertices, step: int = 20):
    """Distinct grid mixtures of the given vertex measures, as weight tuples."""
    n = len(vertices[0].weights)
    seen = {}
    for combo in weight_grid(len(vertices), step):
        point = tuple(
            sum(w * v.weights[i] for w, v in zip(combo, vertices)) for i in range(n)
        )
        seen[point] = None
    return list(seen)


def _half_sums(rule_candidates, n):
    """All q-weighted sums over one half of the rules, deduplicated."""
    sums = {tuple([_ZERO] * n): None}
    for q, cands in rule_candidates:
        nxt = {}
        scaled = [tuple(q * c for c in cand) for cand in cands]
        for base in sums:
            for cand in scaled:
                nxt[tuple(b + c for b, c in zip(base, cand))] = None
        sums = nxt
    return sums


def grid_witness_exists(lam_weights, rule_candidates) -> bool:
    """True iff some per-rule grid candidates Q-sum exactly to the data.

    ``rule_candidates`` is a list of (q_weight, candidate list) pairs with
    q_weight > 0.
    """
    n = len(lam_weights)
    rules = sorted(rule_candidates, key=lambda rc: len(rc[1]))
    # interleave large and small rule sets across the two halves
    left, right = [], []
    for i, rc in enumerate(rules):
        (left if i % 2 else right).append(rc)
    left_sums = _half_sums(left, n)
    target = tuple(lam_weights)
    for partial in _half_sums(right, n):
        need = tuple(t - p for t, p in zip(target, partial))
        if any(v < 0 for v in need):
            continue
        if need in left_sums:
            return True
    return False


def non_redundant_constraints(
    problem: IdentificationProblem,
) -> list[tuple[int, tuple[Num, ...], Num]]:
    """The dominance inequalities that survive the structural redundancy sieve.

    Dropped are: subsets with an all-zero coefficient vector (data dominance
    is automatic), the full set (both sides are identically 1), and any subset
    whose coefficient vector already appears at a strict subset (monotone data
    makes the larger inequality follow).  Returns (mask, coefficients, rhs)
    sorted by mask.
    """
    groups: dict[tuple[Num, ...], list[int]] = {}
    full = problem.ground.full_mask
    for mask in problem.ground.masks():
        coeffs = tuple(r.capacity.values[mask] for r in problem.rules)
        if not any(coeffs) or mask == full:
            continue
        groups.setdefault(coeffs, []).append(mask)
    kept: list[tuple[int, tuple[Num, ...], Num]] = []
    for coeffs, masks in groups.items():
        for mask in masks:
            if any(other != mask and other & mask == other for other in masks):
                continue
            kept.append((mask, coeffs, problem.data.mass(mask)))
    kept.sort(key=lambda item: item[0])
    return kept


def _dominance_verdict(
    ground: GroundSet,
    lam: Measure,
    capacities: Sequence[Capacity],
    weights: Sequence[Num],
) -> Verdict:
    tol = tol_for(lam.weights, weights, *(c.values for c in capacities))
    violations: list[tuple[int, Num]] = []
    count = 0
    for mask in ground.masks():
        rhs = fold_sum(w * c.values[mask] for w, c in zip(weights, capacities))
        shortfall = rhs - lam.mass(mask)
        if shortfall > tol:
            count += 1
            if len(violations) < MAX_REPORTED_VIOLATIONS:
                violations.append((mask, shortfall))
    return Verdict(
        rationalizes=count == 0,
        violated=tuple(violations),
        violation_count=count,
    )


def _constraint_rows(
    ground: GroundSet, lam: Measure, capacities: Sequence[Capacity], share: F = F(1)
) -> list[tuple[tuple[F, ...], F]]:
    """Dominance inequalities as LP rows ``coeffs . Q <= rhs``, one per subset.

    Zero rows are dropped and duplicate coefficient vectors keep only their
    smallest right-hand side; both are pure reductions of the same feasible set.
    In float mode right-hand sides gain ``share`` of the standard feasibility
    slack.
    """
    exact = all_exact(lam.weights) and all(all_exact(c.values) for c in capacities)
    slack = F(0) if exact else F(FLOAT_TOL) * share
    best: dict[tuple[F, ...], F] = {}
    for mask in ground.masks():
        coeffs = tuple(as_fraction(c.values[mask]) for c in capacities)
        if not any(coeffs):
            continue
        rhs = as_fraction(lam.mass(mask)) + slack
        if coeffs not in best or rhs < best[coeffs]:
            best[coeffs] = rhs
    return sorted(best.items())


def _decomposition_rows(
    p: Measure, capacities: Sequence[Capacity], weights: Sequence[Num]
) -> list[tuple[list[tuple[tuple[F, ...], F]], list[tuple[tuple[F, ...], F]]]]:
    """The (inequality rows, equality rows) of each LP the decomposition of p
    into core members of the capacities at the weights solves, in order,
    each row as (coefficients, right-hand side); [] when a label outside
    every active carrier has mass.  Float mode tries a band of half the
    tolerance and then one of the full tolerance around the mix-back rows."""
    # imported here: capacity_oracle imports this module's eq and ge
    from capacity_oracle import submasks

    n = p.ground.size
    exact = (
        all_exact(p.weights) and all(all_exact(c.values) for c in capacities)
        and all_exact(weights)
    )
    slack = F(0) if exact else F(FLOAT_TOL)
    active = [i for i, w in enumerate(weights) if w > 0]
    var_of: list[dict[int, int]] = [{} for _ in capacities]
    nvars = 0
    for ci in active:
        for i in range(n):
            if capacities[ci].active >> i & 1:
                var_of[ci][i] = nvars
                nvars += 1
    ub: list[tuple[tuple[F, ...], F]] = []
    eq: list[tuple[tuple[F, ...], F]] = []
    for ci in active:
        cap = capacities[ci]
        carrier = cap.active
        eq.append((tuple(F(int(v in var_of[ci].values())) for v in range(nvars)), F(1)))
        for mask in submasks(carrier):
            if mask == 0 or mask == carrier:
                continue
            comp = carrier & ~mask
            row = [F(0)] * nvars
            for i, var in var_of[ci].items():
                if comp >> i & 1:
                    row[var] = F(1)
            ub.append((tuple(row), F(1) - as_fraction(cap.values[mask]) + slack))
    mix: list[tuple[tuple[F, ...], F]] = []
    for i in range(n):
        row = [F(0)] * nvars
        for ci in active:
            if i in var_of[ci]:
                row[var_of[ci][i]] = as_fraction(weights[ci])
        target = as_fraction(p.weights[i])
        if not any(i in var_of[ci] for ci in active):
            if abs(target) > slack:
                return []
            continue
        mix.append((tuple(row), target))
    if exact:
        return [(ub, eq + mix)]
    systems = []
    for band in (slack / 2, slack):
        band_rows = []
        for row, target in mix:
            band_rows += [(row, target + band), (tuple(-v for v in row), band - target)]
        systems.append((ub + band_rows, eq))
    return systems


def _menu_homog_rows(
    rules: Sequence[DecisionRule], collection: MenuCollection, lam: Measure, q: Measure
) -> tuple[list[tuple[tuple[F, ...], F]], list[tuple[tuple[F, ...], F]]]:
    """The (inequality rows, equality rows) of the LP ``check_menu_homogeneous``
    solves, as Fractions (coefficients, right-hand side): one equality per
    alternative and one for the total in exact mode; in float mode each
    alternative's equality becomes a band of +/- the tolerance."""
    k = len(collection.menus)
    exact = all_exact(lam.weights) and all_exact(q.weights)
    eq: list[tuple[tuple[F, ...], F]] = []
    for i, label in enumerate(collection.ground.labels):
        row = [F(0)] * k
        for rule in rules:
            qd = as_fraction(q.weight(rule.rule_id))
            for j, choice in enumerate(rule.choices):
                if choice == label:
                    row[j] += qd
        eq.append((tuple(row), as_fraction(lam.weights[i])))
    total = (tuple([F(1)] * k), F(1))
    if exact:
        return [], eq + [total]
    tol = F(FLOAT_TOL)
    ub = [(row, rhs + tol) for row, rhs in eq] + [
        (tuple(-v for v in row), tol - rhs) for row, rhs in eq
    ]
    return ub, [total]


def kappa_interval_scan(
    lam: Measure, model: ExperimentModel, grid: OddsGrid, krange: Optional[KappaRange] = None
) -> KappaSolution:
    """The admissible average biases, one subset at a time on the values:
    ``lam(K) >= (1-kappa) nu(K) + kappa [prior in K]`` is a half-line in kappa
    whose bound is the quotient of two differences, rounded in float mode."""
    # imported here: helpers imports this module's eq, ge and tol_for
    from helpers import prior_mask

    krange = KappaRange.for_model(model) if krange is None else KappaRange.for_model(
        model, krange.lo, krange.hi
    )
    tol = tol_for(lam.weights, model.nu.values)
    prior = prior_mask(grid)
    lo: Num = krange.lo
    hi: Num = krange.hi
    empty = False
    under: list[int] = []
    over: list[int] = []
    for mask, (base, lam_k) in enumerate(zip(model.nu.values, mass_table(lam.weights))):
        in_prior = 1 if mask & prior else 0
        if lam_k < base - tol:
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


def float_measure_error(ground: GroundSet, weights, carrier: Optional[int]) -> Optional[str]:
    """``Measure.__init__``'s checks on the weights themselves."""
    tol = tol_for(weights)
    for w in weights:
        if not ge(w, 0, tol):
            return f"negative weight {format_number(w)}"
    total = fold_sum(weights)
    if not eq(total, 1, tol):
        return f"weights sum to {total}, expected 1"
    if carrier is not None:
        if carrier == 0:
            return "empty carrier"
        if carrier > ground.full_mask:
            return "carrier is not a subset of the ground set"
        for i, w in enumerate(weights):
            if not carrier >> i & 1 and not eq(w, 0, tol):
                return "measure puts mass outside its carrier"
    return None


def float_support(weights) -> int:
    """``Measure.support``: the labels whose weight is not 0 up to the
    tolerance."""
    tol = tol_for(weights)
    return sum(1 << i for i, w in enumerate(weights) if not eq(w, 0, tol))


def float_capacity_boundary_error(values) -> Optional[str]:
    """``Capacity.__init__``'s checks on the empty and the full set."""
    tol = tol_for(values)
    if not eq(values[0], 0, tol):
        return "capacity of the empty set must be 0"
    if not eq(values[-1], 1, tol):
        return "capacity of the full set must be 1"
    return None


def float_carried_by(values, carrier: int) -> bool:
    """``Capacity.carried_by``'s scan: nu(K) = nu(K & carrier) for every K."""
    tol = tol_for(values)
    return all(eq(values[mask], values[mask & carrier], tol) for mask in range(len(values)))


def float_mixture_weights_ok(weights) -> bool:
    """``decompose_in_mixture_core``'s check that the weights are a
    probability vector."""
    tol = tol_for(weights)
    return all(ge(w, 0, tol) for w in weights) and eq(fold_sum(weights), 1, tol)


def float_interval_belief_error(carrier: int, lower, upper) -> Optional[str]:
    """``IntervalBelief.__init__``'s per-label checks and carrier totals."""
    tol = tol_for(lower, upper)
    for i, (low, up) in enumerate(zip(lower, upper)):
        if not ge(low, 0, tol):
            return "lower bounds must be nonnegative"
        if not ge(up, low, tol):
            return "upper bounds must dominate lower bounds"
        if not carrier >> i & 1 and not (eq(low, 0, tol) and eq(up, 0, tol)):
            return "bounds must vanish outside the carrier"
    low_total = fold_sum(v for i, v in enumerate(lower) if carrier >> i & 1)
    up_total = fold_sum(v for i, v in enumerate(upper) if carrier >> i & 1)
    if not (0 < low_total < 1 < up_total):
        return (
            "carrier totals must satisfy 0 < lower < 1 < upper, got "
            f"{low_total} and {up_total}"
        )
    return None


def float_pure_noise(grid: OddsGrid, nu: Capacity) -> bool:
    """``ExperimentModel``'s pure-noise test: nu of the informative signals
    is 0 up to the tolerance."""
    signal = nu.ground.full_mask & ~(1 << grid.null_signal_index)
    return nu.values[signal] <= nu.tol
