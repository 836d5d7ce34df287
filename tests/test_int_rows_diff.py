"""Differential tests for the integer scans of both modes.

Capacities, lambda and Q are scanned as int numerators over common
denominators.  Here every capacity, lambda and Q gets its own prime
denominator near 10^6, so the common denominators are products of distinct
large primes, and some values are ints rather than Fractions.  The verdicts
and LP rows must equal the per-subset Fraction code in ``oracle`` by
``repr``, and so must those of the same problems with every value rounded
to a float, against the per-subset float scan; ``is_convex`` and the
constructor's monotonicity check must agree with literal Fraction scans on
capacities one numerator unit away from a convex, monotone one.  At one
ulp around the 1e-9 edge, a float verdict follows the exact shortfall.
"""

import math
import random
from collections import Counter
from fractions import Fraction as F

import oracle
from capacity_oracle import brute_force_convex
from capid import Capacity, GroundSet, Measure, ValidationError, is_convex
from capid.identification import (
    MAX_REPORTED_VIOLATIONS,
    IdentificationProblem,
    ProblemRule,
    _lp_rows,
    check_rationalizes,
)
from capid.info_specs import ExplicitCapacity
from capid.numeric import FLOAT_TOL
from helpers import capacity_from_mobius
from lp_oracle import fraction_rows

PRIMES = (
    999_907, 999_917, 999_931, 999_953, 999_959, 999_961, 999_979,
    999_983, 1_000_003, 1_000_033, 1_000_037, 1_000_039, 1_000_081, 1_000_099,
)
LABELS = "abcdefgh"
CASES = 150


def _parts(rng, total, k):
    """k positive ints adding up to total."""
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _int_typed(values):
    """The integral values as ints, the rest unchanged."""
    return tuple(v.numerator if v.denominator == 1 else v for v in values)


def _belief(rng, ground, carrier, prime):
    """A belief function carried by ``carrier`` whose Moebius masses sit on
    a few subsets of the carrier, each a multiple of 1/prime.  The sparse
    masses leave many monotonicity and supermodularity inequalities tight."""
    focal = [mask for mask in range(1, 1 << ground.size) if not mask & ~carrier]
    support = rng.sample(focal, rng.randint(min(len(focal), 2), min(len(focal), 5)))
    mass = [F(0)] * (1 << ground.size)
    for mask, units in zip(support, _parts(rng, prime, len(support))):
        mass[mask] = F(units, prime)
    nu = capacity_from_mobius(ground, mass, carrier)
    if rng.random() < 0.5:
        nu = Capacity(ground, _int_typed(nu.values), carrier)
    return nu


def _measure(rng, ground, prime):
    """Weights in units of 1/prime on a random nonempty set of at most half
    the labels; the zeros are ints."""
    labels = rng.sample(range(ground.size), rng.randint(1, max(1, ground.size // 2)))
    weights = [0] * ground.size
    for i, units in zip(labels, _parts(rng, prime, len(labels))):
        weights[i] = F(units, prime)
    return Measure(ground, tuple(weights))


def _marginal_vector(rng, nu):
    """The increments of nu along a random ordering: a core member."""
    order = list(range(nu.ground.size))
    rng.shuffle(order)
    weights = [0] * nu.ground.size
    prefix = 0
    for i in order:
        weights[i] = nu.values[prefix | 1 << i] - nu.values[prefix]
        prefix |= 1 << i
    return weights


def _problem(rng):
    """Rules on random carriers with one prime each, and Q on another.
    Lambda has a prime of its own half the time; otherwise it mixes a core
    member of every capacity by Q, so that Q rationalizes it."""
    ground = GroundSet.of(LABELS[: rng.choice((2, 3, 4, 5, 6, 8))])
    m = rng.randint(2, 4)
    primes = rng.sample(PRIMES, m + 2)
    rules = []
    for d in range(m):
        carrier = rng.randint(1, ground.full_mask)
        nu = _belief(rng, ground, carrier, primes[d])
        rules.append(ProblemRule(f"r{d}", ExplicitCapacity(ground, carrier, nu)))
    q = _measure(rng, GroundSet.of(r.rule_id for r in rules), primes[m])
    if rng.random() < 0.5:
        lam = _measure(rng, ground, primes[m + 1])
    else:
        vectors = [_marginal_vector(rng, r.capacity) for r in rules]
        lam = Measure(ground, tuple(
            sum(w * v[i] for w, v in zip(q.weights, vectors)) for i in range(ground.size)
        ))
    return IdentificationProblem(ground, tuple(rules), lam), q


def test_verdicts_and_rows_match_the_fraction_code():
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(CASES):
        problem, q = _problem(rng)
        ground, lam = problem.ground, problem.data
        caps = [r.capacity for r in problem.rules]
        scales = [c.int_view[1] for c in caps]
        seen["coprime_scales"] += len(set(scales)) == len(scales) and min(scales) > 10**5
        seen["int_values"] += any(type(v) is int for c in caps for v in c.values)

        # Q, point masses as Fractions and as ints, and Q as floats, which
        # makes the scan toleranced although the data are exact
        rule_ground = problem.rule_ground()
        first = rng.randrange(len(caps))
        int_point = Measure(rule_ground, tuple(int(d == first) for d in range(len(caps))))
        float_q = Measure(rule_ground, tuple(float(w) for w in q.weights))
        for weights in (q, Measure.point(rule_ground, f"r{first}"), int_point, float_q):
            new = check_rationalizes(problem, weights)
            old = oracle._dominance_verdict(ground, lam, caps, list(weights.weights))
            assert repr(new) == repr(old)
            seen["pass" if new.rationalizes else "fail"] += 1
            seen["over_cap"] += new.violation_count > MAX_REPORTED_VIOLATIONS
            seen["int_shortfall"] += any(type(s) is int for _, s in new.violated)

        tol, a_ub, b_ub = _lp_rows(problem)
        lp_rows = (not tol, fraction_rows(a_ub, b_ub))
        assert repr(lp_rows) == repr((True, oracle._constraint_rows(ground, lam, caps)))

    assert seen["coprime_scales"] >= CASES // 2, seen
    assert seen["int_values"] >= CASES // 4, seen
    assert seen["pass"] >= 100 and seen["fail"] >= 100, seen
    assert seen["over_cap"] >= 10 and seen["int_shortfall"] >= 3, seen


def _rounded(problem, q):
    """The problem and Q with every value rounded to a float."""
    ground = problem.ground
    rules = tuple(
        ProblemRule(r.rule_id, ExplicitCapacity(ground, r.spec.carrier, Capacity(
            ground, tuple(map(float, r.capacity.values)), r.capacity.carrier
        )))
        for r in problem.rules
    )
    lam = Measure(ground, tuple(map(float, problem.data.weights)))
    q = Measure(q.ground, tuple(map(float, q.weights)))
    return IdentificationProblem(ground, rules, lam), q


def test_float_verdicts_and_rows_match_the_float_code():
    """The same problems in floats: the float numerators' scales are powers
    of two, and when lambda mixes core members, many rows that were tight
    miss by a rounding error, far inside the tolerance."""
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(CASES):
        problem, q = _rounded(*_problem(rng))
        ground, lam = problem.ground, problem.data
        caps = [r.capacity for r in problem.rules]
        rule_ground = problem.rule_ground()
        first = rng.randrange(len(caps))
        for weights in (q, Measure.point(rule_ground, f"r{first}")):
            new = check_rationalizes(problem, weights)
            old = oracle._dominance_verdict(ground, lam, caps, list(weights.weights))
            assert repr(new) == repr(old)
            seen["pass" if new.rationalizes else "fail"] += 1
            seen["over_cap"] += new.violation_count > MAX_REPORTED_VIOLATIONS
        for share in (1, F(1, 2)):
            tol, a_ub, b_ub = _lp_rows(problem, share)
            lp_rows = (not tol, fraction_rows(a_ub, b_ub))
            literal = oracle._constraint_rows(ground, lam, caps, F(share))
            assert repr(lp_rows) == repr((False, literal))
    assert seen["pass"] >= 100 and seen["fail"] >= 50, seen
    assert seen["over_cap"] >= 10, seen


def test_float_verdict_one_ulp_around_the_edge():
    """Q = (0.3, 0.7) on point masses at x and at y puts exactly 0.3 on x.
    A lambda(x) one ulp either side of the float nearest 0.3 - 1e-9 passes
    exactly when the exact shortfall 0.3 - lambda(x) is at most the binary
    value of 1e-9; the nearest float itself lies just below 0.3 - 1e-9."""
    ground = GroundSet.of("xy")
    rules = (
        ProblemRule("r0", ExplicitCapacity(ground, 1, Capacity(ground, (0.0, 1.0, 0.0, 1.0), 1))),
        ProblemRule("r1", ExplicitCapacity(ground, 2, Capacity(ground, (0.0, 0.0, 1.0, 1.0), 2))),
    )
    q = Measure(GroundSet.of(("r0", "r1")), (0.3, 0.7))
    edge = float(F(0.3) - F(FLOAT_TOL))
    assert F(edge) < F(0.3) - F(FLOAT_TOL)
    outcomes = []
    for lam_x in (math.nextafter(edge, 0), edge, math.nextafter(edge, 1)):
        problem = IdentificationProblem(ground, rules, Measure(ground, (lam_x, 1 - lam_x)))
        verdict = check_rationalizes(problem, q)
        assert verdict.rationalizes == (F(0.3) - F(lam_x) <= F(FLOAT_TOL))
        outcomes.append(verdict.rationalizes)
    assert outcomes == [False, False, True]


def _literal_monotone_violation(ground, values, carrier):
    """The message for the first label whose addition lowers the value, over
    the carrier's subsets in increasing order, compared as Fractions."""
    active = ground.full_mask if carrier is None else carrier
    for mask in range(1 << ground.size):
        if mask & ~active:
            continue
        for i in range(ground.size):
            bit = 1 << i
            if active & bit and not mask & bit and values[mask | bit] < values[mask]:
                return (
                    f"capacity not monotone at {ground.subset_key(mask)} "
                    f"+ {ground.labels[i]!r}"
                )
    return None


def test_one_unit_off_capacities_match_the_literal_scans():
    """Move one value of a convex capacity (and its copies across the
    carrier) by one unit over the lcm of its denominators: the result may
    stay convex, miss supermodularity or miss monotonicity by that unit."""
    rng = random.Random(1018)
    seen = Counter()
    for _ in range(1000):
        ground = GroundSet.of(LABELS[: rng.randint(2, 5)])
        carrier = rng.randint(1, ground.full_mask)
        inner = [mask for mask in range(1, carrier) if not mask & ~carrier]
        if not inner:
            continue
        base = _belief(rng, ground, carrier, rng.choice(PRIMES))
        unit = F(rng.choice((-1, 1)), math.lcm(*(F(v).denominator for v in base.values)))
        target = rng.choice(inner)
        values = tuple(
            v + unit if mask & carrier == target else v for mask, v in enumerate(base.values)
        )
        message = _literal_monotone_violation(ground, values, carrier)
        try:
            nu = Capacity(ground, values, carrier)
        except ValidationError as exc:
            assert str(exc) == message
            seen["not_monotone"] += 1
            continue
        assert message is None
        convex = is_convex(nu)
        assert convex == brute_force_convex(nu)
        seen["convex" if convex else "not_convex"] += 1
    assert min(seen["convex"], seen["not_convex"], seen["not_monotone"]) >= 60, seen


def test_float_capacity_carried_within_the_tolerance_keeps_its_own_values():
    """A float capacity read from a document is constant across its carrier
    only up to the tolerance: nu(x, z) here is nu(x) + 5e-10.  Its int view
    holds every mask's own value, so the rows are those of the values."""
    ground = GroundSet.of("xyz")
    nu = Capacity(ground, (0.0, 0.25, 0.25, 1.0, 0.0, 0.25 + 5e-10, 0.25, 1.0), 0b011)
    nums, scale = nu.int_view
    assert [F(v, scale) for v in nums] == [F(v) for v in nu.values]
    ignorance = Capacity(ground, (0.0,) * 7 + (1.0,))
    rules = (
        ProblemRule("r0", ExplicitCapacity(ground, 0b011, nu)),
        ProblemRule("r1", ExplicitCapacity(ground, 0b111, ignorance)),
    )
    problem = IdentificationProblem(ground, rules, Measure(ground, (0.25, 0.5, 0.25)))
    tol, a_ub, b_ub = _lp_rows(problem)
    literal = oracle._constraint_rows(ground, problem.data, [nu, ignorance])
    assert (not tol, fraction_rows(a_ub, b_ub)) == (False, literal)
