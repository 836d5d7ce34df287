"""Differential tests: one subset-sum table and one dominance row source
against the per-subset code they replaced.

``mass_table`` must give what ``Measure.mass`` gives for every subset, and
the capacities, verdicts and LP rows built on it must be the ones the old
per-subset sums gave.  Every comparison is by ``repr``, so a Fraction that
became an int, or a float that moved by one bit, fails it, with one
exception: the float kappa interval's endpoints.  They are a row's exact
bound rounded once to a double, where the old scan divided two rounded
differences, so they may differ from the old ones in the sign of zero or by
up to two ulps.
"""

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import gen
import oracle
from capacity_oracle import literal_build_capacity
from capid import Measure, lp, schemas
from capid.capacity import decompose_in_mixture_core, mass_table
from capid.identification import (
    MAX_REPORTED_VIOLATIONS,
    _lp_rows,
    check_menu_homogeneous,
    check_rationalizes,
)
from capid.info_specs import build_capacity
from capid.updating import KappaRange, check_average_bias, rationalizing_kappa_interval
from helpers import biased_capacity, core_contains, prior_mask
from lp_oracle import fraction_rows, kernel_rows
from oracle import tol_for

CASES = 240
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
UPDATING = FIXTURES / "underreaction_point_experiment.json"


def _reprs(values):
    return [(type(v), repr(v)) for v in values]


def _cases():
    """(exact, document, Q) triples; half in float mode, a quarter on 7 or 8
    labels, where a Q can violate more subsets than a verdict lists."""
    rng = random.Random(20261019)
    for case in range(CASES):
        exact = case % 2 == 0
        labels, lo, hi = (gen.LABELS_BIG, 7, 8) if case % 4 == 3 else (gen.LABELS, 2, 5)
        doc, q_doc = gen.random_problem_doc(rng, not exact, labels, lo, hi)
        yield exact, doc, q_doc


def test_rows_verdicts_and_capacities_match_the_per_subset_code():
    seen = {"exact": 0, "float": 0, "over_cap": 0, "float_zero_lambda": 0, "pass": 0, "fail": 0}
    families = {}
    for exact, doc, q_doc in _cases():
        problem = schemas.parse_problem(doc, exact).problem
        ground, lam = problem.ground, problem.data
        caps = [r.capacity for r in problem.rules]
        seen["exact" if exact else "float"] += 1
        seen["float_zero_lambda"] += not exact and 0.0 in lam.weights

        # the table against Measure.mass, and the capacities built on it
        sums = [lam.mass(mask) for mask in ground.masks()]
        assert _reprs(mass_table(lam.weights)) == _reprs(sums)
        for entry, rule in zip(doc["rules"], problem.rules):
            spec = schemas.parse_info_spec(entry["info_spec"], ground, rule.carrier, exact)
            families[spec.tag] = families.get(spec.tag, 0) + 1
            assert repr(build_capacity(spec)) == repr(literal_build_capacity(spec))
            tol = tol_for(rule.capacity.values, lam.weights)
            literal = all(oracle.ge(s, v, tol) for s, v in zip(sums, rule.capacity.values))
            assert core_contains(rule.capacity, lam) == literal

        # verdicts at the document's Q and at a point mass on the first rule
        q = schemas.parse_q(q_doc, problem, exact)
        point = Measure.point(problem.rule_ground(), problem.rules[0].rule_id)
        for weights in (q, point):
            new = check_rationalizes(problem, weights)
            old = oracle._dominance_verdict(ground, lam, caps, list(weights.weights))
            assert repr(new) == repr(old)
            seen["over_cap"] += new.violation_count > MAX_REPORTED_VIOLATIONS
            seen["pass" if new.rationalizes else "fail"] += 1

        # the LP rows, read as Fractions, and the arithmetic mode, with the
        # float slack in full and halved, as exists first tries it
        for share in (1, F(1, 2)):
            lp_exact, a_ub, b_ub = _lp_rows(problem, share)
            lp_rows = (lp_exact, fraction_rows(a_ub, b_ub))
            literal = oracle._constraint_rows(ground, lam, caps, F(share))
            assert repr(lp_rows) == repr((exact, literal))

    assert seen["exact"] >= 100 and seen["float"] >= 100
    assert seen["over_cap"] >= 20, seen
    assert seen["float_zero_lambda"] >= 20, seen
    assert seen["pass"] >= 50 and seen["fail"] >= 50, seen
    assert min(families.values()) >= 50 and len(families) == len(gen.FAMILIES), families


def test_average_bias_verdicts_match_the_per_subset_code():
    """At nine biases across the admissible range, on the updating fixture
    and on seeded ``tests/gen`` updating documents."""
    fixture = json.loads(UPDATING.read_text())
    rng = random.Random(8123)
    passing = {True: 0, False: 0}
    for doc in [fixture] + [gen.random_updating_doc(rng) for _ in range(60)]:
        for exact in (True, False):
            grid, model, lam, _ = schemas.parse_updating(doc, exact)
            krange = KappaRange.for_model(model)
            for step in range(9):
                share = F(step, 8) if exact else step / 8
                kappa = min(krange.hi, krange.lo + (krange.hi - krange.lo) * share)
                new = check_average_bias(lam, model, grid, kappa)
                nu_k = biased_capacity(kappa, model, grid)
                old = oracle._dominance_verdict(grid.ground, lam, [nu_k], [F(1)])
                assert repr(new) == repr(old)
                passing[new.rationalizes] += 1
                if doc is fixture:
                    assert new.rationalizes == (step == 4)
    assert min(passing.values()) >= 100, passing


def _rounded_bounds(lam, model, grid):
    """Each row's bound (lam(K) - nu(K)) / ([prior in K] - nu(K)), on the
    floats' exact values and lam's float subset sums, rounded once."""
    prior = prior_mask(grid)
    bounds = set()
    for mask, (lam_k, nu_k) in enumerate(zip(mass_table(lam.weights), model.nu.values)):
        coeff = (1 if mask & prior else 0) - F(nu_k)
        if coeff:
            bounds.add(float((F(lam_k) - F(nu_k)) / coeff))
    return bounds


def test_kappa_interval_matches_the_per_subset_scan():
    """On seeded ``tests/gen`` updating documents, with lambda on and off the
    identified set and with and without a ``kappa_range``: exact solutions
    equal the old scan's; float ones have its diagnosis, Bayes-violation
    masks and emptiness, and each endpoint is one of the range's ends or a
    row's once-rounded bound, as close to the old one as the docstring says."""
    rng = random.Random(20261019)
    docs = 200
    seen = {"exact": 0, "float": 0, "kappa_range": 0, "ulp": 0, "zero_sign": 0}
    for _ in range(docs):
        doc = gen.random_updating_doc(rng)
        seen["kappa_range"] += "kappa_range" in doc
        for exact in (True, False):
            grid, model, lam, krange = schemas.parse_updating(doc, exact)
            new = rationalizing_kappa_interval(lam, model, grid, krange)
            old = oracle.kappa_interval_scan(lam, model, grid, krange)
            seen["exact" if exact else "float"] += 1
            seen[new.diagnosis] = seen.get(new.diagnosis, 0) + 1
            if exact:
                assert repr(new._asdict()) == repr(old._asdict())
                continue
            assert (new.empty, new.diagnosis) == (old.empty, old.diagnosis)
            assert (new.under_witnesses, new.over_witnesses) == (
                old.under_witnesses, old.over_witnesses,
            )
            if new.empty:
                assert new.lo is new.hi is old.lo is old.hi is None
                continue
            ends = krange or KappaRange.for_model(model)
            rounded = _rounded_bounds(lam, model, grid) | {ends.lo, ends.hi}
            for a, b in ((new.lo, old.lo), (new.hi, old.hi)):
                assert type(a) is float and a in rounded, (doc, a)
                # 0.0 == -0.0
                assert a == b or abs(a - b) <= 2 * math.ulp(b), (doc, a, b)
                seen["ulp"] += a != b
                seen["zero_sign"] += a == b and repr(a) != repr(b)
    assert seen["exact"] == seen["float"] == docs
    assert seen["kappa_range"] >= 30, seen
    for diagnosis in ("bayesian-feasible", "underreaction", "overreaction", "impossible"):
        assert seen.get(diagnosis, 0) >= 20, seen
    # the float endpoints do move: the exact quotient, rounded once
    assert seen["ulp"] + seen["zero_sign"] >= 5, seen


def test_table_matches_mass_on_random_vectors():
    rng = random.Random(77)
    for _ in range(200):
        ground = gen.random_ground(rng, 1, 6)
        p = gen.random_measure(rng, ground, gen.random_carrier(rng, ground, ground.size))
        for weights in (p.weights, tuple(float(w) for w in p.weights)):
            q = Measure(ground, weights)
            assert _reprs(mass_table(q.weights)) == _reprs(q.mass(m) for m in ground.masks())
    assert mass_table(()) == [0]


def test_decomposition_rows_hold_the_per_subset_values(monkeypatch):
    """``decompose_in_mixture_core`` hands the LP kernel int rows.  Read over
    their denominators, they must be the Fraction rows built one value at a
    time, row by row and in order, in both modes and at both float bands:
    a row over the wrong denominator describes the same region but changes
    the pivots, and with them the witness a report shows."""
    systems = []
    feasible_point = lp.feasible_point

    def recorded(a_ub, b_ub, a_eq, b_eq, nvars):
        systems.append(tuple(
            [(tuple(F(v, den) for v in nums), F(rhs, den)) for nums, (rhs, den) in zip(a, b)]
            for a, b in ((a_ub, b_ub), (a_eq, b_eq))
        ))
        return feasible_point(a_ub, b_ub, a_eq, b_eq, nvars)

    monkeypatch.setattr(lp, "feasible_point", recorded)
    seen = {"exact": 0, "float": 0, "float_second_band": 0, "uncovered": 0}
    for exact, doc, q_doc in _cases():
        problem = schemas.parse_problem(doc, exact).problem
        caps = [r.capacity for r in problem.rules]
        weights = list(schemas.parse_q(q_doc, problem, exact).weights)
        systems.clear()
        decompose_in_mixture_core(problem.data, caps, weights)
        literal = oracle._decomposition_rows(problem.data, caps, weights)
        assert systems == literal[: len(systems)]
        assert bool(systems) == bool(literal)
        seen["exact" if exact else "float"] += bool(systems)
        seen["float_second_band"] += len(systems) == 2
        seen["uncovered"] += not literal
    assert seen["exact"] >= 90 and seen["float"] >= 75, seen
    assert seen["float_second_band"] >= 10 and seen["uncovered"] >= 20, seen


def test_menu_homog_rows_hold_the_per_alternative_values(monkeypatch):
    """``check_menu_homogeneous`` builds its int rows from Q's and lambda's
    numerators.  Read over their denominators, they must be the Fraction
    rows, and in float mode the band, built one value at a time; and the
    menu distribution must be the one the Fraction rows give through the
    row converter, so the pivots are unchanged."""
    systems = []
    feasible_point = lp.feasible_point

    def recorded(a_ub, b_ub, a_eq, b_eq, nvars):
        systems.append((fraction_rows(a_ub, b_ub), fraction_rows(a_eq, b_eq)))
        return feasible_point(a_ub, b_ub, a_eq, b_eq, nvars)

    monkeypatch.setattr(lp, "feasible_point", recorded)
    seen = {"exact": 0, "float": 0, "feasible": 0, "infeasible": 0}
    for exact, doc, q_doc in _cases():
        bundle = schemas.parse_problem(doc, exact)
        collection = bundle.shared_collection()
        if collection is None:
            continue
        problem = bundle.problem
        rules = [bundle.decision_rules[r.rule_id] for r in problem.rules]
        q = schemas.parse_q(q_doc, problem, exact)
        systems.clear()
        pi = check_menu_homogeneous(rules, collection, problem.data, q)
        ub, eq = oracle._menu_homog_rows(rules, collection, problem.data, q)
        assert systems == [(ub, eq)]
        point = feasible_point(*kernel_rows(ub), *kernel_rows(eq), len(collection.menus))
        expected = None if point is None else tuple(w if exact else float(w) for w in point)
        assert repr(None if pi is None else pi.weights) == repr(expected)
        seen["exact" if exact else "float"] += 1
        seen["infeasible" if pi is None else "feasible"] += 1
    assert seen["exact"] >= 40 and seen["float"] >= 40, seen
    assert seen["feasible"] >= 20 and seen["infeasible"] >= 20, seen
