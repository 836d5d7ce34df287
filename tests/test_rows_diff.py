"""Differential tests: one subset-sum table and one dominance row source
against the per-subset code they replaced.

``mass_table`` must give what ``Measure.mass`` gives for every subset, and
the capacities, verdicts and LP rows built on it must be the ones the old
per-subset sums gave.  Every comparison is by ``repr``, so a Fraction that
became an int, or a float that moved by one bit, fails it.
"""

import json
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
    check_rationalizes,
)
from capid.info_specs import build_capacity
from capid.numeric import ge, tol_for
from capid.updating import biased_capacity, check_average_bias
from helpers import core_contains
from lp_oracle import fraction_rows

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
            literal = all(ge(s, v, tol) for s, v in zip(sums, rule.capacity.values))
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
    doc = json.loads(UPDATING.read_text())
    for exact in (True, False):
        grid, model, lam, _ = schemas.parse_updating(doc, exact)
        for step in range(9):
            kappa = F(step, 8) if exact else step / 8
            new = check_average_bias(lam, model, grid, kappa)
            nu_k = biased_capacity(kappa, model, grid)
            old = oracle._dominance_verdict(grid.ground, lam, [nu_k], [F(1)])
            assert repr(new) == repr(old)
            assert new.rationalizes == (step == 4)


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
