"""Properties the theory gives, checked on seeded ``tests/gen`` documents
whatever the code does (metamorphic testing; Chen, Cheung & Yiu 1998).

Relabeling: shuffling a document's ``labels``, or its ``rules``, leaves the
``exists`` verdict alone and permutes ``bounds`` and the vertex set to
match.  Only exact mode is checked: float reports are not yet invariant
under relabeling.

The random-set form: when every rule is an ignorance rule, let R(x) be the
set of rules whose carrier holds x.  Q is admissible iff Q(T) >= g(T) for
every set T of rules, with g(T) = lambda({x : R(x) within T}): Hall's
condition for moving Q onto lambda along x in C_d.  g is a belief function
with mass lambda(x) on R(x), so the identified set is the core of a random
set (Artstein 1983).  It is empty iff some x with lambda(x) > 0 has R(x)
empty; rule d's bounds are lambda({x : R(x) = {d}}) and lambda(C_d); and its
vertices are the marginal vectors of g (Shapley 1971).

Three more follow from the dominance rows, which are linear in Q and in
lambda, on the feasible documents among seeds 77000-77299:

* equal rules: Q is admissible iff its class sums are, so a duplicated rule
  gives both copies a lower bound of 0 and the original's upper bound, and
  the vertices are the original's with each class's mass on one member;
* monotone in information: replacing a spec by ignorance on the same carrier
  lowers each rule's capacity, so every bound widens or stays, and a new
  rule keeps a nonempty set nonempty (put no weight on it);
* jointly convex: if Q1 explains lambda1 and Q2 explains lambda2, their
  t-mixture explains the t-mixture of the data.
"""

import copy
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import gen
from capid import Capacity, InfeasibleSetError, Measure, core_vertices, schemas
from capid.identification import (
    IdentificationProblem,
    ProblemRule,
    check_rationalizes,
    exists_rationalizing,
    identified_vertices,
    probability_bounds,
)
from capid.info_specs import Ignorance
from capid.simulate import synth_population


def _answers(doc):
    """The exists verdict, the bounds by rule id (None when the set is
    empty) and the sorted vertex set, each vertex as sorted (rule id,
    weight) pairs."""
    problem = schemas.parse_problem(doc, True).problem
    exists = exists_rationalizing(problem) is not None
    try:
        bounds = probability_bounds(problem)
        vertices = identified_vertices(problem)
    except InfeasibleSetError:
        bounds, vertices = None, []
    return exists, bounds, sorted(sorted(zip(v.ground.labels, v.weights)) for v in vertices)


def test_relabeling_permutes_the_answers():
    seen = Counter()
    for seed in range(400):
        rng = random.Random(31000 + seed)
        doc, _ = gen.random_problem_doc(rng, floats=False)
        want = _answers(doc)
        for field in ("labels", "rules"):
            moved = copy.deepcopy(doc)
            rng.shuffle(moved[field])
            assert _answers(moved) == want, (seed, field)
            seen[field] += moved[field] != doc[field]
        seen[want[0]] += 1
        seen["menus"] += "menus" in doc["rules"][0]
    assert min(seen[True], seen[False]) >= 50, seen
    assert min(seen["labels"], seen["rules"], seen["menus"]) >= 150, seen


def test_all_ignorance_problems_are_the_core_of_a_random_set():
    seen = Counter()
    for seed in range(600):
        doc, _ = gen.random_problem_doc(random.Random(32000 + seed), floats=False)
        for rule in doc["rules"]:
            rule["info_spec"] = {"tag": "ignorance"}
        problem = schemas.parse_problem(doc, True).problem
        rules = problem.rules
        weights = problem.data.weights
        # R(x) as a mask over the rules, for each label x
        reach = [
            sum(1 << d for d, rule in enumerate(rules) if rule.spec.carrier >> x & 1)
            for x in range(len(weights))
        ]
        empty = any(w > 0 and not r for w, r in zip(weights, reach))
        assert (exists_rationalizing(problem) is None) == empty, seed
        seen[empty] += 1
        if empty:
            with pytest.raises(InfeasibleSetError):
                probability_bounds(problem)
            with pytest.raises(InfeasibleSetError):
                identified_vertices(problem)
            continue
        bounds = probability_bounds(problem)
        for d, rule in enumerate(rules):
            lo = sum(w for w, r in zip(weights, reach) if r == 1 << d)
            hi = sum(w for w, r in zip(weights, reach) if r >> d & 1)
            assert bounds[rule.rule_id] == (lo, hi), seed
        g = Capacity(
            problem.rule_ground(),
            tuple(
                sum(w for w, r in zip(weights, reach) if not r & ~t)
                for t in range(1 << len(rules))
            ),
        )
        got = sorted(v.weights for v in identified_vertices(problem))
        assert got == sorted(v.weights for v in core_vertices(g)), seed
        seen["vertices"] += len(got)
    assert min(seen[True], seen[False]) >= 50, seen


def _feasible_problems():
    """(seed, problem, rng) for the exact documents of seeds 77000-77299
    whose identified set is nonempty; rng draws what each property varies."""
    for seed in range(77000, 77300):
        rng = random.Random(seed)
        doc, _ = gen.random_problem_doc(rng, floats=False)
        problem = schemas.parse_problem(doc, True).problem
        if exists_rationalizing(problem) is not None:
            yield seed, problem, rng


def _with_rules(problem, rules):
    return IdentificationProblem(problem.ground, tuple(rules), problem.data)


def test_equal_rules_split_their_class():
    seen = Counter()
    for seed, problem, rng in _feasible_problems():
        rules = problem.rules
        d = rng.randrange(len(rules))
        copy_id = rules[d].rule_id + "-copy"
        doubled = _with_rules(problem, [*rules, ProblemRule(copy_id, rules[d].spec)])
        bounds = probability_bounds(problem)
        got = probability_bounds(doubled)
        hi = bounds[rules[d].rule_id][1]
        assert got.pop(copy_id) == got.pop(rules[d].rule_id) == (0, hi), seed
        del bounds[rules[d].rule_id]
        assert got == bounds, seed
        original = identified_vertices(problem)
        want = set()
        for v in original:
            w = list(v.weights)
            want.add((*w, 0))
            mass, w[d] = w[d], 0
            want.add((*w, mass))
        verts = [v.weights for v in identified_vertices(doubled)]
        assert len(set(verts)) == len(verts) and set(verts) == want, seed
        seen["feasible"] += 1
        seen["split"] += len(verts) > len(original)
    assert seen["feasible"] >= 150 and seen["split"] >= 100, seen


def test_less_information_widens_the_set():
    seen = Counter()
    for seed, problem, rng in _feasible_problems():
        rules = list(problem.rules)
        d = rng.randrange(len(rules))
        seen[rules[d].spec.tag] += 1
        rules[d] = ProblemRule(rules[d].rule_id, Ignorance(problem.ground, rules[d].spec.carrier))
        bounds = probability_bounds(problem)
        for rid, (lo, hi) in probability_bounds(_with_rules(problem, rules)).items():
            assert lo <= bounds[rid][0] and bounds[rid][1] <= hi, (seed, rid)
            seen["widened"] += (lo, hi) != bounds[rid]
        family = rng.choice(gen.FAMILIES)
        spec = gen.random_spec(rng, problem.ground, family, gen.random_carrier(rng, problem.ground))
        added = _with_rules(problem, [*problem.rules, ProblemRule("added", spec)])
        assert exists_rationalizing(added) is not None, seed
    assert seen["widened"] >= 50, seen
    assert min(seen[tag] for tag in gen.FAMILIES if tag != "ignorance") >= 20, seen


def test_mixtures_of_explained_data_are_explained():
    seen = Counter()
    for seed, problem, rng in _feasible_problems():
        rules = problem.rules
        q1 = exists_rationalizing(problem)
        q2 = gen.random_q(rng, [r.rule_id for r in rules])
        lam2 = synth_population([(r.rule_id, r.spec) for r in rules], q2, rng.randrange(1 << 30)).lam
        assert check_rationalizes(IdentificationProblem(problem.ground, rules, lam2), q2).rationalizes
        t = F(rng.randint(1, 9), 10)
        lam = Measure(problem.ground, tuple(
            t * a + (1 - t) * b for a, b in zip(problem.data.weights, lam2.weights)
        ))
        q = Measure(q1.ground, tuple(t * a + (1 - t) * b for a, b in zip(q1.weights, q2.weights)))
        mixed = IdentificationProblem(problem.ground, rules, lam)
        assert check_rationalizes(mixed, q).rationalizes, seed
        seen["feasible"] += 1
    assert seen["feasible"] >= 150, seen
