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
"""

import copy
import random
from collections import Counter

import pytest

import gen
from capid import Capacity, InfeasibleSetError, core_vertices, schemas
from capid.identification import exists_rationalizing, identified_vertices, probability_bounds


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
            sum(1 << d for d, rule in enumerate(rules) if rule.carrier >> x & 1)
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
