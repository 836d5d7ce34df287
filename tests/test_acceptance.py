"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All comparisons are in
exact rational arithmetic; the seeded property batteries use fixed seeds so
every run checks the identical instance stream.
"""

import random
import time
from fractions import Fraction as F

import pytest

import gen
import oracle
from capacity_oracle import literal_from_measure, lower_probability
from capid import GroundSet, Measure, core_vertices, is_belief_function, is_convex, decompose_in_mixture_core, Capacity
from capid.identification import (
    IdentificationProblem,
    MenuCollection,
    ProblemRule,
    check_menu_homogeneous,
    check_rationalizes,
    choice_range,
    identified_vertices,
    problem_from_info_specs,
    witness_decomposition,
)
from capid.info_specs import ExplicitCapacity, Ignorance, build_capacity, spec_contains
from capid.simulate import synth_population
from capid.updating import (
    ExperimentModel,
    OddsGrid,
    check_average_bias,
    rationalizing_kappa_interval,
)
from helpers import (
    PreferenceOrder,
    apply_update_rule,
    average_bias,
    biased_capacity,
    core_contains,
    mixture,
    rules_from_preferences,
)

ABC = GroundSet.of("abc")


def _report(number: int, description: str, elapsed: float) -> None:
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 1: nested menus, six orders, exact inequality reduction
# ---------------------------------------------------------------------------

SIX_ORDERS = [
    PreferenceOrder(tuple(p))
    for p in ("abc", "acb", "bac", "bca", "cab", "cba")
]


def _six_order_problem(menu_lists, lam_weights):
    collection = MenuCollection.of(ABC, menu_lists)
    rules = rules_from_preferences(SIX_ORDERS, collection)
    specs = [(r.rule_id, Ignorance(ABC, choice_range(r, collection))) for r in rules]
    lam = Measure(ABC, tuple(F(w) for w in lam_weights))
    return problem_from_info_specs(ABC, specs, lam), collection, rules


def test_acceptance_1_nested_menu_reduction():
    start = time.monotonic()
    with_singleton, _, _ = _six_order_problem(
        [["a"], ["a", "b"], ["a", "b", "c"]], ["1/2", "1/4", "1/4"]
    )
    without_singleton, _, _ = _six_order_problem(
        [["a", "b"], ["a", "b", "c"]], ["1/2", "1/4", "1/4"]
    )
    one, zero = F(1), F(0)
    kept = {(m, c) for m, c, _ in oracle.non_redundant_constraints(with_singleton)}
    assert kept == {
        (ABC.mask_of("a"), (one, one, zero, zero, zero, zero)),
        (ABC.mask_of("ab"), (one, one, one, one, zero, zero)),
        (ABC.mask_of("ac"), (one, one, zero, zero, one, zero)),
    }
    kept_without = {(m, c) for m, c, _ in oracle.non_redundant_constraints(without_singleton)}
    assert kept_without == kept | {
        (ABC.mask_of("b"), (zero, zero, one, one, zero, zero)),
        (ABC.mask_of("bc"), (zero, zero, one, one, zero, one)),
    }
    q_weights = (F(1, 4), zero, F(1, 4), F(1, 4), zero, F(1, 4))
    q_with = Measure(with_singleton.rule_ground(), q_weights)
    q_without = Measure(without_singleton.rule_ground(), q_weights)
    assert check_rationalizes(with_singleton, q_with).rationalizes is True
    assert check_rationalizes(without_singleton, q_without).rationalizes is False
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, "nested-menu inequality reduction and quarter-weight verdicts", elapsed)


# ---------------------------------------------------------------------------
# criterion 2: two orders, four menus, uniform data
# ---------------------------------------------------------------------------

def test_acceptance_2_two_order_instance():
    start = time.monotonic()
    menus = [["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]]
    collection = MenuCollection.of(ABC, menus)
    orders = [PreferenceOrder(tuple("abc")), PreferenceOrder(tuple("acb"))]
    rules = rules_from_preferences(orders, collection)
    specs = [(r.rule_id, Ignorance(ABC, choice_range(r, collection))) for r in rules]
    lam = Measure(ABC, (F(1, 3), F(1, 3), F(1, 3)))
    problem = problem_from_info_specs(ABC, specs, lam)
    q = Measure(problem.rule_ground(), (F(2, 3), F(1, 3)))
    assert check_rationalizes(problem, q).rationalizes
    witness = witness_decomposition(problem, q)
    assert witness["pref:a>b>c"].weights == (F(1, 2), F(1, 2), F(0))
    assert witness["pref:a>c>b"].weights == (F(0), F(0), F(1))
    recombined = tuple(
        sum(q.weight(rid) * witness[rid].weights[i] for rid in witness)
        for i in range(3)
    )
    assert recombined == lam.weights
    assert check_menu_homogeneous(rules, collection, lam, q) is None
    q_equal = Measure(problem.rule_ground(), (F(1, 2), F(1, 2)))
    pi = check_menu_homogeneous(rules, collection, lam, q_equal)
    assert pi is not None
    assert pi.weights[2] == F(2, 3)  # the {b,c} menu
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, "two-order witness split and menu-homogeneity flip", elapsed)


# ---------------------------------------------------------------------------
# criterion 3: engine vs witness LP vs grid oracle on 500 seeded instances
# ---------------------------------------------------------------------------

def _random_instance(rng):
    ground = gen.random_ground(rng, 2, 5)
    m = rng.randint(1, 4)
    specs = []
    for j in range(m):
        family = rng.choice(gen.FAMILIES)
        max_bits = 2 if family in ("variation-neighborhood", "interval-belief") else 3
        carrier = gen.random_carrier(rng, ground, max_bits)
        specs.append((f"r{j}", gen.random_spec(rng, ground, family, carrier)))
    q = gen.random_q(rng, [rid for rid, _ in specs])
    if rng.random() < 0.55:
        seed = rng.randrange(1 << 30)
        lam = synth_population(specs, q, seed).lam
        constructed = True
    else:
        union = 0
        for _, s in specs:
            union |= s.carrier
        inside = rng.random() < 0.5
        lam = gen.random_measure(rng, ground, union if inside else None)
        lam = Measure(ground, lam.weights)  # drop the carrier annotation
        constructed = False
    problem = problem_from_info_specs(ground, specs, lam)
    return problem, q, constructed


def test_acceptance_3_theorem_equivalence_battery():
    start = time.monotonic()
    rng = random.Random(31001)
    positives = negatives = 0
    for _ in range(500):
        problem, q, constructed = _random_instance(rng)
        verdict = check_rationalizes(problem, q)
        if constructed:
            assert verdict.rationalizes, "synthesized population must be admissible"
        if verdict.rationalizes:
            positives += 1
            witness = witness_decomposition(problem, q)
            by_id = {r.rule_id: r for r in problem.rules}
            total = [F(0)] * problem.ground.size
            for rid, rho in witness.items():
                assert core_contains(by_id[rid].capacity, rho)
                w = q.weight(rid)
                for i, x in enumerate(rho.weights):
                    total[i] += w * x
            assert tuple(total) == problem.data.weights
        else:
            negatives += 1
            candidates = []
            for rule in problem.rules:
                qd = q.weight(rule.rule_id)
                if qd == 0:
                    continue
                verts = core_vertices(rule.capacity)
                candidates.append((qd, oracle.mixture_candidates(verts)))
            assert not oracle.grid_witness_exists(problem.data.weights, candidates)
    elapsed = time.monotonic() - start
    assert positives and negatives, "battery must exercise both verdicts"
    assert elapsed < 300.0
    _report(
        3,
        f"500 seeded instances, {positives} witnesses reconstructed and "
        f"{negatives} refutations confirmed by the grid oracle",
        elapsed,
    )


# ---------------------------------------------------------------------------
# criterion 4: core algebra battery on 200 random convex capacities
# ---------------------------------------------------------------------------

def test_acceptance_4_core_algebra_battery():
    start = time.monotonic()
    rng = random.Random(47002)
    alphas = (F(1, 4), F(1, 2), F(3, 4))
    mixtures_tested = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        ground = GroundSet.of(gen.LABELS[:n])
        pair = [gen.random_convex_capacity(rng, ground) for _ in range(2)]
        for nu in pair:
            vertices = core_vertices(nu)
            for v in vertices:
                assert core_contains(nu, v)
            assert lower_probability(vertices, ground).values == nu.values
        if n <= 4:
            for alpha in alphas:
                mixed = mixture(pair, [alpha, 1 - alpha])
                for vertex in core_vertices(mixed):
                    parts = decompose_in_mixture_core(vertex, pair, [alpha, 1 - alpha])
                    assert parts is not None
                    for nu, part in zip(pair, parts):
                        assert core_contains(nu, part)
                    recombined = tuple(
                        alpha * parts[0].weights[i] + (1 - alpha) * parts[1].weights[i]
                        for i in range(n)
                    )
                    assert recombined == vertex.weights
                mixtures_tested += 1
    elapsed = time.monotonic() - start
    assert mixtures_tested > 0
    assert elapsed < 120.0
    _report(
        4,
        f"200 convex capacities: greedy vertices dominate, lower envelopes "
        f"round-trip, {mixtures_tested} mixtures decompose at every vertex",
        elapsed,
    )


# ---------------------------------------------------------------------------
# criterion 5: the four capacity constructions
# ---------------------------------------------------------------------------

def test_acceptance_5_specification_capacities():
    start = time.monotonic()
    rng = random.Random(59003)
    for family in gen.FAMILIES:
        for _ in range(200):
            ground = gen.random_ground(rng, 2, 5)
            carrier = gen.random_carrier(rng, ground, max_bits=4)
            spec = gen.random_spec(rng, ground, family, carrier)
            nu = build_capacity(spec)
            # nu records that it is convex; a validating copy is scanned
            assert is_convex(Capacity(nu.ground, nu.values, nu.carrier)), family
            if family in ("ignorance", "contamination"):
                assert is_belief_function(nu), family
    # membership formula vs core membership on step-1/20 grids
    from test_info_specs import grid_measures

    checked = 0
    for size in (1, 2, 3, 4):
        for family in gen.FAMILIES:
            for _ in range(2):
                ground = GroundSet.of(gen.LABELS[: rng.randint(size, 5)])
                idx = rng.sample(range(ground.size), size)
                carrier = 0
                for i in idx:
                    carrier |= 1 << i
                spec = gen.random_spec(rng, ground, family, carrier)
                nu = build_capacity(spec)
                for rho in grid_measures(ground, carrier):
                    assert spec_contains(spec, rho) == core_contains(nu, rho)
                    checked += 1
    elapsed = time.monotonic() - start
    _report(
        5,
        f"800 randomized constructions convex (belief functions where due); "
        f"membership equals core membership at {checked} grid points",
        elapsed,
    )


# ---------------------------------------------------------------------------
# criterion 6: updating reduction
# ---------------------------------------------------------------------------

def test_acceptance_6_updating_reduction():
    start = time.monotonic()
    # derived instance: singleton experiment set, data half-pooled on the prior
    grid = OddsGrid.from_values((F(-1), F(0), F(1)), F(0))
    e_star = Measure(grid.shifted, (F(1, 2), F(0), F(1, 2)))
    model = ExperimentModel(grid, literal_from_measure(e_star, grid.shifted.full_mask))
    lam = Measure(grid.ground, (F(1, 4), F(1, 2), F(1, 4)))
    solution = rationalizing_kappa_interval(lam, model)
    assert (solution.lo, solution.hi) == (F(1, 2), F(1, 2))
    assert solution.diagnosis == "underreaction"

    rng = random.Random(61004)
    disagreements = 0
    compared = 0
    for _ in range(100):
        size = rng.randint(2, 4)
        center = rng.randint(0, size - 1)
        values = tuple(F(i - center) for i in range(size))
        g = OddsGrid.from_values(values, F(0))
        zero_idx = g.null_signal_index
        while True:
            nu = gen.random_convex_capacity(rng, g.shifted)
            try:
                m = ExperimentModel(g, nu)
                break
            except Exception:
                continue
        floor = m.kappa_floor
        tenths = [F(k, 10) for k in range(-10, 11) if F(k, 10) >= floor and k <= 10]
        psi = sorted(rng.sample(tenths, min(len(tenths), rng.randint(2, 3))))
        if F(0) not in psi:
            psi[0] = F(0)
            psi = sorted(set(psi))
        caps = {k: biased_capacity(k, m, g) for k in psi}
        rules = tuple(
            ProblemRule(str(k), ExplicitCapacity(g.ground, g.ground.full_mask, caps[k]))
            for k in psi
        )
        rule_ground = GroundSet.of([str(k) for k in psi])
        lam_draws = [
            gen.random_measure(rng, g.ground, None, denom=12),
            Measure(g.ground, synth_like(rng, m, g).weights),
        ]
        for lam_i in lam_draws:
            lam_i = Measure(g.ground, lam_i.weights)
            problem = IdentificationProblem(g.ground, rules, lam_i)
            for combo in oracle.weight_grid(len(psi), 10):
                q = Measure(rule_ground, combo)
                kappa_av = sum(w * k for w, k in zip(combo, psi))
                via_rules = check_rationalizes(problem, q).rationalizes
                direct = check_average_bias(lam_i, m, kappa_av).rationalizes
                compared += 1
                if via_rules != direct:
                    disagreements += 1
    assert disagreements == 0
    elapsed = time.monotonic() - start
    _report(
        6,
        f"kappa interval exactly {{1/2}} with underreaction; rule-mixture vs "
        f"average-bias agreement on {compared} comparisons",
        elapsed,
    )


def synth_like(rng, model, grid):
    """A data draw built from an admissible update: guaranteed rationalizable."""
    verts = core_vertices(model.nu)
    units = [rng.randint(0, 10) for _ in verts]
    if sum(units) == 0:
        units[0] = 1
    total = sum(units)
    e_weights = tuple(
        sum(F(u, total) * v.weights[i] for u, v in zip(units, verts))
        for i in range(grid.shifted.size)
    )
    e = Measure(grid.shifted, e_weights)
    kappa = F(rng.randint(0, 10), 10)
    return apply_update_rule(kappa, e, grid)


# ---------------------------------------------------------------------------
# criterion 7: point identification under disjoint carriers
# ---------------------------------------------------------------------------

def test_acceptance_7_disjoint_carriers():
    start = time.monotonic()
    rng = random.Random(73005)
    for _ in range(50):
        ground = gen.random_ground(rng, 2, 5)
        m = rng.randint(2, min(3, ground.size))
        indices = list(range(ground.size))
        rng.shuffle(indices)
        carriers = []
        cut_points = sorted(rng.sample(range(1, ground.size), m - 1)) if m > 1 else []
        bounds = [0] + cut_points + [ground.size]
        for j in range(m):
            mask = 0
            for i in indices[bounds[j]:bounds[j + 1]]:
                mask |= 1 << i
            carriers.append(mask)
        specs = []
        for j, carrier in enumerate(carriers):
            family = rng.choice(gen.FAMILIES)
            specs.append((f"r{j}", gen.random_spec(rng, ground, family, carrier)))
        q = gen.random_q(rng, [rid for rid, _ in specs])
        lam = synth_population(specs, q, rng.randrange(1 << 30)).lam
        problem = problem_from_info_specs(ground, specs, lam)
        verts = identified_vertices(problem)
        assert len(verts) == 1
        expected = tuple(lam.mass(c) for c in carriers)
        assert verts[0].weights == expected
        assert verts[0].weights == q.weights
    elapsed = time.monotonic() - start
    _report(7, "50 disjoint-carrier instances pin the unique mixing weights", elapsed)
