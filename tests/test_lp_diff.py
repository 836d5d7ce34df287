"""Differential tests: the exact LP kernel against the oracles it replaced.

The condensed integer-row simplex and the dense Fraction oracle follow the
same pivot rules, so on every LP they must make the same pivots and return
the same ``LpResult``: status, exact point and objective, also for each
objective of a ``minimize_each`` call, which shares one phase 1 among them.
The LPs are written with Fractions and reach the kernel through the row
converter ``lp_oracle.int_rows``.  Where scipy is installed, optimal objectives are
also compared with HiGHS.  Double-description vertex enumeration must return
the vertex set of the rank-filter oracle, each vertex once.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest

import lp_oracle
from capid import lp
from capid.identification import _lp_rows, problem_from_info_specs
from capid.lp import minimize_each, simplex_polytope_vertices, solve_lp
from capid.simulate import synth_population
from gen import FAMILIES, random_carrier, random_ground, random_measure, random_q, random_spec
from lp_oracle import fraction_rows, int_rows, kernel_rows, rank_filter_vertices
from lp_oracle import solve_lp as dense_solve_lp


def kernel(c, a_ub, b_ub, a_eq, b_eq):
    """The LP with its constraints in the kernel's row form."""
    return (c, *int_rows(a_ub, b_ub), *int_rows(a_eq, b_eq))


def _value(rng: random.Random, lo: int, hi: int, zeros: float) -> F:
    if rng.random() < zeros:
        return F(0)
    if rng.random() < 0.25:
        return F(rng.randint(lo, hi), rng.randint(1, 4))
    return F(rng.randint(lo, hi))


def random_lp(rng: random.Random):
    """Small LPs with many zeros and repeated values, so ties are common."""
    n = rng.randint(1, 5)
    zeros = rng.choice((0.0, 0.3, 0.6))
    c = [_value(rng, -3, 3, zeros) for _ in range(n)]
    a_ub = [[_value(rng, -3, 3, zeros) for _ in range(n)] for _ in range(rng.randint(0, 7))]
    b_ub = [_value(rng, -3, 4, 0.3) for _ in a_ub]
    a_eq = [[_value(rng, -2, 3, zeros) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    b_eq = [_value(rng, -2, 3, 0.2) for _ in a_eq]
    if a_ub and rng.random() < 0.3:
        # a repeated inequality gives tied ratios between basic slacks
        i = rng.randrange(len(a_ub))
        a_ub.append(list(a_ub[i]))
        b_ub.append(b_ub[i])
    if a_eq and rng.random() < 0.4:
        # a scaled copy of an equality is redundant: its artificial stays
        # basic at zero with no pivot left, and the row is dropped
        k = F(rng.choice((-2, -1, 2, 3)))
        a_eq.append([k * v for v in a_eq[0]])
        b_eq.append(k * b_eq[0])
    return c, a_ub, b_ub, a_eq, b_eq


def dominance_lp(rng: random.Random):
    """LPs shaped like the identification queries: Q on the simplex and
    rows ``nu(K) . Q <= lambda(K)`` with many equal coefficients."""
    m = rng.randint(2, 5)
    rows = []
    for _ in range(rng.randint(5, 25)):
        coeffs = [F(rng.choice((0, 0, 1, 1, 2, 3)), 4) for _ in range(m)]
        rows.append((coeffs, F(rng.randint(0, 4), 4)))
    i = rng.randrange(m)
    c = [F(0)] * m
    c[i] = F(rng.choice((-1, 1)))
    ones = [F(1)] * m
    return c, [r for r, _ in rows], [b for _, b in rows], [ones], [F(1)]


def decomposition_lp(rng: random.Random):
    """Feasibility LPs with several equality blocks that share a mix-back
    row per label, as in the per-rule core decomposition."""
    parts, labels = rng.randint(2, 3), rng.randint(2, 3)
    nvars = parts * labels
    a_eq, b_eq = [], []
    for p in range(parts):
        a_eq.append([F(int(v // labels == p)) for v in range(nvars)])
        b_eq.append(F(1))
    weights = [F(rng.randint(1, 3)) for _ in range(parts)]
    total = sum(weights)
    target = [F(rng.randint(0, 3)) for _ in range(labels)]
    scale = sum(target) or F(1)
    for a in range(labels):
        share = [weights[v // labels] / total for v in range(nvars)]
        a_eq.append([share[v] if v % labels == a else F(0) for v in range(nvars)])
        b_eq.append(target[a] / scale if sum(target) else F(1, labels))
    a_ub = [[F(rng.randint(0, 1)) for _ in range(nvars)] for _ in range(rng.randint(0, 6))]
    b_ub = [F(rng.randint(0, 3), 3) for _ in a_ub]
    return [F(0)] * nvars, a_ub, b_ub, a_eq, b_eq


def binary_float_lp(rng: random.Random):
    """LPs whose every number is the exact binary value of a double, as
    float-mode callers pass them, so a row's common denominator reaches 2^50
    and more.

    Half take random_lp's shapes with independent random doubles.  The other
    half are transportation problems, which are highly degenerate, with each
    row multiplied by its own random double; the integers it multiplies are
    0 or powers of two, so every product is again a double.  Their ratio
    tests tie exactly on 100-bit cross products, and often several vertices
    are optimal, so a wrong tie-break changes the result.
    """
    if rng.random() < 0.5:
        n = rng.randint(1, 5)
        zeros = rng.choice((0.0, 0.3, 0.6))

        def value(lo: float, hi: float, zeros: float) -> F:
            return F(0) if rng.random() < zeros else F(rng.uniform(lo, hi))

        c = [value(-3, 3, zeros) for _ in range(n)]
        a_ub = [[value(-3, 3, zeros) for _ in range(n)] for _ in range(rng.randint(0, 7))]
        b_ub = [value(-3, 4, 0.2) for _ in a_ub]
        a_eq = [[value(-2, 3, zeros) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        b_eq = [value(-2, 3, 0.2) for _ in a_eq]
        return c, a_ub, b_ub, a_eq, b_eq
    k = rng.randint(2, 3)
    n = k * k
    supply = [rng.choice((1.0, 2.0, 4.0)) for _ in range(k)]
    demand = rng.sample(supply, k)
    a_eq, b_eq = [], []
    for i in range(k):
        s = rng.uniform(0.5, 2.0)
        a_eq.append([F(s) if v // k == i else F(0) for v in range(n)])
        b_eq.append(F(s * supply[i]))
    for j in range(k):
        s = rng.uniform(0.5, 2.0)
        a_eq.append([F(s) if v % k == j else F(0) for v in range(n)])
        b_eq.append(F(s * demand[j]))
    a_ub, b_ub = [], []
    for _ in range(rng.randint(0, 3)):
        s = rng.uniform(0.5, 2.0)
        a_ub.append([F(s * rng.randint(0, 1)) for _ in range(n)])
        b_ub.append(F(s * rng.choice((0.0, 1.0, 2.0, 4.0))))
    mode = rng.randrange(3)
    if mode == 0:
        c = [F(0)] * n
    elif mode == 1:
        c = [F(rng.randint(0, 1)) for _ in range(n)]
    else:
        c = [F(rng.randint(-1, 1) * rng.uniform(0.5, 2.0)) for _ in range(n)]
    return c, a_ub, b_ub, a_eq, b_eq


GENERATORS = (random_lp, dominance_lp, decomposition_lp, binary_float_lp)
CASES = [(gen, seed) for gen in GENERATORS for seed in range(120)]


@pytest.fixture
def pivot_logs(monkeypatch):
    """Record each solver's pivots as (leaving, entering) variable pairs."""
    logs = {"kernel": [], "dense": []}
    kernel_pivot, dense_pivot = lp._pivot, lp_oracle._pivot

    def logged_kernel_pivot(tableau, basis, nonbasic, row, col):
        logs["kernel"].append((basis[row], nonbasic[col]))
        kernel_pivot(tableau, basis, nonbasic, row, col)

    def logged_dense_pivot(tableau, basis, row, col):
        logs["dense"].append((basis[row], col))
        dense_pivot(tableau, basis, row, col)

    monkeypatch.setattr(lp, "_pivot", logged_kernel_pivot)
    monkeypatch.setattr(lp_oracle, "_pivot", logged_dense_pivot)
    return logs


@pytest.mark.parametrize("gen,seed", CASES, ids=[f"{g.__name__}-{s}" for g, s in CASES])
def test_matches_dense_oracle(gen, seed, pivot_logs):
    """Both solvers number variables structural, slack, artificial, so the
    pivots match too: in phase 1, in the drive-out of artificials and in
    phase 2."""
    lp_args = gen(random.Random(seed))
    assert solve_lp(*kernel(*lp_args)) == dense_solve_lp(*lp_args)
    assert pivot_logs["kernel"] == pivot_logs["dense"]


def test_generators_cover_every_outcome(pivot_logs):
    statuses = set()
    pivoting = {gen: 0 for gen in GENERATORS}
    for gen, seed in CASES:
        pivot_logs["kernel"].clear()
        statuses.add(solve_lp(*kernel(*gen(random.Random(seed)))).status)
        pivoting[gen] += len(pivot_logs["kernel"]) >= 3
    assert statuses == {"optimal", "infeasible", "unbounded"}
    # every generator, the wide binary-float denominators included, gives
    # LPs whose pivot sequences are long enough to compare
    assert min(pivoting.values()) >= 15, pivoting


def test_binary_float_rows_have_wide_denominators():
    widest = 0
    for seed in range(120):
        _, a_ub, b_ub, a_eq, b_eq = binary_float_lp(random.Random(seed))
        for row, rhs in zip(a_ub + a_eq, b_ub + b_eq):
            widest = max(widest, lcm(*(v.denominator for v in row), rhs.denominator))
    assert widest >= 1 << 50


def _objectives(rng: random.Random, c):
    """c and 1-5 more objectives of its length: signed unit vectors, as
    ``probability_bounds`` asks, or small values with ties."""
    out = [c]
    for _ in range(rng.randint(1, 5)):
        if c and rng.random() < 0.5:
            unit = [F(0)] * len(c)
            unit[rng.randrange(len(c))] = F(rng.choice((-1, 1)))
            out.append(unit)
        else:
            out.append([_value(rng, -3, 3, 0.4) for _ in c])
    return out


@pytest.mark.parametrize("gen,seed", CASES, ids=[f"{g.__name__}-{s}" for g, s in CASES])
def test_minimize_each_matches_dense_oracle_per_objective(gen, seed):
    """One shared phase 1 gives every objective the result of its own solve:
    a phase 2 that started where the previous objective's pivots ended would
    often stop at another optimal vertex."""
    rng = random.Random(seed)
    c, a_ub, b_ub, a_eq, b_eq = gen(rng)
    objectives = _objectives(rng, c)
    expected = [dense_solve_lp(obj, a_ub, b_ub, a_eq, b_eq) for obj in objectives]
    _, *rows = kernel(c, a_ub, b_ub, a_eq, b_eq)
    assert minimize_each(objectives, *rows) == expected


def test_minimize_each_cases_cover_every_outcome():
    statuses = set()
    for gen, seed in CASES:
        rng = random.Random(seed)
        c, a_ub, b_ub, a_eq, b_eq = gen(rng)
        _, *rows = kernel(c, a_ub, b_ub, a_eq, b_eq)
        results = minimize_each(_objectives(rng, c), *rows)
        statuses.update(res.status for res in results)
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert minimize_each([], [[1]], [(1, 1)], [], []) == []


@pytest.mark.parametrize(
    "lp_args",
    [
        # tied most-negative costs and tied ratios at a degenerate vertex
        ([F(-1), F(-1)], [[F(1), F(1)], [F(1), F(1)], [F(2), F(2)]], [F(1), F(1), F(2)], [], []),
        # negative right-hand sides start their slacks nonbasic
        ([F(1), F(2)], [[F(-1), F(-1)], [F(-1), F(0)]], [F(-1), F(-1, 2)], [], []),
        # the second equality repeats the first: its row is dropped
        ([F(1), F(-1)], [], [], [[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]),
        # an all-zero equality row with zero right-hand side
        ([F(1)], [], [], [[F(0)], [F(1)]], [F(0), F(1)]),
        # Beale's example cycles under Dantzig's rule with these tie-breaks;
        # only the switch to Bland's rule after stalled pivots ends it
        (
            [F(-3, 4), F(20), F(-1, 2), F(6)],
            [
                [F(1, 4), F(-8), F(-1), F(9)],
                [F(1, 2), F(-12), F(-1, 2), F(3)],
                [F(0), F(0), F(1), F(0)],
            ],
            [F(0), F(0), F(1)],
            [],
            [],
        ),
        # infeasible, unbounded, and empty
        ([F(0), F(0)], [[F(1), F(1)]], [F(1, 2)], [[F(1), F(1)]], [F(1)]),
        ([F(-1), F(0)], [[F(0), F(1)]], [F(1)], [], []),
        ([], [], [], [], []),
    ],
)
def test_matches_dense_oracle_on_edge_cases(lp_args, pivot_logs):
    assert solve_lp(*kernel(*lp_args)) == dense_solve_lp(*lp_args)
    assert pivot_logs["kernel"] == pivot_logs["dense"]


def test_objectives_match_highs():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    for gen, seed in CASES:
        c, a_ub, b_ub, a_eq, b_eq = gen(random.Random(seed))
        res = solve_lp(*kernel(c, a_ub, b_ub, a_eq, b_eq))
        ref = scipy_optimize.linprog(
            [float(v) for v in c],
            A_ub=[[float(v) for v in row] for row in a_ub] or None,
            b_ub=[float(v) for v in b_ub] or None,
            A_eq=[[float(v) for v in row] for row in a_eq] or None,
            b_eq=[float(v) for v in b_eq] or None,
            bounds=(0, None),
            method="highs",
        )
        if res.status == "optimal":
            assert ref.status == 0, (gen.__name__, seed, ref.message)
            assert abs(float(res.objective) - ref.fun) <= 1e-9, (gen.__name__, seed)
        else:
            assert ref.status != 0, (gen.__name__, seed, res.status)


def random_polytope(rng: random.Random):
    """Cuts of the simplex in dimension 1-5 with repeated, scaled and opposite
    rows, so degenerate vertices, forced equalities, empty sets and sets with
    fewer vertices than coordinates are all common."""
    dim = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(0, 6)):
        coeffs = tuple(_value(rng, -2, 4, rng.choice((0.0, 0.4))) for _ in range(dim))
        # a right-hand side at the least or greatest coefficient cuts the
        # simplex down to a face or not at all; one below it empties it
        lo, hi = min(coeffs), max(coeffs)
        rhs = lo + (hi - lo) * F(rng.randint(0, 6), 6) - F(rng.random() < 0.05, 2)
        rows.append((coeffs, rhs))
    if rows and rng.random() < 0.3:
        coeffs, rhs = rng.choice(rows)
        k = F(rng.choice((1, 1, 2, 3)))
        rows.insert(rng.randrange(len(rows) + 1), (tuple(k * c for c in coeffs), k * rhs))
    if rows and rng.random() < 0.4:
        # an opposite pair forces coeffs . x == rhs, which may miss every vertex
        for _ in range(rng.randint(1, 2)):
            coeffs = rng.choice(rows)[0]
            # through a corner of the simplex, or anywhere
            rhs = rng.choice(coeffs) if rng.random() < 0.7 else rows[0][1]
            rows.insert(rng.randrange(len(rows) + 1), (tuple(-c for c in coeffs), -rhs))
            rows.insert(rng.randrange(len(rows) + 1), (coeffs, rhs))
    return dim, rows


POLYTOPE_SEEDS = range(2000)


def test_vertices_match_rank_filter_oracle():
    outcomes = {"empty": 0, "few": 0, "degenerate": 0}
    for seed in POLYTOPE_SEEDS:
        dim, rows = random_polytope(random.Random(seed))
        verts = simplex_polytope_vertices(dim, *kernel_rows(rows))
        expected = rank_filter_vertices(dim, rows)
        assert len(verts) == len(set(verts)), seed
        assert set(verts) == set(expected), seed
        if not verts:
            outcomes["empty"] += 1
        elif len(verts) < dim:
            outcomes["few"] += 1
        elif any(
            sum(v == 0 for v in x)
            + sum(sum(c * v for c, v in zip(coeffs, x)) == rhs for coeffs, rhs in rows)
            > dim - 1
            for x in verts
        ):
            outcomes["degenerate"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_identified_set_vertices_match_rank_filter_oracle():
    rng = random.Random(20261018)
    nonempty = 0
    for case in range(30):
        ground = random_ground(rng, 2, 6)
        m = rng.randint(2, 5)
        specs = []
        for j in range(m):
            family = rng.choice(FAMILIES)
            carrier = random_carrier(rng, ground, 3)
            specs.append((f"r{j}", random_spec(rng, ground, family, carrier)))
        ids = [rid for rid, _ in specs]
        if case % 3:
            q = random_q(rng, ids)
            lam = synth_population(specs, q, rng.randrange(1 << 30)).lam
        else:
            lam = random_measure(rng, ground)
        problem = problem_from_info_specs(ground, specs, lam)
        _, a_ub, b_ub = _lp_rows(problem)
        verts = simplex_polytope_vertices(m, a_ub, b_ub)
        rows = fraction_rows(a_ub, b_ub)
        assert len(verts) == len(set(verts)), case
        assert set(verts) == set(rank_filter_vertices(m, rows)), case
        nonempty += bool(verts)
    assert nonempty >= 20
