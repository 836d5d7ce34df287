"""Dual-route checks for the polytope machinery.

The incremental-insertion vertex enumerator is validated against an
independent exhaustive basis enumeration written here (activate dim-1
constraints, solve the square system, keep feasible solutions, filter to
extreme points), and the LP bounds are validated against vertex extrema.
"""

import random
from fractions import Fraction as F
from itertools import combinations

import gen
from capid import GroundSet, Measure
from capid.identification import (
    _lp_rows,
    check_rationalizes,
    exists_rationalizing,
    identified_vertices,
    probability_bounds,
    problem_from_info_specs,
)
from capid.lp import simplex_polytope_vertices
from lp_oracle import fraction_rows, kernel_rows


def solve_square(matrix, rhs):
    """Unique solution of a square rational system, or None."""
    n = len(matrix)
    aug = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = F(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def brute_force_vertices(dim, constraints):
    """Exhaustive basis enumeration over {sum x = 1, x >= 0, cuts}."""
    pool = []
    for i in range(dim):
        row = [F(0)] * dim
        row[i] = F(1)
        pool.append((row, F(0)))  # x_i = 0 when active
    pool.extend((list(c), r) for c, r in constraints)

    def feasible(x):
        if sum(x) != 1:
            return False
        if any(v < 0 for v in x):
            return False
        return all(
            sum(c * v for c, v in zip(coeffs, x)) <= rhs for coeffs, rhs in constraints
        )

    found = {}
    for active in combinations(range(len(pool)), dim - 1):
        matrix = [[F(1)] * dim] + [pool[i][0] for i in active]
        rhs = [F(1)] + [pool[i][1] for i in active]
        x = solve_square(matrix, rhs)
        if x is not None and feasible(x):
            found[x] = None
    # keep extreme points only: drop any convex combination of two others
    points = list(found)
    extreme = []
    for p in points:
        inside = False
        for a in points:
            if inside:
                break
            for b in points:
                if a == p or b == p or a == b:
                    continue
                # p on segment [a, b]?
                diff_ab = [y - x for x, y in zip(a, b)]
                diff_ap = [y - x for x, y in zip(a, p)]
                t = None
                ok = True
                for d1, d2 in zip(diff_ab, diff_ap):
                    if d1 == 0:
                        if d2 != 0:
                            ok = False
                            break
                    else:
                        ratio = d2 / d1
                        if t is None:
                            t = ratio
                        elif ratio != t:
                            ok = False
                            break
                if ok and t is not None and 0 < t < 1:
                    inside = True
                    break
        if not inside:
            extreme.append(p)
    return set(extreme)


class TestVertexEnumerationAgainstBasisOracle:
    def test_random_cuts_agree(self):
        rng = random.Random(555001)
        for _ in range(25):
            dim = rng.randint(2, 4)
            cuts = []
            for _ in range(rng.randint(0, 4)):
                coeffs = tuple(F(rng.randint(0, 4), 4) for _ in range(dim))
                rhs = F(rng.randint(1, 8), 8)
                cuts.append((coeffs, rhs))
            fast = set(simplex_polytope_vertices(dim, *kernel_rows(cuts)))
            slow = brute_force_vertices(dim, cuts)
            assert fast == slow, (dim, cuts)

    def test_identified_sets_agree(self):
        rng = random.Random(555002)
        for _ in range(15):
            ground = gen.random_ground(rng, 2, 4)
            m = rng.randint(2, 4)
            specs = []
            for j in range(m):
                family = rng.choice(gen.FAMILIES)
                carrier = gen.random_carrier(rng, ground, 3)
                specs.append((f"r{j}", gen.random_spec(rng, ground, family, carrier)))
            q = gen.random_q(rng, [rid for rid, _ in specs])
            from capid.simulate import synth_population

            lam = synth_population(
                [rid for rid, _ in specs], [s for _, s in specs], q, rng.randrange(1 << 30)
            ).lam
            problem = problem_from_info_specs(ground, specs, lam)
            fast = {v.weights for v in identified_vertices(problem)}
            _, a_ub, b_ub = _lp_rows(problem)
            slow = brute_force_vertices(m, fraction_rows(a_ub, b_ub))
            assert fast == slow


class TestBoundsMatchVertexExtrema:
    def test_bounds_are_vertex_extrema(self):
        rng = random.Random(555003)
        for _ in range(10):
            ground = gen.random_ground(rng, 2, 4)
            m = rng.randint(2, 4)
            specs = []
            for j in range(m):
                family = rng.choice(gen.FAMILIES)
                carrier = gen.random_carrier(rng, ground, 3)
                specs.append((f"r{j}", gen.random_spec(rng, ground, family, carrier)))
            q = gen.random_q(rng, [rid for rid, _ in specs])
            from capid.simulate import synth_population

            lam = synth_population(
                [rid for rid, _ in specs], [s for _, s in specs], q, rng.randrange(1 << 30)
            ).lam
            problem = problem_from_info_specs(ground, specs, lam)
            verts = identified_vertices(problem)
            bounds = probability_bounds(problem)
            for i, (rid, _) in enumerate(specs):
                lo, hi = bounds[rid]
                values = [v.weights[i] for v in verts]
                assert lo == min(values) and hi == max(values)
            # every vertex is admissible and some point exists
            assert exists_rationalizing(problem) is not None
            for v in verts:
                assert check_rationalizes(problem, v).rationalizes
