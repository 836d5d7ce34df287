"""Exact simplex and vertex-enumeration kernel tests."""

import random
from fractions import Fraction as F

from capid.lp import feasible_point, scaled_rows, simplex_polytope_vertices, solve_lp
from lp_oracle import fraction_rows, int_rows, kernel_rows


def solve(c, a_ub, b_ub, a_eq, b_eq):
    """``solve_lp`` on rows of Fractions, through the kernel's row converter."""
    return solve_lp(c, *int_rows(a_ub, b_ub), *int_rows(a_eq, b_eq))


class TestScaledRows:
    def test_rows_are_the_values_over_c_r_t(self):
        # c/C . x <= r/R + s/t, with a float slack at its binary value
        rng = random.Random(2031)
        for _ in range(200):
            C, R = rng.randint(1, 60), rng.randint(1, 60)
            coeffs = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(rng.randint(0, 4))]
            rhs = [rng.randint(-30, 30) for _ in coeffs]
            slack = rng.choice((0, 1e-9, F(1, 7), F(1e-9) / 2))
            a, b = scaled_rows(coeffs, C, rhs, R, slack)
            assert fraction_rows(a, b) == [
                (tuple(F(v, C) for v in c), F(r, R) + F(slack)) for c, r in zip(coeffs, rhs)
            ]
            assert all(den == C * R * F(slack).denominator for _, den in b)


class TestSolveLp:
    def test_simple_minimum(self):
        # min x + y  s.t.  x + 2y >= 1 (as -x - 2y <= -1), x,y >= 0
        res = solve([F(1), F(1)], [[F(-1), F(-2)]], [F(-1)], [], [])
        assert res.status == "optimal"
        assert res.objective == F(1, 2)
        assert res.x == (F(0), F(1, 2))

    def test_equality_constraints(self):
        # min -x  s.t.  x + y = 1  ->  x = 1
        res = solve([F(-1), F(0)], [], [], [[F(1), F(1)]], [F(1)])
        assert res.status == "optimal"
        assert res.x == (F(1), F(0))

    def test_infeasible(self):
        # x + y = 1 and x + y <= 1/2
        res = solve([F(0), F(0)], [[F(1), F(1)]], [F(1, 2)], [[F(1), F(1)]], [F(1)])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve([F(-1)], [], [], [], [])
        assert res.status == "unbounded"

    def test_negative_rhs_rows(self):
        # min y  s.t.  -x <= -1/3  (x >= 1/3),  x + y = 1
        res = solve([F(0), F(1)], [[F(-1), F(0)]], [F(-1, 3)], [[F(1), F(1)]], [F(1)])
        assert res.status == "optimal"
        assert res.objective == F(0)
        assert res.x[0] >= F(1, 3)

    def test_degenerate_does_not_cycle(self):
        # classic degeneracy: several identical binding constraints
        rows = [[F(1), F(1)], [F(1), F(1)], [F(2), F(2)]]
        rhs = [F(1), F(1), F(2)]
        res = solve([F(-1), F(-1)], rows, rhs, [], [])
        assert res.status == "optimal"
        assert res.objective == F(-1)

    def test_feasible_point_none_when_infeasible(self):
        assert feasible_point(*int_rows([[F(1)]], [F(-1)]), [], [], 1) is None

    def test_int_rows_put_each_row_over_its_least_common_denominator(self):
        # a float counts at its exact binary value
        assert int_rows([[F(1, 2), F(1, 3)], [2, 0.5]], [F(1), F(-3, 4)]) == (
            [[3, 2], [8, 2]],
            [(6, 6), (-3, 4)],
        )
        assert int_rows([], []) == ([], [])

    def test_rows_in_any_common_scale_give_the_same_result(self):
        # x <= 3/4 as [L, 0, L - L/4, L], the form the core rows take; the
        # kernel reduces each row by its gcd before the first pivot
        expected = solve([F(-1), F(1)], [[1, 0], [0, 1]], [F(3, 4), 1], [[1, 1]], [1])
        assert expected.x == (F(3, 4), F(1, 4))
        for scale in (4, 12, 4 * 9_999_991):
            a_ub = [[scale, 0], [0, 2 * scale]]
            b_ub = [(scale - scale // 4, scale), (2 * scale, 2 * scale)]
            a_eq, b_eq = [[3, 3]], [(3, 3)]
            assert solve_lp([F(-1), F(1)], a_ub, b_ub, a_eq, b_eq) == expected


def vertices(dim, rows):
    """``simplex_polytope_vertices`` on rows of Fractions ``(coeffs, rhs)``,
    each put over its least common denominator.  The same rows with row k's
    numerators and denominator multiplied by 2k + 3, unreduced, as the
    dominance rows arrive over one common denominator L * D, must give the
    same vertices."""
    a_ub, b_ub = kernel_rows(rows)
    verts = simplex_polytope_vertices(dim, a_ub, b_ub)
    scaled = simplex_polytope_vertices(
        dim,
        [[v * (2 * k + 3) for v in row] for k, row in enumerate(a_ub)],
        [(rhs * (2 * k + 3), den * (2 * k + 3)) for k, (rhs, den) in enumerate(b_ub)],
    )
    assert scaled == verts
    return verts


class TestSimplexPolytopeVertices:
    def test_no_constraints_gives_unit_vectors(self):
        verts = set(vertices(3, []))
        assert verts == {
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        }

    def test_single_cut(self):
        # x0 <= 1/2 slices the edge from e0 to both other corners
        verts = set(vertices(3, [((F(1), F(0), F(0)), F(1, 2))]))
        assert verts == {
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
            (F(1, 2), F(1, 2), F(0)),
            (F(1, 2), F(0), F(1, 2)),
        }

    def test_empty_polytope(self):
        verts = vertices(2, [((F(1), F(1)), F(1, 2))])
        assert verts == []

    def test_point_polytope(self):
        # x0 <= 1/3 and x1 <= 2/3 pins the unique point (1/3, 2/3)
        verts = vertices(2, [((F(1), F(0)), F(1, 3)), ((F(0), F(1)), F(2, 3))])
        assert set(verts) == {(F(1, 3), F(2, 3))}

    def test_redundant_constraint_changes_nothing(self):
        base = [((F(1), F(0)), F(1, 2))]
        redundant = base + [((F(1), F(1)), F(2))]
        assert set(vertices(2, base)) == set(vertices(2, redundant))

    def test_vertices_satisfy_all_constraints(self):
        constraints = [
            ((F(1), F(1), F(0)), F(3, 4)),
            ((F(0), F(1), F(1)), F(2, 3)),
            ((F(1), F(0), F(1)), F(3, 5)),
        ]
        verts = vertices(3, constraints)
        assert verts
        for v in verts:
            assert sum(v) == 1 and all(x >= 0 for x in v)
            for coeffs, rhs in constraints:
                assert sum(c * x for c, x in zip(coeffs, v)) <= rhs
