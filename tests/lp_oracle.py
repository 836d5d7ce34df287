"""Dense two-phase simplex and rank-filter vertex enumeration, kept as test
oracles for ``capid.lp``.

The dense tableau is the one the library used before its condensed form: one
column per structural, slack and artificial variable, so every pivot touches
O(R * (R + m)) entries.  Its pivot rules are the ones ``capid.lp`` keeps
(Dantzig entering with lowest-index ties, Bland after 32 stalled pivots,
ratio ties to the lowest basic variable, lowest-index artificial drive-out),
so the two solvers must return identical ``LpResult`` values.

``rank_filter_vertices`` is the vertex enumerator the library used before
double description: it crosses every pair of vertices on opposite sides of
each new cut and keeps the candidates whose active constraints have full
rank, by exact Gaussian elimination.  It must return the same vertex set as
``capid.lp.simplex_polytope_vertices``.

Both oracles take rows of Fractions ``(coeffs, rhs)``; ``int_rows``,
``kernel_rows`` and ``fraction_rows`` carry rows between that form and
``capid.lp``'s int rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from capid.lp import IntRows, LpResult, Row, Tails
from capid.numeric import int_numerators

_ZERO = Fraction(0)
_ONE = Fraction(1)


def int_rows(a: Sequence[Row], b: Row) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """The constraints ``a[i] . x <= b[i]`` (or ``=``), with values of any
    exact or float type, in ``capid.lp``'s row form: each row over its least
    common denominator, a float at its exact binary value."""
    rows = [int_numerators([*arow, rhs]) for arow, rhs in zip(a, b)]
    return [list(nums[:-1]) for nums, _ in rows], [(nums[-1], den) for nums, den in rows]


def kernel_rows(
    rows: Sequence[tuple[Row, Fraction]],
) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Rows ``coeffs . x <= rhs`` of Fractions in ``capid.lp``'s row form."""
    return int_rows([coeffs for coeffs, _ in rows], [rhs for _, rhs in rows])


def fraction_rows(a_ub: IntRows, b_ub: Tails) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """``capid.lp``'s rows as Fraction rows ``(coeffs, rhs)``: each numerator
    over its row's denominator."""
    return [
        (tuple(Fraction(v, den) for v in coeffs), Fraction(rhs, den))
        for coeffs, (rhs, den) in zip(a_ub, b_ub)
    ]


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    inv = _ONE / piv
    tableau[row] = [v * inv for v in tableau[row]]
    prow = tableau[row]
    for r, trow in enumerate(tableau):
        if r == row:
            continue
        factor = trow[col]
        if factor:
            tableau[r] = [v - factor * p for v, p in zip(trow, prow)]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> str:
    """Minimize the objective encoded in the last tableau row.

    Dantzig's most-negative entering rule for speed; after a run of
    degenerate pivots the rule switches permanently to Bland's, which
    guarantees termination from any basis.
    """
    obj = len(tableau) - 1
    stalled = 0
    bland = False
    last_value = tableau[obj][-1]
    while True:
        enter = -1
        if bland:
            for j in range(ncols):
                if tableau[obj][j] < 0:
                    enter = j
                    break
        else:
            most = _ZERO
            for j in range(ncols):
                v = tableau[obj][j]
                if v < most:
                    most = v
                    enter = j
        if enter < 0:
            return "optimal"
        leave = -1
        best: Optional[Fraction] = None
        for r in range(obj):
            coef = tableau[r][enter]
            if coef > 0:
                ratio = tableau[r][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            return "unbounded"
        _pivot(tableau, basis, leave, enter)
        if not bland:
            value = tableau[obj][-1]
            if value == last_value:
                stalled += 1
                if stalled >= 32:
                    bland = True
            else:
                stalled = 0
                last_value = value


def solve_lp(
    c: Row,
    a_ub: Sequence[Row],
    b_ub: Row,
    a_eq: Sequence[Row],
    b_eq: Row,
) -> LpResult:
    """Exact two-phase simplex for ``min c.x, A_ub x <= b_ub, A_eq x = b_eq, x >= 0``."""
    n = len(c)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_count = len(a_ub)
    for i, (arow, b) in enumerate(zip(a_ub, b_ub)):
        row = [Fraction(v) for v in arow] + [_ZERO] * slack_count
        row[n + i] = _ONE
        rows.append(row)
        rhs.append(Fraction(b))
    for arow, b in zip(a_eq, b_eq):
        rows.append([Fraction(v) for v in arow] + [_ZERO] * slack_count)
        rhs.append(Fraction(b))
    # normalize to b >= 0 so artificial columns can form a feasible start
    for r in range(len(rows)):
        if rhs[r] < 0:
            rows[r] = [-v for v in rows[r]]
            rhs[r] = -rhs[r]

    m = len(rows)
    width = n + slack_count
    basis = [-1] * m
    # slack columns with +1 coefficient give a free basic variable
    for r in range(m):
        for j in range(n, width):
            if rows[r][j] == _ONE and all(rows[k][j] == 0 for k in range(m) if k != r):
                basis[r] = j
                break
    art_cols: list[int] = []
    for r in range(m):
        if basis[r] < 0:
            col = width + len(art_cols)
            art_cols.append(col)
            basis[r] = col
    total = width + len(art_cols)

    tableau = []
    for r in range(m):
        row = rows[r] + [_ZERO] * len(art_cols) + [rhs[r]]
        if basis[r] >= width:
            row[basis[r]] = _ONE
        tableau.append(row)

    if art_cols:
        phase1 = [_ZERO] * (total + 1)
        for col in art_cols:
            phase1[col] = _ONE
        tableau.append(phase1)
        for r in range(m):
            if basis[r] >= width:
                tableau[m] = [v - w for v, w in zip(tableau[m], tableau[r])]
        status = _run_simplex(tableau, basis, total)
        if status != "optimal" or tableau[m][-1] != 0:
            return LpResult("infeasible", None, None)
        tableau.pop()
        # drive surviving artificials out of the basis or drop redundant rows
        drop: list[int] = []
        for r in range(m):
            if basis[r] >= width:
                piv_col = next((j for j in range(width) if tableau[r][j] != 0), -1)
                if piv_col < 0:
                    drop.append(r)
                else:
                    _pivot(tableau, basis, r, piv_col)
        for r in sorted(drop, reverse=True):
            tableau.pop(r)
            basis.pop(r)
        m = len(tableau)
        tableau = [row[:width] + [row[-1]] for row in tableau]
        total = width

    objective = [Fraction(v) for v in c] + [_ZERO] * (total - n) + [_ZERO]
    tableau.append(objective)
    for r in range(m):
        coef = tableau[m][basis[r]]
        if coef:
            tableau[m] = [v - coef * w for v, w in zip(tableau[m], tableau[r])]
    status = _run_simplex(tableau, basis, total)
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    x = [_ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r][-1]
    value = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return LpResult("optimal", tuple(x), value)


def _rank(matrix: list[list[Fraction]]) -> int:
    """Row rank by fraction-exact Gaussian elimination (destructive on a copy)."""
    mat = [row[:] for row in matrix]
    rank = 0
    cols = len(mat[0]) if mat else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(mat)) if mat[r][col] != 0), -1)
        if piv < 0:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = _ONE / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [v - factor * w for v, w in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == len(mat):
            break
    return rank


def _is_vertex(
    point: Sequence[Fraction],
    constraints: Sequence[tuple[Row, Fraction]],
    dim: int,
) -> bool:
    """Extremity test: active normals (plus the simplex equality) span R^dim."""
    rows: list[list[Fraction]] = [[_ONE] * dim]
    for i, v in enumerate(point):
        if v == 0:
            unit = [_ZERO] * dim
            unit[i] = _ONE
            rows.append(unit)
    for coeffs, rhs in constraints:
        if sum(c * v for c, v in zip(coeffs, point)) == rhs:
            rows.append(list(coeffs))
    if len(rows) < dim:
        return False
    return _rank(rows) == dim


def rank_filter_vertices(
    dim: int, constraints: Sequence[tuple[Row, Fraction]]
) -> list[tuple[Fraction, ...]]:
    """Exact vertex set of ``{x >= 0, sum x = 1, coeffs.x <= rhs for each constraint}``.

    Incremental halfspace insertion starting from the unit vectors; after each
    insertion candidate points are deduplicated and filtered down to true
    extreme points, so intermediate sets never contain interior artifacts.
    Returns [] when the polytope is empty.
    """
    verts: list[tuple[Fraction, ...]] = []
    for i in range(dim):
        unit = [_ZERO] * dim
        unit[i] = _ONE
        verts.append(tuple(unit))
    inserted: list[tuple[Row, Fraction]] = []
    for coeffs, rhs in constraints:
        slack = [rhs - sum(c * v for c, v in zip(coeffs, vert)) for vert in verts]
        keep = [v for v, s in zip(verts, slack) if s >= 0]
        pos = [(v, s) for v, s in zip(verts, slack) if s > 0]
        neg = [(v, s) for v, s in zip(verts, slack) if s < 0]
        candidates = {v: None for v in keep}
        for u, su in pos:
            for w, sw in neg:
                t = su / (su - sw)
                point = tuple(a + t * (b - a) for a, b in zip(u, w))
                candidates[point] = None
        inserted.append((coeffs, rhs))
        verts = [
            v for v in candidates if _is_vertex(v, inserted, dim)
        ]
        if not verts:
            return []
    return verts
