"""Self-contained exact linear programming kernel.

Everything here runs on :class:`fractions.Fraction`, so feasibility answers
are exact and never depend on a tolerance.  Two entry points:

``solve_lp``
    two-phase simplex with a Bland fallback (termination guaranteed) for
    ``min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0`` on a condensed
    tableau (Chvatal, 1983) that stores only the nonbasic columns, so a pivot
    costs O(R * m), not O(R * (R + m)).  ``tests/lp_oracle.py`` keeps the
    dense tableau, which makes the same pivots, as the test oracle.

``simplex_polytope_vertices``
    exact vertex enumeration for polytopes of the form
    ``{x in standard simplex : a_j . x <= b_j}`` by double description
    (Motzkin et al., 1953): incremental halfspace insertion that crosses only
    adjacent vertex pairs, found by comparing tight-constraint bitsets.
    ``tests/lp_oracle.py`` keeps the rank-filter enumerator it replaced, which
    tests every crossing point by exact Gaussian elimination, as the oracle.

Float-mode callers convert their data to Fractions (the binary value of a
double is exact) and relax inequality right-hand sides by their tolerance
before calling in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

Row = Sequence[Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[tuple[Fraction, ...]]
    objective: Optional[Fraction]


def _pivot(
    tableau: list[list[Fraction]], basis: list[int], nonbasic: list[int], row: int, col: int
) -> None:
    """Exchange ``basis[row]`` with ``nonbasic[col]`` in place; the leaving
    variable takes over column ``col``."""
    prow = tableau[row]
    inv = _ONE / prow[col]
    for j, v in enumerate(prow):
        if v:
            prow[j] = v * inv
    prow[col] = inv
    nonzero = [(j, v) for j, v in enumerate(prow) if v and j != col]
    for r, trow in enumerate(tableau):
        factor = trow[col]
        if r == row or not factor:
            continue
        for j, p in nonzero:
            trow[j] -= factor * p
        trow[col] = -factor * inv
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], nonbasic: list[int]) -> str:
    """Minimize the objective encoded in the last tableau row.

    Dantzig's most-negative entering rule for speed; after a run of
    degenerate pivots the rule switches permanently to Bland's, which
    guarantees termination from any basis.  Ties go to the lowest variable
    index, wherever the variable sits in the condensed tableau.
    """
    obj = len(tableau) - 1
    costs = tableau[obj]  # pivots update rows in place
    ncols = len(costs) - 1
    index_of = nonbasic.__getitem__
    stalled = 0
    bland = False
    last_value = costs[-1]
    while True:
        if bland:
            enter = min((j for j in range(ncols) if costs[j] < 0), key=index_of, default=-1)
        else:
            most = min(costs[:ncols], default=_ZERO)
            enter = -1
            if most < 0:
                enter = min((j for j in range(ncols) if costs[j] == most), key=index_of)
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
        _pivot(tableau, basis, nonbasic, leave, enter)
        if not bland:
            value = costs[-1]
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
    """Exact two-phase simplex for ``min c.x, A_ub x <= b_ub, A_eq x = b_eq, x >= 0``.

    Variables are numbered structural, then one slack per inequality row,
    then one artificial per row whose slack cannot start basic.
    """
    n = len(c)
    width = n + len(a_ub)
    rows = [[Fraction(v) for v in arow] + [Fraction(b)] for arow, b in zip(a_ub, b_ub)]
    rows += [[Fraction(v) for v in arow] + [Fraction(b)] for arow, b in zip(a_eq, b_eq)]
    basis = [n + i for i in range(len(a_ub))] + [-1] * len(a_eq)
    flipped: list[int] = []
    # normalize to b >= 0 so artificial columns can form a feasible start
    for r, row in enumerate(rows):
        if row[-1] < 0:
            rows[r] = [-v for v in row]
            if basis[r] >= 0:
                flipped.append(r)
                basis[r] = -1
    # a flipped row's slack starts nonbasic with coefficient -1
    nonbasic = list(range(n)) + [n + i for i in flipped]
    for r, row in enumerate(rows):
        row[n:n] = [-_ONE if r == i else _ZERO for i in flipped]
    arts = [r for r in range(len(rows)) if basis[r] < 0]
    for k, r in enumerate(arts):
        basis[r] = width + k

    if arts:
        phase1 = [-sum(col) for col in zip(*(rows[r] for r in arts))]
        tableau = rows + [phase1]
        status = _run_simplex(tableau, basis, nonbasic)
        if status != "optimal" or tableau[-1][-1] != 0:
            return LpResult("infeasible", None, None)
        tableau.pop()
        # drive surviving artificials out of the basis or drop redundant rows
        drop: list[int] = []
        for r in range(len(rows)):
            if basis[r] >= width:
                row = rows[r]
                piv_col = min(
                    (j for j, v in enumerate(row[:-1]) if v and nonbasic[j] < width),
                    key=nonbasic.__getitem__,
                    default=-1,
                )
                if piv_col < 0:
                    drop.append(r)
                else:
                    _pivot(rows, basis, nonbasic, r, piv_col)
        for r in reversed(drop):
            rows.pop(r)
            basis.pop(r)
        keep = [j for j, var in enumerate(nonbasic) if var < width]
        if len(keep) < len(nonbasic):
            rows = [[row[j] for j in keep] + [row[-1]] for row in rows]
            nonbasic = [nonbasic[j] for j in keep]

    cost = [Fraction(v) for v in c]
    objective = [cost[var] if var < n else _ZERO for var in nonbasic] + [_ZERO]
    for r, row in enumerate(rows):
        coef = cost[basis[r]] if basis[r] < n else _ZERO
        if coef:
            objective = [v - coef * w for v, w in zip(objective, row)]
    tableau = rows + [objective]
    status = _run_simplex(tableau, basis, nonbasic)
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    x = [_ZERO] * n
    for r, row in enumerate(rows):
        if basis[r] < n:
            x[basis[r]] = row[-1]
    value = sum(ci * xi for ci, xi in zip(cost, x))
    return LpResult("optimal", tuple(x), value)


def feasible_point(
    a_ub: Sequence[Row], b_ub: Row, a_eq: Sequence[Row], b_eq: Row, nvars: int
) -> Optional[tuple[Fraction, ...]]:
    """A basic feasible point of the system, or None when infeasible."""
    res = solve_lp([_ZERO] * nvars, a_ub, b_ub, a_eq, b_eq)
    return res.x if res.status == "optimal" else None


def simplex_polytope_vertices(
    dim: int, constraints: Sequence[tuple[Row, Fraction]]
) -> list[tuple[Fraction, ...]]:
    """Exact vertex set of ``{x >= 0, sum x = 1, coeffs.x <= rhs for each constraint}``.

    Double description: starting from the unit vectors, each constraint keeps
    the vertices it does not cut off and adds the point where it crosses each
    edge between a kept and a cut vertex.  Every vertex carries the bitset of
    constraints tight at it (bit i for ``x_i >= 0``, bit ``dim + k`` for
    constraint k), and two vertices span an edge exactly when no third vertex
    is tight on every constraint they share (Fukuda & Prodon, 1996).  Distinct
    edges cross the new hyperplane at distinct points, so nothing repeats.
    Returns [] when the polytope is empty.
    """
    full = (1 << dim) - 1
    verts = [
        (tuple(_ONE if j == i else _ZERO for j in range(dim)), full ^ (1 << i))
        for i in range(dim)
    ]
    for k, (coeffs, rhs) in enumerate(constraints):
        bit = 1 << (dim + k)
        slacks = [rhs - sum(c * v for c, v in zip(coeffs, point)) for point, _ in verts]
        kept = [(p, z | bit if s == 0 else z) for (p, z), s in zip(verts, slacks) if s >= 0]
        pos = [(p, z, s) for (p, z), s in zip(verts, slacks) if s > 0]
        neg = [(p, z, s) for (p, z), s in zip(verts, slacks) if s < 0]
        tight = [z for _, z in verts]
        for u, zu, su in pos:
            for w, zw, sw in neg:
                common = zu & zw
                # an edge of a polytope in the (dim - 1)-dimensional simplex
                # lies on at least dim - 2 of its constraints
                if common.bit_count() < dim - 2:
                    continue
                # distinct vertices have distinct tight sets
                if any(z & common == common and z != zu and z != zw for z in tight):
                    continue
                t = su / (su - sw)
                kept.append((tuple(a + t * (b - a) for a, b in zip(u, w)), common | bit))
        if not kept:
            return []
        verts = kept
    return [p for p, _ in verts]
