"""Self-contained exact linear programming kernel.

Everything here is exact rational arithmetic, so feasibility answers never
depend on a tolerance.  Three entry points:

``minimize_each``
    two-phase simplex with a Bland fallback (termination guaranteed) for
    ``min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0`` on a condensed
    tableau (Chvatal, 1983) that stores only the nonbasic columns, so a pivot
    costs O(R * m), not O(R * (R + m)).  Each tableau row is a list of Python
    ints followed by one positive row denominator: entry j is
    ``row[j] / row[-1]`` and the right-hand side is ``row[-2]``.  Pivots are
    fraction-free (Edmonds, 1967; Bareiss, 1968): a row with f in the pivot
    column, against the pivot p, is scaled by ``p / gcd(f, p)`` and then
    divided by the gcd of its entries, or only copied when that scale is 1,
    and a row whose pivot-column entry is zero is left untouched.  Signs are
    read off numerators and the ratio test compares ``rhs / coef`` by
    cross-multiplication, so the pivots are those of a Fraction tableau.
    Phase 1 does not depend on the objective: it runs once, and each
    objective's phase 2 starts from a copy of its tableau.
    ``tests/lp_oracle.py`` keeps the dense Fraction tableau, which makes the
    same pivots, as the test oracle.

``solve_lp``
    the one-objective case of ``minimize_each``.

``simplex_polytope_vertices``
    exact vertex enumeration for polytopes of the form
    ``{x in standard simplex : a_j . x <= b_j}`` by double description
    (Motzkin et al., 1953): incremental halfspace insertion that crosses only
    adjacent vertex pairs, found by comparing tight-constraint bitsets.
    ``tests/lp_oracle.py`` keeps the rank-filter enumerator it replaced, which
    tests every crossing point by exact Gaussian elimination, as the oracle.

The simplex takes its constraints in the tableau's own row form, so no
Fraction sits between a caller's rows and the first pivot: ``a_ub[i]`` holds
row i's int numerators and ``b_ub[i]`` the pair (right-hand side numerator,
positive row denominator), and likewise for the equalities.  A row may be
over any common denominator; the kernel divides it by the gcd of its
entries.  Callers that hold int numerators build the rows from them; rows of
Fractions or floats go through ``int_rows``, which puts each row over its
least common denominator (the binary value of a double is exact).  Float
callers relax inequality right-hand sides by their tolerance first.  The
objectives may be ints, Fractions or floats and are converted the same way.
Points and objective values come back as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional, Sequence

Row = Sequence[Fraction]
#: Constraints in the kernel's row form: each row's int numerators, and its
#: (right-hand side, positive denominator).
IntRows = Sequence[Sequence[int]]
Tails = Sequence[tuple[int, int]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LpResult:
    def __init__(
        self, status: str, x: Optional[tuple[Fraction, ...]], objective: Optional[Fraction]
    ) -> None:
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.x = x
        self.objective = objective

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.status, self.x, self.objective) == (other.status, other.x, other.objective)

    def __hash__(self) -> int:
        return hash((self.status, self.x, self.objective))

    def __repr__(self) -> str:
        return f"LpResult(status={self.status!r}, x={self.x!r}, objective={self.objective!r})"


def _int_row(values: Row) -> list[int]:
    """The values as integer numerators followed by their least common
    denominator."""
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs] + [den]


def int_rows(a: Sequence[Row], b: Row) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """The constraints ``a[i] . x <= b[i]`` (or ``=``), with values of any
    exact or float type, in the kernel's row form."""
    rows = [_int_row([*arow, rhs]) for arow, rhs in zip(a, b)]
    return [row[:-2] for row in rows], [(row[-2], row[-1]) for row in rows]


def _reduced(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _pivot(
    tableau: list[list[int]], basis: list[int], nonbasic: list[int], row: int, col: int
) -> None:
    """Exchange ``basis[row]`` with ``nonbasic[col]``; the leaving variable
    takes over column ``col``.

    With the pivot row's signs flipped so that its numerator p at ``col`` is
    positive, and pden its (now possibly negative) denominator, the pivot row
    becomes its numerators with pden at ``col``, over p.  Every other row
    with numerators b, denominator d and f at ``col`` becomes, with
    g = gcd(f, p), ``b * (p/g) - (f/g) * a`` with ``-(f/g) * pden`` at
    ``col``, over ``d * (p/g)``: the same values as ``b * p - f * a`` over
    ``d * p``, on smaller ints.  When p/g is 1 that is a copy of the row
    updated in place, over its unchanged d; a row scaled by p/g > 1 is then
    divided by the gcd of its entries.  Changed rows are new lists, so a
    shallow copy of the tableau is an independent tableau.
    """
    prow = tableau[row]
    p = prow[col]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    pden = prow[-1]
    nonzero = [(j, v) for j, v in enumerate(prow[:-1]) if v and j != col]
    for r, trow in enumerate(tableau):
        f = trow[col]
        if r == row or not f:
            continue
        g = gcd(f, p)
        f, scale = f // g, p // g
        # at scale 1 the denominator stays as it was, so the copy is left
        # unreduced: a common factor can only divide that denominator, and
        # it goes at the row's next scaled update
        new = trow[:] if scale == 1 else [v * scale for v in trow]
        for j, a in nonzero:
            new[j] -= f * a
        new[col] = -f * pden
        tableau[r] = new if scale == 1 else _reduced(new)
    new = prow[:-1] + [p]
    new[col] = pden
    tableau[row] = _reduced(new)
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _run_simplex(tableau: list[list[int]], basis: list[int], nonbasic: list[int]) -> str:
    """Minimize the objective encoded in the last tableau row.

    Dantzig's most-negative entering rule for speed; after a run of
    degenerate pivots the rule switches permanently to Bland's, which
    guarantees termination from any basis.  Ties go to the lowest variable
    index, wherever the variable sits in the condensed tableau.
    """
    obj = len(tableau) - 1
    ncols = len(tableau[obj]) - 2
    index_of = nonbasic.__getitem__
    stalled = 0
    bland = False
    last_value, last_den = tableau[obj][-2:]
    while True:
        costs = tableau[obj]
        if bland:
            enter = min((j for j in range(ncols) if costs[j] < 0), key=index_of, default=-1)
        else:
            # one positive denominator: the least numerator is the least cost
            most = min(costs[:ncols], default=0)
            enter = -1
            if most < 0:
                enter = min((j for j in range(ncols) if costs[j] == most), key=index_of)
        if enter < 0:
            return "optimal"
        leave = -1
        best_rhs = best_coef = 0
        for r in range(obj):
            trow = tableau[r]
            coef = trow[enter]
            if coef > 0:
                # rhs / coef against best_rhs / best_coef; the row's
                # denominator cancels, and both coefficients are positive
                rhs = trow[-2]
                lhs, cut = rhs * best_coef, best_rhs * coef
                if leave < 0 or lhs < cut or (lhs == cut and basis[r] < basis[leave]):
                    best_rhs, best_coef = rhs, coef
                    leave = r
        if leave < 0:
            return "unbounded"
        _pivot(tableau, basis, nonbasic, leave, enter)
        if not bland:
            value, den = tableau[obj][-2:]
            if value * last_den == last_value * den:
                stalled += 1
                if stalled >= 32:
                    bland = True
            else:
                stalled = 0
                last_value, last_den = value, den


def _objective(
    cost: Callable[[int], int],
    den: int,
    rows: list[list[int]],
    basis: list[int],
    nonbasic: list[int],
) -> list[int]:
    """The tableau row of ``min sum_var cost(var) / den * var``: the nonbasic
    costs, less each row times its basic variable's cost."""
    objective = [cost(var) for var in nonbasic] + [0, den]
    for row, var in zip(rows, basis):
        k = cost(var)
        if k:
            d, od = row[-1], objective[-1]
            objective = _reduced(
                [v * den * d - k * w * od for v, w in zip(objective[:-1], row[:-1])]
                + [od * den * d]
            )
    return objective


def _phase1(
    n: int, a_ub: IntRows, b_ub: Tails, a_eq: IntRows, b_eq: Tails
) -> Optional[tuple[list[list[int]], list[int], list[int]]]:
    """A feasible basis for the constraints, as (rows, basis, nonbasic) with
    no artificial left, or None when the constraints are infeasible.

    Variables are numbered structural, then one slack per inequality row,
    then one artificial per row whose slack cannot start basic.
    """
    width = n + len(a_ub)
    rows = [_reduced([*arow, *tail]) for arow, tail in zip(a_ub, b_ub)]
    rows += [_reduced([*arow, *tail]) for arow, tail in zip(a_eq, b_eq)]
    basis = [n + i for i in range(len(a_ub))] + [-1] * len(a_eq)
    flipped: list[int] = []
    # normalize to b >= 0 so artificial columns can form a feasible start
    for r, row in enumerate(rows):
        if row[-2] < 0:
            row[:-1] = [-v for v in row[:-1]]
            if basis[r] >= 0:
                flipped.append(r)
                basis[r] = -1
    # a flipped row's slack starts nonbasic with coefficient -1
    nonbasic = list(range(n)) + [n + i for i in flipped]
    for r, row in enumerate(rows):
        row[n:n] = [-row[-1] if r == i else 0 for i in flipped]
    arts = [r for r in range(len(rows)) if basis[r] < 0]
    if not arts:
        return rows, basis, nonbasic
    for k, r in enumerate(arts):
        basis[r] = width + k

    # minimize the sum of the artificials
    tableau = rows + [_objective(lambda var: int(var >= width), 1, rows, basis, nonbasic)]
    status = _run_simplex(tableau, basis, nonbasic)
    if status != "optimal" or tableau[-1][-2] != 0:
        return None
    rows = tableau[:-1]
    # drive surviving artificials out of the basis or drop redundant rows
    drop: list[int] = []
    for r in range(len(rows)):
        if basis[r] >= width:
            row = rows[r]
            piv_col = min(
                (j for j, v in enumerate(row[:-2]) if v and nonbasic[j] < width),
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
        rows = [_reduced([row[j] for j in keep] + row[-2:]) for row in rows]
        nonbasic = [nonbasic[j] for j in keep]
    return rows, basis, nonbasic


def _phase2(c: Row, rows: list[list[int]], basis: list[int], nonbasic: list[int]) -> LpResult:
    """Minimize ``c.x`` from the feasible basis, which is left unchanged."""
    n = len(c)
    *cost, den = _int_row(c)
    objective = _objective(lambda var: cost[var] if var < n else 0, den, rows, basis, nonbasic)
    tableau = rows + [objective]
    basis = basis[:]
    status = _run_simplex(tableau, basis, nonbasic[:])
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    x = [_ZERO] * n
    for row, var in zip(tableau, basis):
        if var < n:
            x[var] = Fraction(row[-2], row[-1])
    value = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return LpResult("optimal", tuple(x), value)


def minimize_each(
    objectives: Sequence[Row],
    a_ub: IntRows,
    b_ub: Tails,
    a_eq: IntRows,
    b_eq: Tails,
) -> list[LpResult]:
    """``solve_lp`` for each objective, all of one length, over one region.

    Phase 1 runs once; every objective's phase 2 starts from its own copy of
    the phase-1 tableau, so each result is the one ``solve_lp`` returns alone.
    """
    if not objectives:
        return []
    start = _phase1(len(objectives[0]), a_ub, b_ub, a_eq, b_eq)
    if start is None:
        return [LpResult("infeasible", None, None) for _ in objectives]
    return [_phase2(c, *start) for c in objectives]


def solve_lp(
    c: Row,
    a_ub: IntRows,
    b_ub: Tails,
    a_eq: IntRows,
    b_eq: Tails,
) -> LpResult:
    """Exact two-phase simplex for ``min c.x, A_ub x <= b_ub, A_eq x = b_eq, x >= 0``,
    with the constraints in row form: row i of ``A_ub x <= b_ub`` is
    ``a_ub[i] . x <= rhs`` over den, for ``(rhs, den) = b_ub[i]``."""
    return minimize_each([c], a_ub, b_ub, a_eq, b_eq)[0]


def feasible_point(
    a_ub: IntRows, b_ub: Tails, a_eq: IntRows, b_eq: Tails, nvars: int
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
