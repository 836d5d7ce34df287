"""Known-answer checks on every report, run after the timed passes.

Each check compares a report with facts fixed when the document was
generated (see ``workloads.py``) or with an independent route written here:
a floating-point simplex for sharp bounds, an exact rank test for vertex
extremity, and the dominance inequalities of the updating model.  Library
calls (``check_rationalizes``, ``spec_contains``) are used only where they
test a reported point, never to produce the expected answer.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as F
from functools import cached_property
from typing import Any, Optional

from capid import schemas
from capid.capacity import GroundSet, Measure
from capid.identification import check_rationalizes
from capid.info_specs import spec_contains
from workloads import constraint_rows

#: Float-mode comparisons with the report, as in capid's float mode.
FLOAT_TOL = 1e-9
#: Margin for rounding a float-mode answer that sits on its FLOAT_TOL slack.
ROUNDING = 1e-12
#: Agreement required between reported bounds and the float simplex.
ORACLE_TOL = 1e-7


class Mismatch(Exception):
    """A report disagrees with its known answer."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def value(raw, exact: bool):
    return F(raw) if exact else float(raw)


def close(a, b, exact: bool, tol: float = FLOAT_TOL) -> bool:
    return a == b if exact else abs(a - b) <= tol


# ---------------------------------------------------------------------------
# independent routes
# ---------------------------------------------------------------------------

def _pivot(tab: list[list[float]], basic: list[int], nonbasic: list[int], r: int, s: int) -> None:
    """Exchange basic row r with nonbasic column s in the dictionary
    x_B = rhs - T x_N (last column holds rhs; last row is the objective)."""
    row = tab[r]
    p = row[s]
    new = [v / p for v in row]
    new[s] = 1.0 / p
    tab[r] = new
    for i, other in enumerate(tab):
        if i == r:
            continue
        f = other[s]
        if f:
            updated = [v - f * w for v, w in zip(other, new)]
            updated[s] = -f * new[s]
            tab[i] = updated
    basic[r], nonbasic[s] = nonbasic[s], basic[r]


def _simplex(tab, basic, nonbasic, eps=1e-12) -> bool:
    """Maximize with Bland's rule; False when unbounded."""
    while True:
        enter = min(
            (j for j in range(len(nonbasic)) if tab[-1][j] < -eps),
            key=lambda j: nonbasic[j],
            default=None,
        )
        if enter is None:
            return True
        leave, best = None, None
        for r in range(len(tab) - 1):
            a = tab[r][enter]
            if a > eps:
                ratio = tab[r][-1] / a
                if best is None or ratio < best - eps or (
                    ratio <= best + eps and basic[r] < basic[leave]
                ):
                    leave, best = r, ratio
        if leave is None:
            return False
        _pivot(tab, basic, nonbasic, leave, enter)


def lp_max(c: list[float], a: list[list[float]], b: list[float]) -> Optional[float]:
    """max c.y subject to a y <= b, y >= 0, by a two-phase float simplex in
    dictionary form; None when infeasible.  The feasible set is bounded."""
    k, rows = len(c), len(a)
    basic = list(range(k, k + rows))
    nonbasic = list(range(k)) + [k + rows]  # last column: phase-one variable
    tab = [list(row) + [-1.0, rhs] for row, rhs in zip(a, b)]
    tab.append([0.0] * k + [1.0, 0.0])  # maximize -x0
    worst = min(range(rows), key=lambda r: b[r])
    if b[worst] < 0:
        _pivot(tab, basic, nonbasic, worst, k)
        _simplex(tab, basic, nonbasic)
        if tab[-1][-1] < -1e-9:
            return None
    x0 = k + rows
    if x0 in basic:
        r = basic.index(x0)
        s = max(range(k + 1), key=lambda j: abs(tab[r][j]) if nonbasic[j] != x0 else -1.0)
        _pivot(tab, basic, nonbasic, r, s)
    col = nonbasic.index(x0)
    tab = [row[:col] + row[col + 1:] for row in tab]
    nonbasic.pop(col)
    objective = [0.0] * (len(nonbasic) + 1)
    for j, var in enumerate(nonbasic):
        if var < k:
            objective[j] -= c[var]
    for r, var in enumerate(basic):
        if var < k and c[var]:
            for j in range(len(objective)):
                objective[j] += c[var] * tab[r][j]
    tab[-1] = objective
    if not _simplex(tab, basic, nonbasic):
        raise Mismatch("oracle LP unbounded on a bounded polytope")
    return tab[-1][-1]


def oracle_bounds(rows: dict[tuple[F, ...], F], m: int) -> Optional[list[tuple[float, float]]]:
    """Sharp [min, max] of each Q(d) over {Q in simplex : coeffs.Q <= rhs}.

    Q_m is eliminated through sum Q = 1, leaving y = Q_1..Q_{m-1} >= 0 with
    sum y <= 1.  Returns None when the set is empty.
    """
    a, b = [], []
    for coeffs, rhs in rows.items():
        last = float(coeffs[-1])
        a.append([float(x) - last for x in coeffs[:-1]])
        b.append(float(rhs) - last)
    a.append([1.0] * (m - 1))
    b.append(1.0)
    out = []
    for d in range(m):
        pair = []
        for sign in (-1.0, 1.0):
            if d < m - 1:
                c = [0.0] * (m - 1)
                c[d] = sign
                best = lp_max(c, a, b)
                if best is None:
                    return None
                pair.append(sign * best)
            else:
                # Q_m = 1 - sum y
                best = lp_max([-sign] * (m - 1), a, b)
                if best is None:
                    return None
                pair.append(sign * (sign + best))
        out.append((pair[0], pair[1]))
    return out


def rank(rows: list[list[F]]) -> int:
    mat = [r[:] for r in rows]
    found = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(found, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[found], mat[piv] = mat[piv], mat[found]
        for r in range(len(mat)):
            if r != found and mat[r][col] != 0:
                f = mat[r][col] / mat[found][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[found])]
        found += 1
    return found


def is_extreme(point: tuple[F, ...], rows: dict[tuple[F, ...], F]) -> bool:
    """Active normals, the zero coordinates and sum Q = 1 have full rank."""
    m = len(point)
    active = [[F(1)] * m]
    active += [[F(int(i == j)) for j in range(m)] for i in range(m) if point[i] == 0]
    active += [list(c) for c, rhs in rows.items() if sum(x * y for x, y in zip(c, point)) == rhs]
    return rank(active) == m


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

class DocContext:
    """Lazily computed, per-document helpers shared by its queries."""

    def __init__(self, doc) -> None:
        self.doc = doc
        self.facts = doc.facts
        self._problem: dict[bool, Any] = {}

    def problem(self, exact: bool):
        if exact not in self._problem:
            self._problem[exact] = schemas.parse_problem(json.loads(self.doc.text), exact).problem
        return self._problem[exact]

    @cached_property
    def rows(self) -> dict:
        return constraint_rows(self.facts["caps"], list(self.facts["lam"]))

    @cached_property
    def bounds(self) -> Optional[list[tuple[float, float]]]:
        return oracle_bounds(self.rows, len(self.facts["ids"]))


def q_measure(problem, raw: dict, exact: bool) -> Measure:
    ids = [r.rule_id for r in problem.rules]
    expect(set(raw) == set(ids), "Q names other rules")
    return Measure(problem.rule_ground(), tuple(value(raw[rid], exact) for rid in ids))


def rationalizes(ctx: DocContext, raw_q: dict, exact: bool) -> None:
    problem = ctx.problem(exact)
    q = q_measure(problem, raw_q, exact)
    if exact:
        expect(check_rationalizes(problem, q).rationalizes, "reported Q fails the dominance check")
        return
    # capid's float LP relaxes every row by FLOAT_TOL and may return a point on
    # that relaxed boundary, which its own float check can reject by a rounding
    # error; so the float contract is checked here in exact arithmetic
    caps, lam = ctx.facts["caps"], ctx.facts["lam"]
    weights = [F(w) for w in q.weights]
    worst = max(
        sum(w * c[mask] for w, c in zip(weights, caps))
        - sum(x for i, x in enumerate(lam) if mask >> i & 1)
        for mask in range(len(caps[0]))
    )
    expect(worst <= FLOAT_TOL + ROUNDING, "reported Q violates a dominance row beyond the float slack")


def check_q_echo(raw: dict, facts: dict, exact: bool) -> None:
    for rid, w in facts["q_star"].items():
        expect(close(value(raw[rid], exact), w if exact else float(w), exact), "Q* echoed wrongly")


def check_exists(ctx, res, exact):
    expect(res["feasible"] == ctx.facts["feasible"], "feasibility differs from construction")
    if res["feasible"]:
        rationalizes(ctx, res["q"], exact)


def check_check(ctx, res, exact):
    check_q_echo(res["q"], ctx.facts, exact)
    verdict = res["verdict"]
    expect(verdict["rationalizes"] == ctx.facts["feasible"], "verdict at Q* differs from construction")
    expect((verdict["violation_count"] == 0) == verdict["rationalizes"], "violation count disagrees")


def check_bounds(ctx, res, exact):
    expect(res["feasible"] == ctx.facts["feasible"], "feasibility differs from construction")
    oracle = ctx.bounds
    if not res["feasible"]:
        expect(oracle is None, "oracle finds a nonempty set")
        return
    expect(oracle is not None, "oracle finds an empty set")
    for d, rid in enumerate(ctx.facts["ids"]):
        lo, hi = (value(res["bounds"][rid][k], exact) for k in ("min", "max"))
        star = ctx.facts["q_star"][rid]
        slack = 0 if exact else FLOAT_TOL
        expect(F(lo) - slack <= star <= F(hi) + slack, f"bounds of {rid} miss Q*")
        expect(abs(float(lo) - oracle[d][0]) <= ORACLE_TOL, f"min of {rid} is not sharp")
        expect(abs(float(hi) - oracle[d][1]) <= ORACLE_TOL, f"max of {rid} is not sharp")


def check_witness(ctx, res, exact):
    facts = ctx.facts
    check_q_echo(res["q"], facts, exact)
    expect(res["verdict"]["rationalizes"] == facts["feasible"], "verdict at Q* differs from construction")
    if not facts["feasible"]:
        expect(res["witness"] is None, "witness for an unrationalizable Q")
        return
    ground: GroundSet = facts["ground"]
    witness = res["witness"]
    expect(set(witness) == set(facts["ids"]), "witness misses a rule with positive weight")
    mixed = [F(0)] * ground.size
    for d, rid in enumerate(facts["ids"]):
        weights = [F(0)] * ground.size
        for label, w in witness[rid].items():
            weights[ground.index(label)] = value(w, exact)
        rho = Measure(ground, tuple(weights))
        expect(spec_contains(facts["specs"][d], rho), f"witness of {rid} leaves its credal set")
        for i, w in enumerate(weights):
            mixed[i] += facts["q_star"][rid] * w
    expect(tuple(mixed) == facts["lam"], "witness does not mix back to the data")
    if "menus" in facts:
        for d, rid in enumerate(facts["ids"]):
            induced = [F(0)] * ground.size
            for key, w in res["menu_measures"][rid].items():
                menu = ground.mask_of(key.split(","))
                j = facts["menus"].index(menu)
                induced[ground.index(facts["choices"][d][j])] += F(w)
            expect(
                all(induced[ground.index(l)] == F(w) for l, w in witness[rid].items())
                and sum(induced) == 1,
                f"menu measure of {rid} does not induce its witness",
            )


def check_menu_homog(ctx, res, exact):
    facts = ctx.facts
    ground: GroundSet = facts["ground"]
    expect(res["feasible"], "menu-homogeneous restriction infeasible at Q*")
    pi = [F(0)] * len(facts["menus"])
    for key, w in res["pi"].items():
        pi[facts["menus"].index(ground.mask_of(key.split(",")))] = F(w)
    expect(sum(pi) == 1 and min(pi) >= 0, "pi is not a distribution")
    induced = [F(0)] * ground.size
    for d, rid in enumerate(facts["ids"]):
        for j, label in enumerate(facts["choices"][d]):
            induced[ground.index(label)] += facts["q_star"][rid] * pi[j]
    expect(tuple(induced) == facts["lam"], "pi does not reproduce the data")


def check_vertices(ctx, res, exact):
    facts = ctx.facts
    expect(res["feasible"], "vertex set empty on a rationalizable problem")
    verts = res["vertices"]
    expect(res["count"] == len(verts), "count disagrees with the listed vertices")
    ids = facts["ids"]
    points = [tuple(F(v[rid]) for rid in ids) for v in verts]
    expect(len(set(points)) == len(points), "duplicate vertices")
    rows = ctx.rows
    for v in verts:
        rationalizes(ctx, v, True)
    for p in points:
        expect(is_extreme(p, rows), "a listed point is not a vertex")
    oracle = ctx.bounds
    for d, rid in enumerate(ids):
        lo, hi = min(p[d] for p in points), max(p[d] for p in points)
        expect(lo <= facts["q_star"][rid] <= hi, f"vertex range of {rid} misses Q*")
        expect(abs(float(lo) - oracle[d][0]) <= ORACLE_TOL
               and abs(float(hi) - oracle[d][1]) <= ORACLE_TOL,
               f"vertex range of {rid} is not the sharp bound: a vertex is missing")


def check_audit(ctx, res, exact):
    facts = ctx.facts
    n = facts["n"]
    expect(res["convex"] == facts["convex"], "convexity flag disagrees with the construction")
    expect(res["belief_function"] == facts["belief"], "belief-function flag disagrees")
    count = res["core_vertex_count"]
    if not facts["convex"]:
        expect(count is None, "vertex count for a non-convex capacity")
    elif facts["vertex_count"] is not None:
        expect(count == facts["vertex_count"], "core vertex count disagrees with the construction")
    else:
        expect(1 <= count <= math.factorial(n), "core vertex count out of range")
    labels = res["capacity"]["labels"]
    values = res["capacity"]["values"]
    expect(len(values) == 1 << n, "capacity echo is not dense")
    for mask, want in enumerate(facts["values"]):
        key = ",".join(l for i, l in enumerate(labels) if mask >> i & 1)
        expect(F(values[key]) == want, "capacity echo differs from the construction")


def check_kappa(ctx, res, exact):
    facts = ctx.facts
    expect(F(res["kappa_floor"]) == facts["floor"], "kappa floor differs from -nu(0)/(1-nu(0))")
    expect(res["interval"] is not None, "no rationalizing bias although kappa* rationalizes")
    lo, hi = F(res["interval"]["lo"]), F(res["interval"]["hi"])
    kappa = facts["kappa"]
    expect(lo <= kappa <= hi, "kappa* outside the reported interval")
    expect(res["at_kappa"]["verdict"]["rationalizes"], "verdict at kappa* fails")
    expect(bias_rationalizes(facts, lo) and bias_rationalizes(facts, hi),
           "an interval end does not rationalize the data")
    want = "bayesian-feasible" if lo <= 0 <= hi else "underreaction" if lo > 0 else "overreaction"
    expect(res["diagnosis"] == want, "diagnosis disagrees with the interval")


def bias_rationalizes(facts: dict, kappa: F) -> bool:
    """lam(K) >= (1 - kappa) nu(K) + kappa [prior in K] on every subset."""
    lam, nu, null = facts["lam"], facts["nu"], facts["null"]
    for mask in range(len(nu)):
        mass = sum(w for i, w in enumerate(lam) if mask >> i & 1)
        if mass < (1 - kappa) * nu[mask] + (kappa if mask >> null & 1 else 0):
            return False
    return True


def check_simulate(ctx, report):
    facts = ctx.facts
    ground: GroundSet = facts["ground"]
    for rid, w in facts["q"].items():
        expect(F(report["q"][rid]) == w, "Q echoed wrongly")
    lam = [F(0)] * ground.size
    for label, w in report["lambda"].items():
        lam[ground.index(label)] = F(w)
    mixed = [F(0)] * ground.size
    for d, rid in enumerate(facts["ids"]):
        weights = [F(0)] * ground.size
        for label, w in report["synthesis"]["witness"][rid].items():
            weights[ground.index(label)] = F(w)
        expect(spec_contains(facts["specs"][d], Measure(ground, tuple(weights))),
               f"synthesized choice distribution of {rid} leaves its credal set")
        for i, w in enumerate(weights):
            mixed[i] += facts["q"][rid] * w
    expect(mixed == lam, "synthesized data is not the Q-mixture of the draws")


def check_simulated_exists(ctx, res, exact):
    expect(res["feasible"], "simulated data is not rationalizable")
    rationalizes(ctx, res["q"], exact)


CHECKS = {
    "exists": check_exists,
    "check": check_check,
    "bounds": check_bounds,
    "witness": check_witness,
    "menu-homog": check_menu_homog,
    "vertices": check_vertices,
    "capacity-audit": check_audit,
    "identify-kappa": check_kappa,
}


def check_report(ctx: DocContext, query, text: str, docs) -> None:
    report = json.loads(text)
    exact = query.mode == "exact"
    expect(report.get("command") == query.command and report.get("mode") == query.mode,
           "report header names another command or mode")
    if query.command == "simulate":
        expect(text.encode() == docs[query.doc + 1].text, "simulation is not reproducible")
        check_simulate(ctx, report)
        return
    res = report["result"]
    if ctx.doc.kind == "simulated":
        check_simulated_exists(ctx, res, exact)
        return
    CHECKS[query.command](ctx, res, exact)


def check_all(docs, queries, outcomes) -> list[list[Optional[str]]]:
    """One verdict per outcome: None when correct, else a short reason."""
    contexts: dict[int, DocContext] = {}
    verdicts = []
    for qi, query in enumerate(queries):
        ctx = contexts.setdefault(query.doc, DocContext(docs[query.doc]))
        first = outcomes[qi][0]
        first_reason = reason(ctx, query, first, docs)
        row = [first_reason]
        for out in outcomes[qi][1:]:
            if out.error is None and out.code == first.code and out.text == first.text:
                row.append(first_reason)
            else:
                row.append(reason(ctx, query, out, docs) or f"{query.command}: report changed between passes")
        verdicts.append(row)
    return verdicts


def reason(ctx, query, out, docs) -> Optional[str]:
    if out.error is not None:
        return f"{query.command}: uncaught {out.error}"
    if out.code != 0:
        return f"{query.command}: exit {out.code}"
    try:
        check_report(ctx, query, out.text, docs)
    except Mismatch as exc:
        return f"{query.command}: {exc}"
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"{query.command}: malformed report ({type(exc).__name__}: {exc})"
    return None
