"""Seeded input documents for the benchmark, each with its known answer.

Every document is built from quantities whose answer is known by
construction, never from the engine's own output:

* identification problems draw one choice distribution per rule inside the
  rule's credal set (confirmed with ``spec_contains``, which does not go
  through ``build_capacity``) and set the data to the Q*-mixture of the draws,
  so Q* rationalizes the data; a few documents then move a little data mass
  onto a label no rule can choose, which makes the identified set empty;
* menu documents derive every rule's choices from a preference order and the
  data from one menu distribution shared by all rules, so the
  menu-homogeneous restriction is feasible at Q*;
* updating documents mix a core member of a belief-function experiment
  capacity with the prior point mass at a known average bias kappa* at or
  above the model floor;
* audited capacities are built so that their convexity, belief-function and
  core-vertex facts follow from the construction.

``build(workload, seed)`` returns the workload's documents and its query
list.  The same seed gives byte-identical documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Any, Optional

from capid.capacity import GroundSet, Measure
from capid.info_specs import (
    Contamination,
    Ignorance,
    InfoSpec,
    IntervalBelief,
    VariationNeighborhood,
    spec_contains,
)

FAMILIES = ("ignorance", "contamination", "variation-neighborhood", "interval-belief")
LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Doc:
    """One input document: its bytes plus everything the gate needs."""

    name: str
    text: bytes
    kind: str
    facts: dict[str, Any] = field(default_factory=dict)


@dataclass
class Query:
    """One CLI invocation on one document; every query should exit 0."""

    doc: int
    command: str
    mode: str = "exact"
    q: Optional[str] = None
    kappa: Optional[str] = None

    def argv(self, path: str) -> list[str]:
        out = [self.command, "--input", path, "--mode", self.mode]
        if self.q is not None:
            out.append("--q=" + self.q)
        if self.kappa is not None:
            # the "=" form keeps a negative value from reading as an option
            out.append("--kappa=" + self.kappa)
        return out


def num(x: F) -> str:
    return str(F(x))


def dumps(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1) + "\n").encode()


# ---------------------------------------------------------------------------
# random rationals
# ---------------------------------------------------------------------------

def _units(rng: random.Random, k: int, lo: int = 0, hi: int = 12) -> list[int]:
    units = [rng.randint(lo, hi) for _ in range(k)]
    if sum(units) == 0:
        units[rng.randrange(k)] = 1
    return units


def random_measure(rng: random.Random, ground: GroundSet, carrier: int) -> Measure:
    idx = [i for i in range(ground.size) if carrier >> i & 1]
    units = _units(rng, len(idx))
    total = sum(units)
    weights = [F(0)] * ground.size
    for i, u in zip(idx, units):
        weights[i] = F(u, total)
    return Measure(ground, tuple(weights), carrier)


def mix(a: Measure, b: Measure, t: F) -> Measure:
    """(1 - t) a + t b."""
    weights = tuple((1 - t) * x + t * y for x, y in zip(a.weights, b.weights))
    return Measure(a.ground, weights, a.carrier)


def random_mask(rng: random.Random, n: int, size: int, allowed: Optional[int] = None) -> int:
    pool = [i for i in range(n) if allowed is None or allowed >> i & 1]
    mask = 0
    for i in rng.sample(pool, min(size, len(pool))):
        mask |= 1 << i
    return mask


# ---------------------------------------------------------------------------
# specifications and draws inside their credal sets
# ---------------------------------------------------------------------------

def random_spec(rng: random.Random, ground: GroundSet, family: str, carrier: int) -> InfoSpec:
    if family == "ignorance":
        return Ignorance(ground, carrier)
    if family == "contamination":
        focal = random_measure(rng, ground, carrier)
        return Contamination(ground, carrier, focal, F(rng.randint(1, 7), 8))
    if family == "variation-neighborhood":
        ref = random_measure(rng, ground, carrier)
        return VariationNeighborhood(ground, carrier, ref, F(rng.randint(1, 10), 20))
    if family == "interval-belief":
        focal = random_measure(rng, ground, carrier)
        shrink = F(rng.randint(1, 9), 10)
        grow = 1 + F(rng.randint(1, 10), 10)
        bump = F(rng.randint(0, 4), 20)
        lower = tuple(shrink * w for w in focal.weights)
        upper = tuple(
            grow * w + (bump if carrier >> i & 1 else F(0))
            for i, w in enumerate(focal.weights)
        )
        return IntervalBelief(ground, carrier, lower, upper)
    raise ValueError(family)


def draw_member(rng: random.Random, spec: InfoSpec) -> Measure:
    """A choice distribution inside the specification's credal set."""
    ground, carrier = spec.ground, spec.carrier
    free = random_measure(rng, ground, carrier)
    if isinstance(spec, Ignorance):
        rho = free
    elif isinstance(spec, Contamination):
        rho = mix(spec.rho_hat, free, spec.epsilon)
    elif isinstance(spec, VariationNeighborhood):
        # (1-t) ref + t p is within total variation t <= epsilon of ref
        rho = mix(spec.reference, free, spec.epsilon * F(rng.randint(0, 4), 4))
    elif isinstance(spec, IntervalBelief):
        # a point of the box [lower, upper], slid toward a box corner whose
        # total sits on the other side of 1 until the total is exactly 1
        idx = [i for i in range(ground.size) if carrier >> i & 1]
        point = list(spec.lower)
        for i in idx:
            point[i] += F(rng.randint(0, 8), 8) * (spec.upper[i] - spec.lower[i])
        total = sum(point)
        corner = spec.upper if total < 1 else spec.lower
        corner_total = sum(corner)
        t = (1 - total) / (corner_total - total) if corner_total != total else F(0)
        rho = Measure(
            ground,
            tuple(p + t * (c - p) for p, c in zip(point, corner)),
            carrier,
        )
    else:
        raise ValueError(type(spec).__name__)
    if not spec_contains(spec, rho):
        raise AssertionError(f"draw outside its {spec.tag} credal set")
    return rho


def spec_json(spec: InfoSpec) -> dict[str, Any]:
    labels = spec.ground.labels

    def vec(values) -> dict[str, str]:
        return {labels[i]: num(v) for i, v in enumerate(values) if v != 0}

    out: dict[str, Any] = {"tag": spec.tag}
    if isinstance(spec, Contamination):
        out["params"] = {"rho_hat": vec(spec.rho_hat.weights), "epsilon": num(spec.epsilon)}
    elif isinstance(spec, VariationNeighborhood):
        out["params"] = {"reference": vec(spec.reference.weights), "epsilon": num(spec.epsilon)}
    elif isinstance(spec, IntervalBelief):
        out["params"] = {"lower": vec(spec.lower), "upper": vec(spec.upper)}
    return out


def capacity_values(spec: InfoSpec) -> list[F]:
    """The specification's lower probability on every subset, from its own
    closed form; used for known answers instead of ``build_capacity``."""
    ground, carrier = spec.ground, spec.carrier
    out = []
    for mask in ground.masks():
        inner = mask & carrier
        whole = F(1 if inner == carrier else 0)
        if isinstance(spec, Ignorance):
            out.append(whole)
        elif isinstance(spec, Contamination):
            out.append((1 - spec.epsilon) * spec.rho_hat.mass(inner) + spec.epsilon * whole)
        elif isinstance(spec, VariationNeighborhood):
            out.append(whole or max(spec.reference.mass(inner) - spec.epsilon, F(0)))
        elif isinstance(spec, IntervalBelief):
            excess = IntervalBelief._sum(spec.upper, carrier) - 1
            out.append(max(
                IntervalBelief._sum(spec.lower, inner),
                IntervalBelief._sum(spec.upper, inner) - excess,
            ))
        else:
            raise ValueError(type(spec).__name__)
    return out


def constraint_rows(caps: list[list[F]], lam: list[F]) -> dict[tuple[F, ...], F]:
    """Dominance rows ``coeffs . Q <= lam(K)``: nonzero coefficient vectors,
    each with the smallest data mass among the subsets that share it."""
    n_masks = len(caps[0])
    mass = [F(0)] * n_masks
    for mask in range(1, n_masks):
        low = mask & -mask
        mass[mask] = mass[mask ^ low] + lam[low.bit_length() - 1]
    rows: dict[tuple[F, ...], F] = {}
    for mask in range(n_masks):
        coeffs = tuple(c[mask] for c in caps)
        if any(coeffs) and (coeffs not in rows or mass[mask] < rows[coeffs]):
            rows[coeffs] = mass[mask]
    return rows


def mobius(values: list[F], n: int) -> list[F]:
    """Moebius masses by the fast subset transform."""
    mass = list(values)
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                mass[mask] -= mass[mask ^ bit]
    return mass


def zeta(mass: list[F], n: int) -> list[F]:
    """Inverse of ``mobius``: subset sums of the masses."""
    values = list(mass)
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                values[mask] += values[mask ^ bit]
    return values


# ---------------------------------------------------------------------------
# identification problems
# ---------------------------------------------------------------------------

def random_q(rng: random.Random, ids: list[str]) -> dict[str, F]:
    units = _units(rng, len(ids), lo=1, hi=10)
    total = sum(units)
    return {rid: F(u, total) for rid, u in zip(ids, units)}


def problem_doc(
    rng: random.Random,
    labels: list[str],
    carrier_sizes: list[int],
    families: list[str],
    infeasible: bool = False,
) -> tuple[dict, dict]:
    """A carrier-declared problem rationalized by a known Q*.

    With ``infeasible`` every carrier avoids the last label and the data puts
    1/40 of its mass there, which no rule can produce: the identified set is
    empty.
    """
    ground = GroundSet(tuple(labels))
    n = ground.size
    allowed = ground.full_mask >> 1 if infeasible else ground.full_mask
    ids = [f"r{d}" for d in range(len(carrier_sizes))]
    specs, rhos = [], []
    for size, family in zip(carrier_sizes, families):
        carrier = random_mask(rng, n, size, allowed)
        spec = random_spec(rng, ground, family, carrier)
        specs.append(spec)
        rhos.append(draw_member(rng, spec))
    q_star = random_q(rng, ids)
    lam = [sum(q_star[rid] * rho.weights[i] for rid, rho in zip(ids, rhos)) for i in range(n)]
    if infeasible:
        shift = F(1, 40)
        lam = [(1 - shift) * w for w in lam]
        lam[n - 1] += shift
    doc = {
        "schema": "capid/1",
        "labels": list(ground.labels),
        "lambda": {ground.labels[i]: num(w) for i, w in enumerate(lam) if w != 0},
        "rules": [
            {
                "id": rid,
                "carrier": list(ground.labels_of(spec.carrier)),
                "info_spec": spec_json(spec),
            }
            for rid, spec in zip(ids, specs)
        ],
        "options": {},
    }
    facts = {
        "ground": ground,
        "ids": ids,
        "specs": specs,
        "lam": tuple(lam),
        "q_star": q_star,
        "feasible": not infeasible,
    }
    return doc, _with_rows(facts)


def _with_rows(facts: dict) -> dict:
    facts["caps"] = [capacity_values(spec) for spec in facts["specs"]]
    facts["rows"] = len(constraint_rows(facts["caps"], list(facts["lam"])))
    return facts


def menu_doc(rng: random.Random, labels: list[str], m: int, n_menus: int) -> tuple[dict, dict]:
    """Maximizers of random preference orders over shared menus.

    The data is induced by one menu distribution pi shared by every rule, so
    Q* rationalizes it and the menu-homogeneous restriction is feasible at Q*.
    """
    ground = GroundSet(tuple(labels))
    n = ground.size
    menus: list[list[str]] = []
    while len(menus) < n_menus:
        menu = sorted(rng.sample(labels, rng.randint(2, n)), key=labels.index)
        if menu not in menus:
            menus.append(menu)
    ids = [f"r{d}" for d in range(m)]
    orders = [rng.sample(labels, n) for _ in ids]
    choices = [[next(l for l in order if l in menu) for menu in menus] for order in orders]
    pi = _units(rng, n_menus, lo=1, hi=9)
    pi = [F(u, sum(pi)) for u in pi]
    specs, rhos = [], []
    for picks in choices:
        weights = [F(0)] * n
        for j, label in enumerate(picks):
            weights[labels.index(label)] += pi[j]
        carrier = ground.mask_of(picks)
        rho = Measure(ground, tuple(weights), carrier)
        spec = Ignorance(ground, carrier)
        if not spec_contains(spec, rho):
            raise AssertionError("induced distribution outside its carrier")
        specs.append(spec)
        rhos.append(rho)
    q_star = random_q(rng, ids)
    lam = [sum(q_star[rid] * rho.weights[i] for rid, rho in zip(ids, rhos)) for i in range(n)]
    doc = {
        "schema": "capid/1",
        "labels": labels,
        "lambda": {labels[i]: num(w) for i, w in enumerate(lam) if w != 0},
        "rules": [
            {
                "id": rid,
                "menus": menus,
                "choices": {str(j): c for j, c in enumerate(picks)},
                "info_spec": {"tag": "ignorance"},
            }
            for rid, picks in zip(ids, choices)
        ],
        "options": {},
    }
    facts = {
        "ground": ground,
        "ids": ids,
        "specs": specs,
        "lam": tuple(lam),
        "q_star": q_star,
        "feasible": True,
        "menus": [ground.mask_of(menu) for menu in menus],
        "choices": choices,
    }
    return doc, _with_rows(facts)


def q_arg(q: dict[str, F]) -> str:
    return json.dumps({rid: num(w) for rid, w in q.items()})


# ---------------------------------------------------------------------------
# capacities for capacity-audit, updating models, simulation inputs
# ---------------------------------------------------------------------------

def random_masses(rng: random.Random, n: int, focal: list[int]) -> list[F]:
    units = _units(rng, len(focal), lo=1, hi=9)
    mass = [F(0)] * (1 << n)
    for mask, u in zip(focal, units):
        mass[mask] += F(u, sum(units))
    return mass


def capacity_doc(labels: list[str], values: list[F]) -> dict:
    keys = [",".join(l for i, l in enumerate(labels) if mask >> i & 1) for mask in range(len(values))]
    return {
        "schema": "capid/1",
        "capacity": {"labels": labels, "values": {k: num(v) for k, v in zip(keys, values)}},
    }


def audit_doc(rng: random.Random, labels: list[str], kind: str) -> tuple[dict, dict]:
    """A full-carrier capacity whose audit flags follow from its construction.

    ``mobius``: random nonnegative masses, so a belief function (hence
    convex); ``blocks``: masses on disjoint focal sets, whose core has exactly
    the product of the block sizes as vertices; a family name: that
    specification on the full carrier; ``nonconvex``: half a probability plus
    half of min(1, |K|/(n-2)), which breaks supermodularity on two
    (n-2)-sets meeting in n-3 labels.
    """
    ground = GroundSet(tuple(labels))
    n = ground.size
    full = ground.full_mask
    facts: dict[str, Any] = {"n": n, "kind": kind, "convex": True, "vertex_count": None}
    if kind == "mobius":
        focal = [rng.randint(1, full) for _ in range(rng.randint(3, 9))]
        values = zeta(random_masses(rng, n, focal), n)
        doc = capacity_doc(labels, values)
    elif kind == "blocks":
        order = rng.sample(range(n), n)
        blocks, start = [], 0
        while start < n:
            size = rng.randint(1, 3)
            blocks.append(sum(1 << i for i in order[start:start + size]))
            start += size
        values = zeta(random_masses(rng, n, blocks), n)
        doc = capacity_doc(labels, values)
        facts["vertex_count"] = 1
        for block in blocks:
            facts["vertex_count"] *= block.bit_count()
    elif kind == "nonconvex":
        p = random_measure(rng, ground, full)
        values = [
            (p.mass(mask) + min(F(1), F(mask.bit_count(), n - 2))) / 2
            for mask in ground.masks()
        ]
        doc = capacity_doc(labels, values)
        facts["convex"] = False
    else:
        spec = random_spec(rng, ground, kind, full)
        values = capacity_values(spec)
        doc = {"schema": "capid/1", "labels": labels, "info_spec": spec_json(spec)}
        if kind in ("ignorance", "contamination"):
            # vertices are (1-eps) rho_hat + eps * point mass, one per label
            facts["vertex_count"] = n
    belief = all(m >= 0 for m in mobius(values, n))
    if kind in ("mobius", "blocks", "ignorance", "contamination") and not belief:
        raise AssertionError(f"{kind} capacity is not a belief function")
    facts.update(values=values, belief=belief and facts["convex"])
    return doc, facts


def updating_doc(rng: random.Random, k: int, shift: int) -> tuple[dict, dict]:
    """Posterior odds generated at a known average bias kappa*.

    The experiment capacity is a belief function on the recentred grid; a
    random allocation of each focal mass inside its focal set is a core
    member, and kappa* is drawn at or above the model floor
    -nu(0) / (1 - nu(0)).
    """
    values_grid = [v + shift for v in sorted(rng.sample(range(-4, 6), k))]
    prior = rng.choice(values_grid)
    null = values_grid.index(prior)
    full = (1 << k) - 1
    informative = full & ~(1 << null)
    focal = [random_mask(rng, k, rng.randint(1, k - 1), informative)]
    focal += [rng.randint(1, full) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.5:
        focal.append(1 << null)
    mass = random_masses(rng, k, focal)
    nu = zeta(mass, k)
    nu0 = nu[1 << null]
    floor = -nu0 / (1 - nu0)
    experiment = [F(0)] * k
    for mask in range(1, 1 << k):
        if mass[mask]:
            members = [i for i in range(k) if mask >> i & 1]
            experiment[rng.choice(members)] += mass[mask]
    kappa = floor + F(rng.randint(0, 6), 8) * (1 - floor)
    lam = [(1 - kappa) * w for w in experiment]
    lam[null] += kappa
    grid_keys = [num(v) for v in values_grid]
    shifted = [num(v - prior) for v in values_grid]
    doc = {
        "schema": "capid/1",
        "grid": grid_keys,
        "prior": num(prior),
        "experiment_capacity": capacity_doc(shifted, nu)["capacity"],
        "lambda": {grid_keys[i]: num(w) for i, w in enumerate(lam) if w != 0},
    }
    return doc, {"k": k, "kappa": kappa, "floor": floor, "lam": lam, "nu": nu, "null": null}


def simulation_doc(rng: random.Random, labels: list[str], m: int, seed: int) -> tuple[dict, dict]:
    ground = GroundSet(tuple(labels))
    n = ground.size
    ids = [f"r{d}" for d in range(m)]
    specs = []
    for _ in ids:
        carrier = random_mask(rng, n, rng.randint(2, n))
        specs.append(random_spec(rng, ground, rng.choice(FAMILIES), carrier))
    q = random_q(rng, ids)
    doc = {
        "schema": "capid/1",
        "labels": list(ground.labels),
        "rules": [
            {"id": rid, "carrier": list(ground.labels_of(spec.carrier)), "info_spec": spec_json(spec)}
            for rid, spec in zip(ids, specs)
        ],
        "q": {rid: num(w) for rid, w in q.items()},
        "seed": seed,
    }
    return doc, {"ground": ground, "ids": ids, "specs": specs, "q": q}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

#: Row-count bands of the identify mix: (lowest, highest rows kept, documents,
#: labels range, rules range, chance of an ignorance rule).  The band caps the
#: per-query cost at the seed commit to a few seconds; bounds on 200 rows
#: takes 8 to 23 s there.
IDENTIFY_BANDS = (
    (5, 20, 14, (6, 9), (3, 6), 0.8),
    (21, 45, 3, (6, 8), (3, 6), 0.5),
    (46, 80, 1, (6, 8), (3, 5), 0.2),
    (81, 120, 1, (9, 9), (3, 3), 0.0),
)
#: The band of the documents whose data is moved off the identified set.
IDENTIFY_INFEASIBLE = (5, 20, 2, (6, 9), (3, 6), 0.8)
IDENTIFY_MENUS = 3
#: Every FLOAT_EVERY-th feasible carrier document of the first two bands is
#: replayed in float mode.
FLOAT_EVERY = 3

#: Vertex-enumeration mix: (rules, documents, most rows kept).
VERTEX_MIX = ((3, 92, 60), (4, 14, 30), (5, 4, 25), (6, 1, 15))

#: capacity-audit mix: (labels, kind) pairs.  A convex capacity on 8 labels
#: costs about 4 s at the first benchmarked commit (8! orderings); only the
#: non-convex one, which exits the convexity test early, stays in the mix.
AUDIT_MIX = (
    [(7, k) for k in ("blocks", "variation-neighborhood")]
    + [(6, k) for k in ("mobius", "blocks", "ignorance", "contamination", "variation-neighborhood",
                        "interval-belief", "mobius", "blocks", "ignorance", "contamination")]
    + [(6, "nonconvex"), (7, "nonconvex"), (8, "nonconvex")]
)
#: identify-kappa grid sizes; an 8-point grid costs about 4 s (8! orderings).
KAPPA_GRIDS = (7, 7) + (6,) * 8 + (5,) * 10
SIMULATIONS = 38


def _banded_problem(rng: random.Random, names: random.Random, band, infeasible: bool = False):
    lo, hi, _, (n_lo, n_hi), (m_lo, m_hi), p_ign = band
    for _ in range(400):
        n = rng.randint(n_lo, n_hi)
        m = rng.randint(m_lo, m_hi)
        sizes = [rng.randint(2, min(5, n - 1)) for _ in range(m)]
        fams = [
            "ignorance" if rng.random() < p_ign else rng.choice(FAMILIES[1:])
            for _ in range(m)
        ]
        doc, facts = problem_doc(rng, names.sample(LETTERS, n), sizes, fams, infeasible)
        if lo <= facts["rows"] <= hi:
            return doc, facts
    raise AssertionError(f"no document with {lo}..{hi} rows in 400 draws")


def _session(i: int, facts: dict, mode: str) -> list[Query]:
    q = q_arg(facts["q_star"])
    out = [
        Query(i, "exists", mode),
        Query(i, "check", mode, q=q),
        Query(i, "bounds", mode),
    ]
    if mode == "exact":
        # float-mode witness is a known defect at the first benchmarked
        # commit (see FLOAT_WITNESS in run.py); it is probed outside the mix
        out.append(Query(i, "witness", mode, q=q))
    if "menus" in facts:
        out.append(Query(i, "menu-homog", mode, q=q))
    return out


def build_identify(rng: random.Random, names: random.Random) -> tuple[list[Doc], list[Query]]:
    docs: list[Doc] = []
    for band in IDENTIFY_BANDS:
        for _ in range(band[2]):
            doc, facts = _banded_problem(rng, names, band)
            docs.append(Doc(f"id{len(docs)}", dumps(doc), "problem", facts))
    for _ in range(IDENTIFY_INFEASIBLE[2]):
        doc, facts = _banded_problem(rng, names, IDENTIFY_INFEASIBLE, infeasible=True)
        docs.append(Doc(f"id{len(docs)}", dumps(doc), "problem", facts))
    for _ in range(IDENTIFY_MENUS):
        labels = names.sample(LETTERS, rng.randint(5, 7))
        doc, facts = menu_doc(rng, labels, rng.randint(3, 5), rng.randint(3, 6))
        docs.append(Doc(f"id{len(docs)}", dumps(doc), "problem", facts))
    queries: list[Query] = []
    for i, d in enumerate(docs):
        queries += _session(i, d.facts, "exact")
    replayed = sum(band[2] for band in IDENTIFY_BANDS[:2])
    for i in range(0, replayed, FLOAT_EVERY):
        queries += _session(i, docs[i].facts, "float")
    return docs, queries


def build_vertices(rng: random.Random, names: random.Random) -> tuple[list[Doc], list[Query]]:
    docs: list[Doc] = []
    for m, count, most_rows in VERTEX_MIX:
        band = (3, most_rows, count, (5, 7), (m, m), 0.4)
        for _ in range(count):
            doc, facts = _banded_problem(rng, names, band)
            docs.append(Doc(f"vx{len(docs)}", dumps(doc), "problem", facts))
    return docs, [Query(i, "vertices") for i in range(len(docs))]


def build_capacity_updating(rng: random.Random, names: random.Random) -> tuple[list[Doc], list[Query]]:
    docs: list[Doc] = []
    queries: list[Query] = []
    for n, kind in AUDIT_MIX:
        doc, facts = audit_doc(rng, names.sample(LETTERS, n), kind)
        queries.append(Query(len(docs), "capacity-audit"))
        docs.append(Doc(f"au{len(docs)}", dumps(doc), "audit", facts))
    for k in KAPPA_GRIDS:
        doc, facts = updating_doc(rng, k, names.randint(-3, 3))
        queries.append(Query(len(docs), "identify-kappa", kappa=num(facts["kappa"])))
        docs.append(Doc(f"ka{len(docs)}", dumps(doc), "updating", facts))
    for _ in range(SIMULATIONS):
        labels = names.sample(LETTERS, rng.randint(3, 6))
        doc, facts = simulation_doc(rng, labels, rng.randint(2, 4), rng.randrange(1 << 30))
        queries.append(Query(len(docs), "simulate"))
        docs.append(Doc(f"si{len(docs)}", dumps(doc), "simulation", facts))
        # the simulate report itself is the next document; it is filled in
        # by running the simulation once before timing starts
        queries.append(Query(len(docs), "exists"))
        docs.append(Doc(f"so{len(docs)}", b"", "simulated", {"source": len(docs) - 1}))
    return docs, queries


WORKLOADS = {
    "identify": build_identify,
    "vertices": build_vertices,
    "capacity-updating": build_capacity_updating,
}


def build(workload: str, seed: int) -> tuple[list[Doc], list[Query]]:
    """Documents and queries of one workload.

    The structure and numbers of every document come from one fixed corpus
    per workload; the seed picks the label names and their order in each
    document, the offset of each odds grid, and the order of the queries.
    Seeds therefore give isomorphic problems that cost the engine the same
    work, so that runs on different seeds measure the same mix.
    """
    names = random.Random(f"{workload}:{seed}")
    docs, queries = WORKLOADS[workload](random.Random(f"{workload}:corpus"), names)
    names.shuffle(queries)
    return docs, queries


def describe(workload: str, docs: list[Doc], queries: list[Query]) -> dict[str, Any]:
    """Input properties of one workload's pass, for the run record."""
    seen: set[int] = set()
    repeats = 0
    for q in queries:
        repeats += q.doc in seen
        seen.add(q.doc)
    out: dict[str, Any] = {
        "documents": len(docs),
        "queries": len(queries),
        "commands": {c: sum(q.command == c for q in queries) for c in sorted({q.command for q in queries})},
        "repeat_share": round(repeats / len(queries), 4),
    }
    problems = [d.facts for d in docs if d.kind == "problem"]
    if problems:
        rows = sorted(f["rows"] for f in problems)
        out.update(
            labels=[min(f["ground"].size for f in problems), max(f["ground"].size for f in problems)],
            rules=[min(len(f["ids"]) for f in problems), max(len(f["ids"]) for f in problems)],
            carrier_sizes=sorted({s.carrier.bit_count() for f in problems for s in f["specs"]}),
            rows_kept={"min": rows[0], "median": rows[len(rows) // 2], "max": rows[-1]},
            float_share=round(sum(q.mode == "float" for q in queries) / len(queries), 4),
            infeasible_share=round(
                sum(not docs[q.doc].facts.get("feasible", True) for q in queries) / len(queries), 4
            ),
        )
    audits = [d.facts for d in docs if d.kind == "audit"]
    if audits:
        out["audit_labels"] = sorted(f["n"] for f in audits)
        out["kappa_grid_sizes"] = sorted(d.facts["k"] for d in docs if d.kind == "updating")
        out["simulation_labels"] = sorted(d.facts["ground"].size for d in docs if d.kind == "simulation")
    return out
