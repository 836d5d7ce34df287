"""Literal definitions behind the closed forms in ``capid.capacity`` and
``capid.updating``, kept as test oracles.

Each function follows its textbook definition with no shortcut: convexity
over every pair of subsets, monotonicity over every subset and label, Moebius
masses by inclusion-exclusion over every subset of every subset, core
vertices as the marginal vectors of every ordering, and the experiment
model's kappa floor and pure-noise test by walking those vertices.
"""

from itertools import permutations

from capid.capacity import Measure, _dedupe_measures, is_convex, submasks
from capid.errors import NotConvexError
from capid.numeric import Num, eq, ge


def brute_force_convex(nu):
    """Supermodularity over all pairs: nu(K|K') + nu(K&K') >= nu(K) + nu(K')."""
    tol = nu.tol
    v = nu.values
    for a in nu.ground.masks():
        for b in nu.ground.masks():
            if not ge(v[a | b] + v[a & b], v[a] + v[b], tol):
                return False
    return True


def valid_capacity(ground, values, carrier):
    """Capacity axioms on every subset: the boundary values, monotonicity
    along every label and, with a carrier, constancy across it."""
    tol = 1e-9 if any(isinstance(x, float) for x in values) else 0
    n = ground.size
    if not eq(values[0], 0, tol) or not eq(values[-1], 1, tol):
        return False
    if carrier is not None and (carrier == 0 or carrier > ground.full_mask):
        return False
    for mask in range(1 << n):
        for i in range(n):
            if not ge(values[mask | 1 << i], values[mask], tol):
                return False
        if carrier is not None and not eq(values[mask], values[mask & carrier], tol):
            return False
    return True


def inclusion_exclusion(values, n):
    """mass(K) = sum over J below K of (-1)^|K\\J| values(J), in O(3^n)."""
    mass = []
    for mask in range(1 << n):
        bits = mask.bit_count()
        total = 0
        for j in submasks(mask):
            if (bits - j.bit_count()) & 1:
                total -= values[j]
            else:
                total += values[j]
        mass.append(total)
    return mass


def subset_sums(mass, n):
    """values(K) = sum over J below K of mass(J), in O(3^n)."""
    return [sum(mass[j] for j in submasks(mask)) for mask in range(1 << n)]


def literal_core_vertices(nu):
    """Exact vertex set of the core of a convex capacity.

    One marginal vector per ordering of the active labels: each label receives
    the capacity increment of the growing prefix.  For convex capacities these
    vectors are precisely the extreme points of the core; duplicates collapse.
    Raises NotConvexError otherwise, where marginal vectors stop being a
    vertex description.
    """
    if not is_convex(nu):
        raise NotConvexError("core_vertices requires a convex capacity")
    ground = nu.ground
    active = nu.active
    idxs = [i for i in range(ground.size) if active >> i & 1]
    vertices = []
    for order in permutations(idxs):
        weights: list[Num] = [0] * ground.size
        prefix = 0
        prev = nu.values[0]
        for i in order:
            prefix |= 1 << i
            cur = nu.values[prefix]
            weights[i] = cur - prev
            prev = cur
        vertices.append(Measure(ground, tuple(weights), active))
    return tuple(_dedupe_measures(vertices))


def vertex_kappa_facts(grid, nu):
    """(pure_noise, kappa_floor) from an explicit walk over the core vertices:
    some vertex puts mass 1 on the null signal, and the largest floor
    -w/(1-w) over the vertices' null-signal masses w."""
    zero = grid.null_signal_index
    tol = nu.tol
    vertices = literal_core_vertices(nu)
    if any(ge(v.weights[zero], 1, tol) for v in vertices):
        return True, None
    return False, max(-v.weights[zero] / (1 - v.weights[zero]) for v in vertices)
