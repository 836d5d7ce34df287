"""Literal definitions behind the closed forms in ``capid.capacity`` and
``capid.updating``, kept as test oracles.

Each function follows its textbook definition with no shortcut: convexity
over every pair of subsets, monotonicity over every subset and label, Moebius
masses by inclusion-exclusion over every subset of every subset, core
vertices as the marginal vectors of every ordering (duplicates found by
comparing each vector with every kept one, within FLOAT_TOL when either
holds a double), the experiment model's
kappa floor and pure-noise test by walking those vertices, lower envelopes by
a minimum over the measures at every subset, and the specification
capacities by their formulas at every subset, with the reference vectors
summed anew each time.

The ``float_scan_*`` functions are the float-mode monotonicity, convexity
and belief scans as they ran before float mode decided on the values' int
numerators: on the floats themselves, each sum rounded, up to FLOAT_TOL.
Away from the 1e-9 edge their verdicts are the exact ones.
"""

from fractions import Fraction
from itertools import permutations

from capid.capacity import Capacity, Measure, _moebius, carrier_masks, is_convex
from capid.errors import NotConvexError, ValidationError
from capid.info_specs import (
    Contamination, Ignorance, IntervalBelief, VariationNeighborhood, build_capacity,
)
from capid.numeric import FLOAT_TOL, ZERO, Num
from oracle import eq, ge


def submasks(mask):
    """All subsets of ``mask`` in decreasing order, from mask itself to 0,
    one step of ``(sub - 1) & mask`` at a time."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


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
    return tuple(quadratic_dedupe_measures(vertices))


def quadratic_dedupe_measures(measures):
    """The measures in order, without those equal to one kept before, where
    each new vector is compared with every kept one: exactly when neither
    holds a double, within FLOAT_TOL in every weight when either does."""
    out = []
    for m in measures:
        if not any(
            all(eq(a, b, ZERO if m.is_exact and kept.is_exact else FLOAT_TOL)
                for a, b in zip(m.weights, kept.weights))
            for kept in out
        ):
            out.append(m)
    return out


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


def lower_probability(vertices, ground):
    """Lower envelope nu(K) = min over the given measures of p(K).

    The minimum of a linear functional over a polytope sits at a vertex, so
    feeding the vertex set of any credal set recovers its lower probability.
    """
    if not vertices:
        raise ValidationError("lower_probability needs at least one measure")
    for p in vertices:
        if p.ground != ground:
            raise ValidationError("all measures must live on the stated ground set")
    values = tuple(min(p.mass(mask) for p in vertices) for mask in ground.masks())
    carrier = 0
    for p in vertices:
        carrier |= p.support()
    return Capacity(ground, values, carrier if carrier else None)


def literal_build_capacity(spec):
    """``build_capacity`` with each family's formula evaluated anew at every
    one of the 2^n masks, and each reference vector summed anew per subset;
    explicit capacities and point masses go to ``build_capacity``."""
    ground, carrier = spec.ground, spec.carrier
    if isinstance(spec, Ignorance):
        values = tuple(
            Fraction(1) if mask & carrier == carrier else Fraction(0)
            for mask in ground.masks()
        )
        return Capacity(ground, values, carrier)
    if isinstance(spec, Contamination):
        eps = spec.epsilon
        values = tuple(
            (1 - eps) * spec.rho_hat.mass(mask & carrier)
            + eps * (1 if mask & carrier == carrier else 0)
            for mask in ground.masks()
        )
        return Capacity(ground, values, carrier)
    if isinstance(spec, VariationNeighborhood):
        eps = spec.epsilon
        exact = spec.reference.is_exact and not isinstance(eps, float)
        one = Fraction(1) if exact else 1.0
        zero = Fraction(0) if exact else 0.0
        values = []
        for mask in ground.masks():
            if mask & carrier == carrier:
                values.append(one)
            else:
                shaved = spec.reference.mass(mask & carrier) - eps
                values.append(shaved if shaved > 0 else zero)
        return Capacity(ground, tuple(values), carrier)
    if isinstance(spec, IntervalBelief):
        beta = spec.excess
        values = tuple(
            max(
                IntervalBelief._sum(spec.lower, mask & carrier),
                IntervalBelief._sum(spec.upper, mask & carrier) - beta,
            )
            for mask in ground.masks()
        )
        return Capacity(ground, values, carrier)
    return build_capacity(spec)


def literal_from_measure(p, carrier=None):
    """The additive capacity of a measure, p(K) summed anew for every subset
    K, carried by the measure's carrier, else by its support, else by the
    whole ground set."""
    values = tuple(p.mass(mask) for mask in p.ground.masks())
    if carrier is None:
        carrier = p.carrier if p.carrier is not None else p.support()
        if carrier == 0:
            carrier = p.ground.full_mask
    return Capacity(p.ground, values, carrier)


def float_scan_monotone(ground, values, carrier):
    """The first (subset, label index) of the carrier at which adding the
    label lowers the float value by more than FLOAT_TOL, or None."""
    active = ground.full_mask if carrier is None else carrier
    for mask in carrier_masks(active):
        for i in range(ground.size):
            bit = 1 << i
            if active & bit and not mask & bit:
                if not ge(values[mask | bit], values[mask], FLOAT_TOL):
                    return mask, i
    return None


def float_scan_convex(nu):
    """Local supermodularity on the carrier's subsets, on the floats."""
    values, active = nu.values, nu.active
    bits = [1 << i for i in range(nu.ground.size) if active >> i & 1]
    return all(
        ge(values[mask | bit_i | bit_j] + values[mask],
           values[mask | bit_i] + values[mask | bit_j], FLOAT_TOL)
        for a, bit_i in enumerate(bits)
        for bit_j in bits[a + 1:]
        for mask in submasks(active & ~(bit_i | bit_j))
    )


def float_scan_belief(nu):
    """The Moebius masses of the carrier's subsets, transformed on the
    floats, all at least -FLOAT_TOL."""
    restricted = [nu.values[mask] for mask in carrier_masks(nu.active)]
    return all(ge(m, 0, FLOAT_TOL) for m in _moebius(restricted, nu.active.bit_count()))
