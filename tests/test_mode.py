"""The arithmetic mode is the tolerance of a query's inputs.

Every query answers in doubles when one of the inputs it reads holds a
double, however many exact values sit beside it, and in Fractions when all
of them are exact.  The source scan keeps that decision in ``numeric``.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from capid import Capacity, GroundSet, Measure
from capid.identification import (
    DecisionRule,
    IdentificationProblem,
    MenuCollection,
    ProblemRule,
    check_menu_homogeneous,
    exists_rationalizing,
    identified_vertices,
    probability_bounds,
    witness_decomposition,
)
from capid.info_specs import ExplicitCapacity, Ignorance
from capid.simulate import synth_population
from capid.updating import ExperimentModel, OddsGrid, rationalizing_kappa_interval

SRC = Path(__file__).resolve().parent.parent / "src" / "capid"

ABC = GroundSet.of("abc")
AB, AC = ABC.mask_of("ab"), ABC.mask_of("ac")
MENUS = MenuCollection.of(ABC, [["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]])
RULES = (DecisionRule("r0", ("a", "a", "b", "a")), DecisionRule("r1", ("a", "a", "c", "a")))
GRID = OddsGrid.from_values((F(-1), F(0), F(1)), F(0))

#: The input that holds the one double, None for all-exact inputs.
DOUBLE_IN = (None, "lambda", "q", "capacity")


def _one(double, place):
    """1/2 as a double in the one place that holds it, as a Fraction elsewhere."""
    return 0.5 if double == place else F(1, 2)


def _inputs(double):
    """lambda (1/2, 1/4, 1/4), Q (1/2, 1/2) and two rules, ignorance on
    {a,b} and {a,c}, with a double in one place: lambda's weight of a, Q's
    weight of r0, or r0's capacity value on the full set."""
    lam = Measure(ABC, (_one(double, "lambda"), F(1, 4), F(1, 4)))
    q = Measure(GroundSet.of(["r0", "r1"]), (_one(double, "q"), F(1, 2)))
    top = 2 * _one(double, "capacity")
    values = tuple((top if mask == ABC.full_mask else 1) if mask & AB == AB else 0
                   for mask in ABC.masks())
    specs = [
        ("r0", ExplicitCapacity(ABC, AB, Capacity(ABC, values, AB))),
        ("r1", Ignorance(ABC, AC)),
    ]
    return lam, q, specs


def _answers(double):
    """Each query's numbers, keyed by the query and the inputs it reads."""
    lam, q, specs = _inputs(double)
    problem = IdentificationProblem(ABC, tuple(ProblemRule(*s) for s in specs), lam)
    # the updating fixture's experiment and data, the double in the same places
    nu = Capacity(
        GRID.shifted, (0, F(1, 2), 0, F(1, 2), F(1, 2), 1, F(1, 2), 2 * _one(double, "capacity"))
    )
    data = Measure(GRID.ground, (_one(double, "lambda") / 2, F(1, 2), F(1, 4)))
    kappa = rationalizing_kappa_interval(data, ExperimentModel(GRID, nu))
    synth = synth_population(specs, q, seed=1)
    return {
        ("exists", "lambda", "capacity"): exists_rationalizing(problem).weights,
        ("bounds", "lambda", "capacity"): [
            end for pair in probability_bounds(problem).values() for end in pair
        ],
        ("vertices", "lambda", "capacity"): [
            w for v in identified_vertices(problem) for w in v.weights
        ],
        ("witness", "lambda", "q", "capacity"): [
            w for part in witness_decomposition(problem, q).values() for w in part.weights
        ],
        ("menu-homog", "lambda", "q"): check_menu_homogeneous(RULES, MENUS, lam, q).weights,
        ("kappa", "lambda", "capacity"): (kappa.lo, kappa.hi),
        ("synthesis", "q", "capacity"): [
            w for m in (synth.lam, *synth.rho_by_rule.values()) for w in m.weights
        ],
    }


@pytest.mark.parametrize("double", DOUBLE_IN)
def test_one_double_among_exact_inputs_makes_the_answer_doubles(double):
    for (query, *reads), numbers in _answers(double).items():
        want = float if double in reads else F
        assert numbers and {type(x) for x in numbers} == {want}, (query, numbers)


def _references(tree):
    """(name, enclosing function names) for every name, attribute, keyword,
    imported name and function a module's syntax tree holds."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, scope))
            scope = scope + (node.name,)
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.arg if isinstance(node, ast.keyword)
            else node.name if isinstance(node, ast.alias)
            else None
        )
        if name is not None:
            out.append((name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return out


def test_the_mode_is_decided_in_numeric_only():
    """``all_exact`` is read in ``numeric`` alone, ``is_exact`` nowhere, and
    FLOAT_TOL outside ``numeric`` only as ``capacity._merge_close``'s merge
    radius and the import that brings it there."""
    modules = {p.stem: _references(ast.parse(p.read_text())) for p in SRC.glob("*.py")}
    assert {"numeric", "capacity", "identification", "updating"} <= set(modules)
    for stem, refs in modules.items():
        names = [name for name, _ in refs]
        assert "is_exact" not in names, stem
        if stem == "numeric":
            continue
        assert "all_exact" not in names, stem
        tol_scopes = {scope for name, scope in refs if name == "FLOAT_TOL"}
        assert tol_scopes <= ({(), ("_merge_close",)} if stem == "capacity" else set()), stem
