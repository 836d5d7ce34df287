"""Objects capid builds without checks, against the checks they skip.

``Capacity._derived`` and ``Measure._derived`` build the capacities of the
specification families and the updating model's inertia rule, and the
measures that solve capid's linear programs and the core vertices of convex
capacities, without the validation that every object read from a document
gets.  Each one they build while the CLI answers the golden fixtures and
seeded ``tests/gen`` documents in both modes, and while ``build_capacity``
builds point and explicit specifications, must pass the literal capacity
axioms and pairwise supermodularity of ``capacity_oracle``, and agree on
``is_exact`` and ``int_view`` with a copy built by the validating
constructor.  Each measure must pass the ``Measure`` constructor.
"""

import json
import random
from fractions import Fraction as F

import pytest

import gen
from capacity_oracle import brute_force_convex, valid_capacity
from capid import Capacity, GroundSet, Measure, is_convex
from capid.cli import main
from capid.info_specs import ExplicitCapacity, PointMass, build_capacity
from test_golden import CASES, _run

PROBLEM_COMMANDS = ("check", "exists", "bounds", "vertices", "witness", "menu-homog")


@pytest.fixture
def derived(monkeypatch):
    """Every capacity and measure ``_derived`` builds while the test runs."""
    made = []
    for cls in (Capacity, Measure):
        def record(*args, _build=cls._derived, **kwargs):
            made.append(_build(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(cls, "_derived", staticmethod(record))
    return made


def assert_sound(made):
    for obj in made:
        if isinstance(obj, Measure):
            Measure(obj.ground, obj.weights, obj.carrier)
            continue
        assert valid_capacity(obj.ground, obj.values, obj.carrier), obj
        assert brute_force_convex(obj), obj
        copy = Capacity(obj.ground, obj.values, obj.carrier)
        assert copy.is_exact == obj.is_exact
        if copy.is_exact:
            assert copy.int_view == obj.int_view
        assert is_convex(copy)


def test_golden_fixtures(derived, tmp_path):
    for stem, command, mode in CASES:
        _run(stem, command, mode, tmp_path / "report.json")
    kinds = {type(obj) for obj in derived}
    assert kinds == {Capacity, Measure}
    assert_sound(derived)


def _audit_doc(doc):
    """A ``capacity-audit`` document for the first rule of a problem document:
    its specification on its carrier, or on the labels it chooses."""
    entry = doc["rules"][0]
    carrier = entry.get("carrier") or sorted(set(entry["choices"].values()))
    return {
        "schema": "capid/1",
        "labels": doc["labels"],
        "carrier": carrier,
        "info_spec": entry["info_spec"],
    }


@pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
def test_generated_documents(derived, tmp_path, capsys, floats):
    rng = random.Random(7310 + floats)
    mode = "float" if floats else "exact"
    path = tmp_path / "doc.json"

    def run(command, doc, *extra):
        path.write_text(json.dumps(doc))
        return main([command, "--input", str(path), "--mode", mode, *extra])

    codes = []
    for _ in range(30):
        doc, q = gen.random_problem_doc(rng, floats)
        for command in PROBLEM_COMMANDS:
            run(command, doc, "--q", json.dumps(q))
        codes.append(run("capacity-audit", _audit_doc(doc)))
        codes.append(run("simulate", {**doc, "q": q, "seed": rng.randrange(1 << 30)}))
        kappa = rng.choice(("0", "1/2", "1"))
        codes.append(run("identify-kappa", gen.random_updating_doc(rng), "--kappa", kappa))
    capsys.readouterr()
    assert codes == [0] * len(codes)
    measures = sum(isinstance(obj, Measure) for obj in derived)
    assert measures and len(derived) - measures
    # one inertia capacity, all ints, per updating document
    inertia = [c for c in derived if isinstance(c, Capacity) and set(map(type, c.values)) == {int}]
    assert len(inertia) == 30
    assert_sound(derived)


@pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
def test_point_and_explicit_specifications(derived, floats):
    rng = random.Random(4471 + floats)
    for _ in range(60):
        ground = gen.random_ground(rng, 2, 5)
        carrier = gen.random_carrier(rng, ground, ground.size)
        rho = gen.random_measure(rng, ground, carrier)
        nu = gen.random_convex_capacity(rng, ground)
        if floats:
            rho = Measure(ground, tuple(map(float, rho.weights)), carrier)
            nu = Capacity(ground, tuple(map(float, nu.values)))
        build_capacity(PointMass(ground, carrier, rho))
        build_capacity(ExplicitCapacity(ground, ground.full_mask, nu))
    assert len(derived) == 120
    assert_sound(derived)


def test_point_mass_reads_exactness_off_every_mask(derived):
    # exact weights on the carrier and a float 0.0 off it: the carrier table
    # is exact, but the masks that hold the 0.0 sum to floats
    ground = GroundSet.of("abc")
    carrier = ground.mask_of("ab")
    rho = Measure(ground, (F(1, 4), F(3, 4), 0.0), carrier)
    nu = build_capacity(PointMass(ground, carrier, rho))
    assert isinstance(nu.values[ground.mask_of("c")], float)
    assert not nu.is_exact
    assert_sound(derived)
