"""Float-mode report battery: seeded problem documents from ``gen``.

Each of the 100 documents is written with JSON floats and run through every
identification command in float mode.  The sha256 of each report and its exit
code are compared with ``tests/golden/float_battery.json``.  Float sums depend
on the order of their terms, so this locks down the order in which capid adds
floats as well as its answers.

To regenerate after a deliberate report change, run from the repository root
``PYTHONPATH=src:tests python tests/test_float_battery.py`` and review the
diff.
"""

import hashlib
import json
import random
import tempfile
from pathlib import Path

import pytest

import gen
from capid.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "float_battery.json"
COMMANDS = ("check", "exists", "bounds", "vertices", "witness", "menu-homog")
DOCUMENTS = 100
SEED = 20261018


def _digests(index: int, workdir: Path) -> dict[str, str]:
    """Exit code and report sha256, as "<code> <sha256>", of every command on
    document ``index``."""
    doc, q = gen.random_problem_doc(random.Random(SEED + index), floats=True)
    path = workdir / f"doc-{index:03d}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    out = {}
    for command in COMMANDS:
        report = workdir / "report.json"
        code = main([
            command, "--input", str(path), "--output", str(report),
            "--mode", "float", "--q", json.dumps(q),
        ])
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        out[f"doc-{index:03d}.{command}"] = f"{code} {digest}"
    return out


def test_every_float_exists_answer_passes_float_check(tmp_path):
    """The Q a float ``exists`` report prints, read back as ``check``'s
    ``--q``, rationalizes the document in float mode: the LP's point keeps
    clear of the tolerance that ``check`` allows."""
    feasible = 0
    report = tmp_path / "report.json"
    for index in range(DOCUMENTS):
        doc, _ = gen.random_problem_doc(random.Random(SEED + index), floats=True)
        path = tmp_path / f"doc-{index:03d}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        args = ["--input", str(path), "--output", str(report), "--mode", "float"]
        assert main(["exists", *args]) == 0
        result = json.loads(report.read_text())["result"]
        if not result["feasible"]:
            continue
        feasible += 1
        q = result["q"]
        assert main(["check", *args, "--q", json.dumps(q)]) == 0
        assert json.loads(report.read_text())["result"]["verdict"]["rationalizes"], index
    assert feasible == 81


@pytest.mark.parametrize("index", range(DOCUMENTS))
def test_reports_match_recorded_digests(index, tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = _digests(index, tmp_path)
    assert got == {case: expected[case] for case in got}


def test_battery_covers_every_command_and_outcome():
    expected = json.loads(GOLDEN.read_text())
    assert len(expected) == DOCUMENTS * len(COMMANDS)
    codes = [int(value.split()[0]) for value in expected.values()]
    # answers as well as error reports: menu-homog needs shared menus
    assert codes.count(0) >= DOCUMENTS * 4 and codes.count(2) >= 10


def regenerate() -> None:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(DOCUMENTS):
            digests.update(_digests(index, Path(tmp)))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
