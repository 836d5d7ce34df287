"""Golden reports: every CLI command on every shipped fixture, in both modes.

Each case runs one command on one fixture and compares the report it writes
byte for byte with the file checked in under ``tests/golden/``, and its exit
code with ``tests/golden/exit_codes.json``.  Commands that do not apply to a
fixture are kept too: their error reports are part of the contract.

To regenerate after a deliberate report change, run from the repository root
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import json
from pathlib import Path

import pytest

from capid.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
MODES = ("exact", "float")

# per-fixture options; each command ignores the ones it does not read
EXTRA_ARGS = {
    "nested_menus_six_orders": [
        "--q",
        json.dumps(
            {"pref:a>b>c": "1/4", "pref:b>a>c": "1/4", "pref:b>c>a": "1/4", "pref:c>b>a": "1/4"}
        ),
    ],
    "nested_menus_six_orders_no_singleton": [
        "--q",
        json.dumps({"pref:a>b>c": "1/2", "pref:b>a>c": "1/4", "pref:c>b>a": "1/4"}),
    ],
    "two_orders_four_menus": [
        "--q", json.dumps({"pref:a>b>c": "1/2", "pref:a>c>b": "1/2"}),
    ],
    "underreaction_point_experiment": ["--kappa", "1/2"],
    "point_spec_audit": [],
    "simulate_two_rules": [],
}

CASES = [
    (stem, command, mode)
    for stem in sorted(EXTRA_ARGS)
    for command in COMMANDS
    for mode in MODES
]


def _case_id(stem: str, command: str, mode: str) -> str:
    return f"{stem}.{command}.{mode}"


def _run(stem: str, command: str, mode: str, out: Path) -> int:
    argv = [
        command,
        "--input", str(FIXTURES / f"{stem}.json"),
        "--output", str(out),
        "--mode", mode,
        *EXTRA_ARGS[stem],
    ]
    return main(argv)


def test_every_fixture_has_cases():
    assert sorted(p.stem for p in FIXTURES.glob("*.json")) == sorted(EXTRA_ARGS)


@pytest.mark.parametrize("stem,command,mode", CASES, ids=[_case_id(*c) for c in CASES])
def test_report_matches_golden(stem, command, mode, tmp_path):
    out = tmp_path / "report.json"
    code = _run(stem, command, mode, out)
    case = _case_id(stem, command, mode)
    assert code == json.loads(EXIT_CODES.read_text())[case]
    assert out.read_bytes() == (GOLDEN / f"{case}.json").read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for stem, command, mode in CASES:
        case = _case_id(stem, command, mode)
        codes[case] = _run(stem, command, mode, GOLDEN / f"{case}.json")
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
