"""Start-up cost: a fresh ``import capid.cli`` loads only what the CLI uses.

Every CLI call pays for its imports before it reads its input, and
``dataclasses`` alone pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``; the record classes are plain classes so that none of them
loads.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Prints the modules that ``import capid.cli`` adds to ``sys.modules``.
PROBE = (
    "import sys; before = set(sys.modules); import capid.cli; "
    "print(*sorted(set(sys.modules) - before))"
)


def test_cli_import_loads_no_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, check=True, capture_output=True, text=True
    )
    loaded = set(out.stdout.split())
    assert "capid.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
