"""The names that the benchmark in ``perfbench/`` takes from capid.

``perfbench/tracing.py`` wraps the functions its ``SPANS`` name and checks
that each import by name in ``REBINDINGS`` was rewrapped too;
``perfbench/gate.py`` and ``perfbench/workloads.py`` import capid names to
build and check their queries.  A name that moves or goes breaks the
benchmark while every CLI test still passes, so these tests read
``perfbench/`` and check each name against capid.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _tracing():
    """``perfbench/tracing.py``, loaded by path under a name of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    """The object the tracer wraps: a module attribute, or for
    ``Class.method`` the function in the class's own ``__dict__``."""
    module = importlib.import_module(f"capid.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        return vars(getattr(module, cls_name))[method]
    return getattr(module, attr)


def test_every_traced_name_resolves_on_capid():
    tracing = _tracing()
    spans = [_resolve(module_name, attr) for module_name, attr, _ in tracing.SPANS]
    assert all(callable(fn) for fn in spans)
    for module_name, attr in tracing.REBINDINGS:
        # an import by name is rewrapped only when it is a spanned function
        imported = _resolve(module_name, attr)
        assert any(imported is fn for fn in spans), (module_name, attr)


def test_gate_and_workloads_import():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    out = subprocess.run(
        [sys.executable, "-c", "import gate, workloads"], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
