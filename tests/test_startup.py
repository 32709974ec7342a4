"""Start-up cost: ``import repro`` pulls in nothing it does not need.

scipy costs more start-up time than the rest of the package put together,
and only a handful of solves use it; those import it where they run. A
fresh interpreter is the only place to see what ``import repro`` loads,
since the test session has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def scipy_modules_after_import(module: str) -> list:
    """The scipy modules a fresh interpreter holds after importing ``module``."""
    source_root = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, path])))
    probe = (
        f"import json, sys, {module}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return json.loads(completed.stdout)


def test_import_repro_leaves_scipy_unloaded():
    assert scipy_modules_after_import("repro") == []


@pytest.mark.parametrize("module", ["repro.experiments.cli", "repro.service"])
def test_front_doors_leave_scipy_unloaded(module):
    # The CLI and the sweep service start in every `repro` invocation and
    # every `repro serve` process; neither needs scipy to start.
    assert scipy_modules_after_import(module) == []
