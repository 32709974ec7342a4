"""One set-up of a batch workload in a fresh process, for ``setup_s``.

    python3 perfbench/probe.py WORKLOAD INPUT_SEED

Imports ``repro``, builds the workload's sweep, prints ``ready`` and exits.
The parent times it from process start to the ``ready`` line.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.build_sweep(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
