"""Record the reference values the benchmark checks its outputs against.

For every input in the workloads' seed pools this runs the sweep once and
stores, per cell, the trial-mean ``total_time`` and ``recovery_threshold``
in ``reference.json``. Re-record only when a change is *meant* to alter
results, and say so in the change's description::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402

REFERENCE_PATH = HERE / "reference.json"


def record_batch(workload: str) -> dict:
    """Reference cell means of a batch workload, per sweep seed."""
    reference = {}
    for seed in range(wl.BATCH_SEED_POOL):
        result, _ = wl.run_batch_sweep(wl.build_sweep(workload, seed), None)
        reference[str(seed)] = wl.sweep_cell_means(result)
    return reference


def record_service() -> dict:
    """Reference cell means of the service workload, per request seed."""
    from repro import run_sweep
    from repro.service.server import sweep_from_request

    reference = {}
    for seed in range(wl.SERVICE_SEED_POOL):
        sweep, record_mode, batching = sweep_from_request(wl.service_request(seed))
        result = run_sweep(sweep, record=record_mode, trial_batching=batching)
        reference[str(seed)] = wl.sweep_cell_means(result)
    return reference


if __name__ == "__main__":
    recorded = {
        "metrics": list(wl.CHECKED_METRICS),
        "paper_mixed": record_batch("paper_mixed"),
        "bcc_montecarlo": record_batch("bcc_montecarlo"),
        "service_resubmit": record_service(),
    }
    REFERENCE_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
