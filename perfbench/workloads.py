"""The benchmark's workloads: what each one submits, and how to check it.

Every workload is a closed-loop client that submits sweeps on the paper's
EC2-like cluster (``ec2_like_cluster(100)``, 100 units of 100 examples,
100 iterations, non-serialised master link) and waits for each answer
before sending the next. A *cold* submission is computed afresh and
stored in a result cache; a *warm* submission resubmits a sweep already
computed and is served from that cache. See README.md for why each
workload exists and which layer it isolates.

The workload seed (``--seed``) chooses the inputs and nothing else: the
sweep seed of the batch workloads, and the order of cold request seeds of
the service workload. Inputs come from finite pools so that every one of
them has reference values recorded in ``reference.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

WORKERS = 100
UNITS = 100
UNIT_SIZE = 100
ITERATIONS = 100

#: Sweep seeds the batch workloads draw from (``--seed`` modulo the pool).
BATCH_SEED_POOL = 16
#: Request seeds the service workload draws its cold requests from.
SERVICE_SEED_POOL = 64

SERVICE_SCHEMES = ("bcc", "randomized", "uncoded")
SERVICE_LOADS = (5, 10, 25)
SERVICE_TRIALS = 16


@dataclass(frozen=True)
class Workload:
    """One workload's shape.

    ``warm_per_round`` warm submissions follow each cold one, so the
    cold/warm mix (and hence ``requests_per_s``) does not depend on how
    many rounds fit into a run. ``min_rounds`` rounds give at least 200
    warm samples, so at least ten fall beyond their 95th percentile.
    """

    warm_per_round: int
    min_rounds: int


WORKLOADS: Dict[str, Workload] = {
    "paper_mixed": Workload(warm_per_round=100, min_rounds=2),
    "bcc_montecarlo": Workload(warm_per_round=70, min_rounds=3),
    "service_resubmit": Workload(warm_per_round=60, min_rounds=4),
}

#: The columns checked against the reference values, per sweep cell.
CHECKED_METRICS = ("total_time", "recovery_threshold")


def batch_input_seed(seed: int) -> int:
    """The sweep seed a batch workload runs for workload seed ``seed``."""
    return seed % BATCH_SEED_POOL


def service_cold_seeds(seed: int) -> List[int]:
    """Request seeds of the cold requests, in the order they are sent."""
    order = list(range(SERVICE_SEED_POOL))
    random.Random(seed).shuffle(order)
    return order


def service_warm_picker(seed: int) -> random.Random:
    """The generator choosing which cold seed each warm request resubmits."""
    return random.Random(f"warm-{seed}")


def scheme_cells(workload: str) -> List[dict]:
    """The scheme configurations a batch workload sweeps, in cell order."""
    from repro import available_schemes
    from repro.schemes.registry import scheme_accepts

    if workload == "paper_mixed":
        cells: List[dict] = []
        for name in available_schemes():
            if scheme_accepts(name, "load"):
                cells.extend({"name": name, "load": load} for load in (5, 10, 25, 50))
            else:
                cells.append({"name": name})
        return cells
    if workload == "bcc_montecarlo":
        return [
            {"name": name, "load": load}
            for name in ("bcc", "randomized")
            for load in (5, 10, 20, 25, 50)
        ]
    raise ValueError(f"{workload!r} is not a batch workload")


def batch_trials(workload: str) -> int:
    return {"paper_mixed": 2, "bcc_montecarlo": 64}[workload]


def build_sweep(workload: str, input_seed: int):
    """The :class:`repro.Sweep` a batch workload submits."""
    from repro import JobSpec, Sweep, TimingSimBackend
    from repro.experiments import ec2_like_cluster

    cells = scheme_cells(workload)
    base = JobSpec(
        scheme=cells[0],
        cluster=ec2_like_cluster(WORKERS),
        num_units=UNITS,
        num_iterations=ITERATIONS,
        unit_size=UNIT_SIZE,
        serialize_master_link=False,
        seed=input_seed,
    )
    return Sweep(
        base,
        parameters={"scheme": cells},
        trials=batch_trials(workload),
        backend=TimingSimBackend(engine="vectorized"),
    )


def run_batch_sweep(sweep, cache):
    """One submission of a batch workload: ``run_sweep`` plus tabulation."""
    from repro import run_sweep

    result = run_sweep(sweep, record="summary", trial_batching="always", cache=cache)
    return result, result.to_table().render()


def service_request(request_seed: int) -> dict:
    """The JSON sweep request the service workload sends for one seed."""
    return {
        "schemes": list(SERVICE_SCHEMES),
        "loads": list(SERVICE_LOADS),
        "workers": WORKERS,
        "units": UNITS,
        "unit_size": UNIT_SIZE,
        "iterations": ITERATIONS,
        "trials": SERVICE_TRIALS,
        "seed": request_seed,
        "backend": "timing",
        "engine": "vectorized",
        "record": "summary",
        "trial_batching": "always",
    }


def cell_means(rows: Sequence[Tuple[int, int, Mapping[str, object]]]) -> List[List[float]]:
    """Trial means of the checked metrics per cell, from (cell, trial, summary).

    Sums run in trial order, so the same records always give the same bits.
    """
    by_cell: Dict[int, List[Tuple[int, Mapping[str, object]]]] = {}
    for cell, trial, summary in rows:
        by_cell.setdefault(cell, []).append((trial, summary))
    means = []
    for cell in sorted(by_cell):
        trials = [summary for _, summary in sorted(by_cell[cell], key=lambda t: t[0])]
        means.append(
            [
                sum(float(summary[metric]) for summary in trials) / len(trials)
                for metric in CHECKED_METRICS
            ]
        )
    return means


def sweep_cell_means(result) -> List[List[float]]:
    """:func:`cell_means` of a :class:`repro.SweepResult`."""
    return cell_means(
        [(record.cell, record.trial, record.result.summary()) for record in result]
    )


def mismatched_cells(
    observed: Sequence[Sequence[float]], expected: Sequence[Sequence[float]]
) -> int:
    """How many cells differ from the reference (a missing cell counts too).

    The tolerance is far below what any change of stopping rule moves a
    trial mean (one worker in one iteration of one trial), and far above
    the last-digit noise of a reordered float sum.
    """
    wrong = abs(len(observed) - len(expected))
    for got, want in zip(observed, expected):
        if any(abs(g - w) > 1e-9 * max(1.0, abs(w)) for g, w in zip(got, want)):
            wrong += 1
    return wrong
