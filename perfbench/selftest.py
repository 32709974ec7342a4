"""Self-tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench/selftest.py -q

They check that the layer wrappers leave dispatch and results untouched,
that a reduced-size run of every workload completes without a failed
operation, and that the workload seed changes the inputs and nothing else.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _class_attributes():
    """Every wrapped-or-dispatch-relevant class attribute, by identity."""
    from repro.coding.linear_code import LinearGradientCode
    from repro.stragglers.base import DelayModel
    from repro.stragglers.communication import CommunicationModel

    attributes = {}
    for root, names in (
        (DelayModel, ("sample", "sample_grid", "sample_trials", "sample_batch")),
        (CommunicationModel, ("sample_batch", "sample_trials")),
        (LinearGradientCode, ("is_decodable", "decoding_vector")),
    ):
        for cls in tracing._subclasses(root):
            for name in names:
                if name in cls.__dict__:
                    attributes[(cls, name)] = cls.__dict__[name]
    return attributes


def test_wrappers_preserve_dispatch_identities():
    from repro.coding.cyclic_repetition import CyclicRepetitionCode
    from repro.coding.fractional import FractionalRepetitionCode
    from repro.coding.linear_code import LinearGradientCode
    from repro.stragglers.models import ShiftedExponentialDelay

    before = _class_attributes()
    patches = tracing.install(tracing.Tracer())
    try:
        after = _class_attributes()
        for (cls, name), original in before.items():
            if isinstance(original, classmethod):
                assert isinstance(after[(cls, name)], classmethod), (cls, name)
            if name in ("is_decodable", "sample"):
                assert after[(cls, name)] is original, (cls, name)
        # The coded kernel's and CodedScheme's dispatch tests.
        assert CyclicRepetitionCode.is_decodable is LinearGradientCode.is_decodable
        assert FractionalRepetitionCode.is_decodable is not LinearGradientCode.is_decodable
        # The vectorized samplers' own-sampler test.
        model = ShiftedExponentialDelay(1.0, 0.1)
        assert type(model).sample is ShiftedExponentialDelay.sample
        assert ShiftedExponentialDelay._all_native([model])
    finally:
        tracing.uninstall(patches)
    assert _class_attributes() == before


def _small_sizes(monkeypatch):
    monkeypatch.setattr(wl, "WORKERS", 50)
    monkeypatch.setattr(wl, "UNITS", 50)
    monkeypatch.setattr(wl, "ITERATIONS", 3)
    monkeypatch.setattr(wl, "BATCH_SEED_POOL", 2)
    monkeypatch.setattr(wl, "SERVICE_SEED_POOL", 3)
    monkeypatch.setattr(wl, "SERVICE_TRIALS", 2)
    monkeypatch.setattr(wl, "batch_trials", lambda workload: 2)
    monkeypatch.setattr(
        wl,
        "WORKLOADS",
        dict.fromkeys(wl.WORKLOADS, wl.Workload(warm_per_round=3, min_rounds=2)),
    )
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "TRACE_ROUNDS", dict.fromkeys(wl.WORKLOADS, 2))


def test_traced_sweep_is_bit_identical_and_covers_the_layers(monkeypatch):
    _small_sizes(monkeypatch)
    sweep = wl.build_sweep("paper_mixed", 0)
    _, plain = wl.run_batch_sweep(sweep, None)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        _, traced = wl.run_batch_sweep(sweep, None)
    finally:
        tracing.uninstall(patches)
    assert traced == plain
    table = tracing.layer_table(tracer.spans)
    assert set(table) <= set(tracing.LAYERS)
    assert set(tracer.counters) <= set(tracing.COUNTERS)
    for layer in ("stragglers.compute_draw", "stragglers.transfer_draw",
                  "coding.decoding_vector", "simulation.engine", "api.run_sweep"):
        assert table[layer]["calls"] > 0, layer
    assert tracer.counters["simulation.rows"] == 24 * 2 * 3


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_reduced_run_has_no_failed_operation(workload, trace, monkeypatch, capsys):
    _small_sizes(monkeypatch)
    if workload == "service_resubmit":
        # The node builds its sweeps from the request, which carries the sizes.
        expected = {"service_resubmit": reference.record_service()}
    else:
        expected = {workload: reference.record_batch(workload)}
    monkeypatch.setattr(run, "load_reference", lambda: expected)
    args = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in declared["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names


def test_wrong_stopping_rule_fails_the_check(monkeypatch):
    import numpy as np
    import repro.simulation.vectorized as vectorized

    _small_sizes(monkeypatch)
    expected = reference.record_batch("bcc_montecarlo")["0"]
    sweep = wl.build_sweep("bcc_montecarlo", 0)
    result, _ = wl.run_batch_sweep(sweep, None)
    assert wl.mismatched_cells(wl.sweep_cell_means(result), expected) == 0

    get_suite = vectorized.get_suite

    def late_stop(name):
        suite = get_suite(name)

        def coverage_completion(positions, *args):
            ranks = suite.coverage_completion(positions, *args)
            return np.minimum(ranks + 1, positions.shape[1] - 1)

        return dataclasses.replace(suite, coverage_completion=coverage_completion)

    monkeypatch.setattr(vectorized, "get_suite", late_stop)
    result, _ = wl.run_batch_sweep(sweep, None)
    assert wl.mismatched_cells(wl.sweep_cell_means(result), expected) > 0


def test_workload_seed_changes_the_inputs_and_nothing_else():
    from repro.api.fingerprint import canonical_value

    first, second = wl.build_sweep("paper_mixed", 1), wl.build_sweep("paper_mixed", 2)
    assert first.base.seed != second.base.seed
    assert canonical_value(first.base.replace(seed=0)) == canonical_value(second.base.replace(seed=0))
    assert first.cells() == second.cells() and first.trials == second.trials
    assert wl.service_cold_seeds(1) != wl.service_cold_seeds(2)
    assert sorted(wl.service_cold_seeds(1)) == sorted(wl.service_cold_seeds(2))
    one, other = wl.service_request(1), wl.service_request(2)
    assert {key for key in one if one[key] != other[key]} == {"seed"}
