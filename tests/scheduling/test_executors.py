"""Executor equivalence: every execution mode, bit-identical records.

The tentpole claim of the scheduling refactor is that serial, thread-pool,
process-pool, and async execution all dispatch the same
:class:`~repro.scheduling.core.SweepPlan` through the same task runner —
so the *only* thing an executor may change is wall-clock time. These tests
pin that: identical ``SweepResult`` records (dataclass equality, which
compares every per-iteration outcome) across all four modes, across
schemes, engines, record modes, and trial-batching settings.
"""

from __future__ import annotations

import pytest

from repro.api import JobSpec, Sweep, TimingSimBackend, run_sweep
from repro.cluster.spec import ClusterSpec
from repro.exceptions import ConfigurationError, CoverageError
from repro.experiments import ec2_like_cluster
from repro.scheduling import (
    AsyncExecutor,
    PoolExecutor,
    SerialExecutor,
    build_sweep_plan,
    resolve_executor,
)
from repro.stragglers.models import ShiftedExponentialDelay

EXECUTORS = ("serial", "thread", "process", "async")


def make_sweep(engine="auto", schemes=("bcc", "uncoded"), trials=3, seed=0):
    cluster = ClusterSpec.homogeneous(10, ShiftedExponentialDelay(1.0, 0.5))
    base = JobSpec(
        scheme={"name": schemes[0], "load": 5},
        cluster=cluster,
        num_units=20,
        num_iterations=3,
        seed=seed,
    )
    configs = []
    for name in schemes:
        if name == "uncoded":
            configs.append({"name": name})
        else:
            configs.extend({"name": name, "load": load} for load in (5, 10))
    return Sweep(
        base,
        parameters={"scheme": configs},
        trials=trials,
        backend=TimingSimBackend(engine=engine),
    )


def records_of(result):
    return [(r.cell, r.trial, r.result) for r in result]


class TestExecutorEquivalence:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_all_executors_match_serial(self, executor):
        sweep = make_sweep()
        reference = run_sweep(sweep)
        result = run_sweep(sweep, max_workers=4, executor=executor)
        assert records_of(result) == records_of(reference)

    @pytest.mark.parametrize("engine", ("loop", "vectorized"))
    @pytest.mark.parametrize("executor", ("thread", "async"))
    def test_equivalence_per_engine(self, engine, executor):
        sweep = make_sweep(engine=engine)
        reference = run_sweep(sweep)
        result = run_sweep(sweep, max_workers=3, executor=executor)
        assert records_of(result) == records_of(reference)

    @pytest.mark.parametrize("trial_batching", ("auto", "never"))
    def test_equivalence_across_trial_batching(self, trial_batching):
        sweep = make_sweep(engine="vectorized")
        reference = run_sweep(sweep, trial_batching=trial_batching)
        for executor in ("thread", "async"):
            result = run_sweep(
                sweep, max_workers=4, executor=executor,
                trial_batching=trial_batching,
            )
            assert records_of(result) == records_of(reference)

    def test_summary_record_equivalence(self):
        sweep = make_sweep()
        reference = run_sweep(sweep, record="summary")
        for executor in EXECUTORS:
            result = run_sweep(sweep, max_workers=2, executor=executor, record="summary")
            assert records_of(result) == records_of(reference)

    def test_analytic_backend_equivalence(self):
        cluster = ClusterSpec.homogeneous(10, ShiftedExponentialDelay(1.0, 0.0))
        base = JobSpec(
            scheme={"name": "bcc", "load": 5}, cluster=cluster, num_units=20, seed=0
        )
        sweep = Sweep(base, parameters={"scheme.load": [5, 10]}, backend="analytic")
        reference = run_sweep(sweep)
        for executor in EXECUTORS:
            assert records_of(
                run_sweep(sweep, max_workers=2, executor=executor)
            ) == records_of(reference)

    def test_executor_instance_accepted(self):
        sweep = make_sweep()
        reference = run_sweep(sweep)
        for instance in (SerialExecutor(), PoolExecutor("thread", 2), AsyncExecutor(2)):
            result = run_sweep(sweep, max_workers=2, executor=instance)
            assert records_of(result) == records_of(reference)

    def test_async_executor_instance_is_reusable(self):
        # Each run_sweep call drives execute() on a fresh asyncio.run loop;
        # a concurrency semaphore cached from the first loop must not leak
        # into the second (it would raise "bound to a different event loop").
        sweep = make_sweep()
        executor = AsyncExecutor(max_workers=2)
        first = run_sweep(sweep, executor=executor)
        second = run_sweep(sweep, executor=executor)
        assert records_of(second) == records_of(first)


def shared_seed_sweep():
    sweep = make_sweep()
    return Sweep(
        sweep.base,
        parameters=sweep.parameters,
        trials=sweep.trials,
        backend=sweep.backend,
        seed_strategy="shared",
    )


class TestSequentialPlans:
    def test_only_serial_is_sequential_safe(self):
        assert SerialExecutor().sequential_safe
        assert not PoolExecutor("thread", 1).sequential_safe
        assert not PoolExecutor("process", 1).sequential_safe
        assert not AsyncExecutor().sequential_safe

    def test_serial_instance_accepts_shared_strategy(self):
        shared = shared_seed_sweep()
        reference = run_sweep(shared)
        result = run_sweep(shared, executor=SerialExecutor())
        assert records_of(result) == records_of(reference)

    @pytest.mark.parametrize(
        "instance",
        [PoolExecutor("thread", 4), PoolExecutor("process", 2), AsyncExecutor(4)],
        ids=["thread", "process", "async"],
    )
    def test_concurrent_instance_refuses_shared_strategy(self, instance):
        # The instance path bypasses the max_workers-based string guard; the
        # plan-level check must still refuse to race the shared generator.
        with pytest.raises(ConfigurationError, match="sequential"):
            run_sweep(shared_seed_sweep(), executor=instance)

    def test_concurrent_instance_refused_even_without_max_workers(self):
        with pytest.raises(ConfigurationError, match="sequential"):
            run_sweep(
                shared_seed_sweep(),
                executor=PoolExecutor("thread", 8),
                max_workers=None,
            )

    def test_string_executor_with_workers_still_refused(self):
        with pytest.raises(ConfigurationError, match="seed strategy"):
            run_sweep(shared_seed_sweep(), executor="thread", max_workers=4)


class TestResolveExecutor:
    def test_names_resolve(self):
        assert resolve_executor("serial").name == "serial"
        assert resolve_executor("thread", 2).name == "thread"
        assert resolve_executor("process", 2).name == "process"
        assert resolve_executor("async", 2).name == "async"

    def test_only_process_is_pickle_safe(self):
        assert resolve_executor("process", 2).pickle_safe
        for name in ("serial", "thread", "async"):
            assert not resolve_executor(name, 2).pickle_safe

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            resolve_executor("gpu", 2)

    def test_non_executor_instance_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            resolve_executor(object())

    def test_instances_pass_through(self):
        instance = PoolExecutor("thread", 3)
        assert resolve_executor(instance) is instance


class TestPlanShape:
    def test_plan_is_execution_independent(self):
        sweep = make_sweep()
        backend = TimingSimBackend(engine="auto")
        plan_a = build_sweep_plan(sweep, backend=backend)
        plan_b = build_sweep_plan(sweep, backend=backend)
        assert len(plan_a.tasks) == len(plan_b.tasks)
        assert plan_a.parameter_names == ("scheme",)
        assert [t.entries for t in plan_a.tasks] == [t.entries for t in plan_b.tasks]
        assert not plan_a.sequential

    def test_shared_strategy_plans_sequentially(self):
        sweep = make_sweep()
        sweep = Sweep(
            sweep.base,
            parameters=sweep.parameters,
            trials=sweep.trials,
            backend=sweep.backend,
            seed_strategy="shared",
        )
        plan = build_sweep_plan(sweep, backend=TimingSimBackend(engine="auto"))
        assert plan.sequential
        assert all(task.kind == "trial" for task in plan.tasks)

    def test_entries_cover_every_cell_and_trial(self):
        sweep = make_sweep(trials=4)
        plan = build_sweep_plan(sweep, backend=TimingSimBackend(engine="vectorized"))
        entries = [entry for task in plan.tasks for entry in task.entries]
        cells = len(sweep.cells())
        assert len(entries) == cells * sweep.trials
        assert {(cell, trial) for cell, _, trial in entries} == {
            (cell, trial) for cell in range(cells) for trial in range(4)
        }


class TestFailureContext:
    def test_infeasible_placement_names_its_cell(self):
        # bcc at load 1 on 100 workers: 100 one-unit batches, each worker
        # picks one at random, so practically no placement covers them all.
        base = JobSpec(
            scheme={"name": "bcc", "load": 1},
            cluster=ec2_like_cluster(100),
            num_units=100,
            num_iterations=2,
        )
        sweep = Sweep(base, backend=TimingSimBackend(engine="vectorized"))
        with pytest.raises(CoverageError, match=r"^sweep cell 0 \(scheme="):
            run_sweep(sweep)


class TestPoolReuse:
    """The persistent-pool contract: workers outlive individual sweeps."""

    def plan_tasks(self):
        return build_sweep_plan(
            make_sweep(), backend=TimingSimBackend(engine="auto")
        ).tasks

    def test_pool_persists_across_executions(self):
        tasks = self.plan_tasks()
        with PoolExecutor("thread", 2) as executor:
            first = executor.execute(tasks)
            pool = executor._pool
            assert pool is not None
            second = executor.execute(tasks)
            assert executor._pool is pool  # same workers, no rebuild
        assert executor._pool is None  # context exit released them
        assert second == first

    def test_run_sweep_reuses_an_instance_pool(self):
        # run_sweep closes only executors it resolved from a name; a caller
        # instance keeps its warm pool across sweeps.
        sweep = make_sweep()
        executor = PoolExecutor("thread", 2)
        try:
            first = run_sweep(sweep, executor=executor)
            pool = executor._pool
            assert pool is not None
            second = run_sweep(sweep, executor=executor)
            assert executor._pool is pool
        finally:
            executor.close()
        assert records_of(second) == records_of(first)

    def test_closed_pool_rebuilds_transparently(self):
        tasks = self.plan_tasks()
        executor = PoolExecutor("thread", 2)
        try:
            first = executor.execute(tasks)
            executor.close()
            second = executor.execute(tasks)  # transparently rebuilds
            assert second == first
        finally:
            executor.close()

    def test_close_is_idempotent(self):
        executor = PoolExecutor("thread", 2)
        executor.execute(self.plan_tasks())
        executor.close()
        executor.close()
        assert executor._pool is None
