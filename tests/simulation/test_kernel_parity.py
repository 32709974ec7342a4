"""The NumPy kernels vs a row-by-row reference: bit-identical, always.

:class:`~repro.simulation.kernels.KernelSuite` defines each hot-path kernel
by its per-row meaning. This suite pins the NumPy implementation against a
plain-Python reference that spells that meaning out one row and one column
at a time:

* kernel by kernel, on random rank matrices (including the row chunking of
  the segment reductions and ``inf`` arrivals from vacant workers);
* at the job level for **every registered scheme**, in **both master-link
  modes**, on **stationary and dynamic clusters**, plus a Hypothesis
  property over random job shapes — with the reference suite substituted
  through the engine's ``vectorized.get_suite`` seam.

The matrix-coverage test keeps the scheme list honest as new schemes
register, and a second one checks that the matrix reaches every kernel.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulation.vectorized as vectorized
from repro.cluster.dynamic import DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.schemes.registry import available_schemes, scheme_from_config
from repro.simulation.kernels import KernelSuite, get_suite, numpy_impl
from repro.simulation.vectorized import simulate_job_vectorized
from repro.stragglers.communication import LinearCommunicationModel
from repro.stragglers.models import ShiftedExponentialDelay

KERNEL_NAMES = tuple(
    field.name for field in dataclasses.fields(KernelSuite) if field.name != "name"
)


# --------------------------------------------------------------------------- #
# The reference: one row, one column at a time
# --------------------------------------------------------------------------- #
def reference_link_recurrence(compute_sorted, transfer_sorted):
    rows, cols = compute_sorted.shape
    arrival_sorted = np.empty_like(compute_sorted)
    for i in range(rows):
        free_at = 0.0
        for k in range(cols):
            if compute_sorted[i, k] > free_at:
                free_at = compute_sorted[i, k]
            free_at = free_at + transfer_sorted[i, k]
            arrival_sorted[i, k] = free_at
    return arrival_sorted


def reference_count_completion(positions, required):
    return np.array(
        [max(int(row[j]) for j in required) for row in positions], dtype=int
    )


def reference_partial_sum_completion(positions, eligible, needed):
    return np.array(
        [sorted(int(row[j]) for j in eligible)[needed - 1] for row in positions],
        dtype=int,
    )


def _segments(columns, starts):
    ends = list(starts[1:]) + [len(columns)]
    return [columns[start:end] for start, end in zip(starts, ends)]


def reference_coverage_completion(positions, owners_sorted, segment_starts):
    segments = _segments(owners_sorted, segment_starts)
    return np.array(
        [
            max(min(int(row[j]) for j in owners) for owners in segments)
            for row in positions
        ],
        dtype=int,
    )


def reference_group_completion(positions, members, group_starts):
    groups = _segments(members, group_starts)
    return np.array(
        [min(max(int(row[j]) for j in group) for group in groups) for row in positions],
        dtype=int,
    )


REFERENCE_SUITE = KernelSuite(
    name="reference",
    link_recurrence=reference_link_recurrence,
    count_completion=reference_count_completion,
    partial_sum_completion=reference_partial_sum_completion,
    coverage_completion=reference_coverage_completion,
    group_completion=reference_group_completion,
)


# --------------------------------------------------------------------------- #
# Kernel level
# --------------------------------------------------------------------------- #
def random_positions(rng, rows, n_active):
    """Each row a permutation of the active columns' arrival ranks."""
    return rng.permuted(np.tile(np.arange(n_active), (rows, 1)), axis=1)


def random_segments(rng, n_active, num_segments):
    """Non-empty column subsets, concatenated, with each one's start index."""
    subsets = [
        rng.choice(n_active, size=rng.integers(1, n_active + 1), replace=False)
        for _ in range(num_segments)
    ]
    columns = np.concatenate(subsets)
    starts = np.cumsum([0] + [subset.size for subset in subsets[:-1]])
    return columns, starts


shapes = st.tuples(
    st.integers(min_value=1, max_value=12),  # rows
    st.integers(min_value=1, max_value=16),  # active columns
    st.integers(min_value=0, max_value=2**32 - 1),  # seed
)


class TestKernelsMatchReference:
    def test_get_suite_is_the_numpy_implementation(self):
        suite = get_suite()
        assert suite.name == "numpy"
        for name in KERNEL_NAMES:
            assert getattr(suite, name) is getattr(numpy_impl, name)

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, vacant=st.floats(min_value=0.0, max_value=0.5))
    def test_link_recurrence(self, shape, vacant):
        rows, cols, seed = shape
        rng = np.random.default_rng(seed)
        compute = np.sort(rng.exponential(size=(rows, cols)), axis=1)
        compute[rng.random((rows, cols)) < vacant] = np.inf
        compute.sort(axis=1)
        transfer = rng.uniform(0.0, 0.5, size=(rows, cols))
        expected = reference_link_recurrence(compute, transfer)
        actual = numpy_impl.link_recurrence(compute, transfer)
        np.testing.assert_array_equal(actual, expected)  # exact, inf included

    def test_link_recurrence_serializes_the_link(self):
        # Simultaneous finishers queue on the link; a late finisher waits
        # for its own computation, not for the idle link.
        compute = np.array([[0.0, 0.0, 0.0], [0.0, 5.0, np.inf]])
        transfer = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(
            numpy_impl.link_recurrence(compute, transfer),
            [[1.0, 2.0, 3.0], [1.0, 6.0, np.inf]],
        )

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes)
    def test_count_completion(self, shape):
        rows, n_active, seed = shape
        rng = np.random.default_rng(seed)
        positions = random_positions(rng, rows, n_active)
        required = rng.choice(n_active, size=rng.integers(1, n_active + 1), replace=False)
        np.testing.assert_array_equal(
            numpy_impl.count_completion(positions, required),
            reference_count_completion(positions, required),
        )

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes)
    def test_partial_sum_completion(self, shape):
        rows, n_active, seed = shape
        rng = np.random.default_rng(seed)
        positions = random_positions(rng, rows, n_active)
        eligible = rng.choice(n_active, size=rng.integers(1, n_active + 1), replace=False)
        needed = int(rng.integers(1, eligible.size + 1))
        np.testing.assert_array_equal(
            numpy_impl.partial_sum_completion(positions, eligible, needed),
            reference_partial_sum_completion(positions, eligible, needed),
        )

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, num_items=st.integers(min_value=1, max_value=10))
    def test_coverage_completion(self, shape, num_items):
        rows, n_active, seed = shape
        rng = np.random.default_rng(seed)
        positions = random_positions(rng, rows, n_active)
        owners_sorted, segment_starts = random_segments(rng, n_active, num_items)
        np.testing.assert_array_equal(
            numpy_impl.coverage_completion(positions, owners_sorted, segment_starts),
            reference_coverage_completion(positions, owners_sorted, segment_starts),
        )

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, num_groups=st.integers(min_value=1, max_value=10))
    def test_group_completion(self, shape, num_groups):
        rows, n_active, seed = shape
        rng = np.random.default_rng(seed)
        positions = random_positions(rng, rows, n_active)
        members, group_starts = random_segments(rng, n_active, num_groups)
        np.testing.assert_array_equal(
            numpy_impl.group_completion(positions, members, group_starts),
            reference_group_completion(positions, members, group_starts),
        )

    @pytest.mark.parametrize("kernel", ["coverage_completion", "group_completion"])
    @pytest.mark.parametrize("chunk_cells", [1, 7, 40])
    def test_row_chunking_cannot_change_a_result(self, monkeypatch, kernel, chunk_cells):
        # Chunk boundaries fall between rows, so any chunk size gives the
        # unchunked answer — including chunks of a single row.
        rng = np.random.default_rng(chunk_cells)
        positions = random_positions(rng, 23, 9)
        columns, starts = random_segments(rng, 9, 5)
        expected = getattr(REFERENCE_SUITE, kernel)(positions, columns, starts)
        monkeypatch.setattr(numpy_impl, "_SEGMENT_CHUNK_CELLS", chunk_cells)
        np.testing.assert_array_equal(
            getattr(numpy_impl, kernel)(positions, columns, starts), expected
        )

    def test_kernels_leave_their_inputs_alone(self):
        rng = np.random.default_rng(5)
        compute = np.sort(rng.exponential(size=(4, 6)), axis=1)
        transfer = rng.uniform(size=(4, 6))
        positions = random_positions(rng, 4, 6)
        columns, starts = random_segments(rng, 6, 3)
        calls = {
            "link_recurrence": (compute, transfer),
            "count_completion": (positions, columns),
            "partial_sum_completion": (positions, columns, 2),
            "coverage_completion": (positions, columns, starts),
            "group_completion": (positions, columns, starts),
        }
        assert sorted(calls) == sorted(KERNEL_NAMES)
        for name, args in calls.items():
            before = [np.copy(arg) for arg in args]
            out = getattr(numpy_impl, name)(*args)
            for arg, original in zip(args, before):
                np.testing.assert_array_equal(arg, original)
                if isinstance(arg, np.ndarray):
                    assert not np.shares_memory(out, arg), name


# --------------------------------------------------------------------------- #
# Job level
# --------------------------------------------------------------------------- #
#: One representative configuration per registered scheme, with enough
#: redundancy to survive the dynamic scenario. Mirrors the engine
#: equivalence suites; the coverage test below keeps it exhaustive.
SCHEME_MATRIX = {
    "uncoded": ({"name": "uncoded"}, 24),
    "bcc": ({"name": "bcc", "load": 6}, 24),
    "randomized": ({"name": "randomized", "load": 8}, 24),
    "ignore-stragglers": ({"name": "ignore-stragglers", "wait_fraction": 0.6}, 24),
    "cyclic-repetition": ({"name": "cyclic-repetition", "load": 6}, 12),
    "reed-solomon": ({"name": "reed-solomon", "load": 6}, 12),
    "fractional-repetition": ({"name": "fractional-repetition", "load": 4}, 12),
    "generalized-bcc": ({"name": "generalized-bcc"}, 24),
    "load-balanced": ({"name": "load-balanced"}, 24),
}

HETEROGENEOUS = {"generalized-bcc", "load-balanced"}


def make_cluster(name: str) -> ClusterSpec:
    communication = LinearCommunicationModel(latency=0.05, seconds_per_unit=0.02)
    if name in HETEROGENEOUS:
        return ClusterSpec.paper_fig5_cluster(
            num_workers=12, num_fast=2, communication=communication
        )
    return ClusterSpec.homogeneous(
        12, ShiftedExponentialDelay(straggling=1.0, shift=0.01), communication
    )


def make_dynamic(base: ClusterSpec) -> DynamicClusterSpec:
    # The absence-free Markov scenario every scheme can complete.
    return DynamicClusterSpec(
        base, dynamics={"name": "markov", "slowdown": 6.0, "p_slow": 0.2}
    )


def run_with_suite(monkeypatch, suite, config, cluster, base, num_units, **options):
    with monkeypatch.context() as patch:
        patch.setattr(vectorized, "get_suite", lambda name: suite)
        return simulate_job_vectorized(
            scheme_from_config(config, cluster=base), cluster, num_units, **options
        )


def assert_parity(monkeypatch, config, cluster, base, num_units, **options):
    reference = run_with_suite(
        monkeypatch, REFERENCE_SUITE, config, cluster, base, num_units, **options
    )
    actual = simulate_job_vectorized(
        scheme_from_config(config, cluster=base), cluster, num_units, **options
    )
    assert actual.summary() == reference.summary()  # exact float equality
    assert list(actual.iterations) == list(reference.iterations)


class TestKernelParityMatrix:
    def test_matrix_covers_every_registered_scheme(self):
        assert sorted(SCHEME_MATRIX) == available_schemes()

    def test_matrix_reaches_every_kernel(self, monkeypatch):
        called = set()

        def recording(name, kernel):
            def wrapped(*args):
                called.add(name)
                return kernel(*args)

            return wrapped

        suite = dataclasses.replace(
            REFERENCE_SUITE,
            **{name: recording(name, getattr(REFERENCE_SUITE, name)) for name in KERNEL_NAMES},
        )
        for name, (config, num_units) in SCHEME_MATRIX.items():
            cluster = make_cluster(name)
            run_with_suite(
                monkeypatch, suite, config, cluster, cluster, num_units,
                num_iterations=3, rng=0, serialize_master_link=True,
            )
        assert called == set(KERNEL_NAMES)

    @pytest.mark.parametrize("serialize", [False, True])
    @pytest.mark.parametrize("name", sorted(SCHEME_MATRIX))
    def test_stationary_identical(self, monkeypatch, name, serialize):
        config, num_units = SCHEME_MATRIX[name]
        cluster = make_cluster(name)
        assert_parity(
            monkeypatch, config, cluster, cluster, num_units,
            num_iterations=9, rng=123, serialize_master_link=serialize,
        )

    @pytest.mark.parametrize("serialize", [False, True])
    @pytest.mark.parametrize("name", sorted(SCHEME_MATRIX))
    def test_dynamic_identical(self, monkeypatch, name, serialize):
        config, num_units = SCHEME_MATRIX[name]
        base = make_cluster(name)
        assert_parity(
            monkeypatch, config, make_dynamic(base), base, num_units,
            num_iterations=9, rng=123, serialize_master_link=serialize,
        )


def covering_load(scheme, num_units, num_workers):
    """Smallest load whose random placement misses some unit w.p. <= 1/2.

    By the union bound one placement attempt leaves a unit uncovered with
    probability at most ``m (1 - r/m)^n`` for ``randomized`` (every unit is
    skipped by all ``n`` workers' ``r``-subsets) and ``N (1 - 1/N)^n`` over
    ``N = ceil(m/r)`` batches for ``bcc``. At or above this load all 100 of
    ``build_feasible_plan``'s independent attempts fail with probability at
    most ``2**-100``: every generated job is feasible, up to that chance.
    Load ``m`` always qualifies (every worker holds every unit).
    """
    for load in range(1, num_units + 1):
        if scheme == "bcc":
            batches = -(-num_units // load)
            miss = batches * (1 - 1 / batches) ** num_workers
        else:
            miss = num_units * (1 - load / num_units) ** num_workers
        if miss <= 0.5:
            return load


@settings(max_examples=20, deadline=None)
@given(
    scheme=st.sampled_from(["uncoded", "bcc", "cyclic-repetition", "randomized"]),
    num_workers=st.integers(min_value=4, max_value=24),
    num_iterations=st.integers(min_value=1, max_value=6),
    straggling=st.floats(min_value=0.1, max_value=4.0),
    serialize=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    extra_load=st.integers(min_value=0, max_value=3),
)
def test_random_jobs_identical(
    scheme, num_workers, num_iterations, straggling, serialize, seed, extra_load
):
    """Property: the NumPy kernels == the reference on arbitrary job shapes."""
    if scheme in ("bcc", "randomized"):
        num_units = num_workers * 2
        load = covering_load(scheme, num_units, num_workers) + extra_load
        config = {"name": scheme, "load": min(load, num_units)}
    elif scheme == "cyclic-repetition":
        config = {"name": scheme, "load": max(2, num_workers // 4)}
        num_units = num_workers  # coded schemes need m = n
    else:
        config = {"name": scheme}
        num_units = num_workers * 2
    cluster = ClusterSpec.homogeneous(
        num_workers,
        ShiftedExponentialDelay(straggling=straggling, shift=0.01),
        LinearCommunicationModel(latency=0.05, seconds_per_unit=0.02),
    )
    # Hypothesis forbids function-scoped fixtures, so patch by hand.
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_parity(
            monkeypatch, config, cluster, cluster, num_units,
            num_iterations=num_iterations, rng=seed, serialize_master_link=serialize,
        )


def test_covering_load_makes_the_known_infeasible_draw_feasible():
    # randomized, n = 22, m = 44, seed 4348628 missed a unit in all 100
    # attempts at the old fixed load of 5.
    load = covering_load("randomized", 44, 22)
    assert 5 < load <= 44
    scheme = scheme_from_config({"name": "randomized", "load": load})
    assert scheme.build_feasible_plan(44, 22, rng=4348628).can_ever_complete()
