"""Bit-identity of the native sample_batch / sample_trials paths.

Every vectorized path added to satisfy the RNG002 contract must consume the
random stream exactly like the scalar ``sample`` (for ``sample_batch``) or
like the generic per-trial grid loop (for ``sample_trials``) — same seeds,
bitwise-equal outputs. The link-aware ``sample_trials`` (the fused
exponential block) must match the generic per-draw compute/transfer
interleave and leave every generator in the same state. A subclass that
overrides ``sample`` must make the inherited native path step aside and
fall back to the generic delegate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.stragglers.base import DelayModel
from repro.stragglers.communication import LinearCommunicationModel
from repro.stragglers.models import (
    DeterministicDelay,
    ExponentialDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
    TraceDelay,
)

TRACE = [0.4, 1.0, 2.5, 0.9, 1.7]

MODELS = [
    ShiftedExponentialDelay(straggling=1.3, shift=0.7),
    DeterministicDelay(seconds_per_example=2.0),
    ParetoDelay(alpha=2.5, scale=1.2),
    TraceDelay(TRACE),
]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_sample_batch_matches_sized_scalar_sample(model):
    batch = model.sample_batch(7, rng=np.random.default_rng(42), size=64)
    sized = model.sample(7, rng=np.random.default_rng(42), size=64)
    np.testing.assert_array_equal(batch, np.asarray(sized, dtype=float))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_sample_batch_matches_generic_delegate(model):
    native = model.sample_batch(7, rng=np.random.default_rng(7), size=32)
    generic = DelayModel.sample_batch(model, 7, rng=np.random.default_rng(7), size=32)
    np.testing.assert_array_equal(native, generic)


@pytest.mark.parametrize(
    "make_models",
    [
        lambda: [ShiftedExponentialDelay(1.0 + 0.1 * j, shift=0.2 * j) for j in range(5)],
        lambda: [DeterministicDelay(0.5 + j) for j in range(5)],
        lambda: [ParetoDelay(alpha=1.5 + 0.3 * j, scale=1.0 + 0.1 * j) for j in range(5)],
        lambda: [TraceDelay(TRACE) for _ in range(5)],
    ],
    ids=["shifted-exponential", "deterministic", "pareto", "trace"],
)
def test_sample_trials_matches_generic_per_trial_loop(make_models):
    models = make_models()
    cls = type(models[0])
    loads = [3, 5, 7, 2, 9]
    seeds = [11, 22, 33]
    native = cls.sample_trials(
        models, loads, [np.random.default_rng(s) for s in seeds], num_draws=4
    )
    generic = DelayModel.sample_trials.__func__(
        cls, models, loads, [np.random.default_rng(s) for s in seeds], num_draws=4
    )
    assert native.shape == (3, 4, 5)
    np.testing.assert_array_equal(native, generic)


class _DoubledShiftedExponential(ShiftedExponentialDelay):
    """Override sample() to test the native paths' step-aside guard."""

    def sample(self, load, rng=None, size=None):
        result = super().sample(load, rng=rng, size=size)
        return 2.0 * result


def test_subclass_sample_override_falls_back_to_delegate():
    model = _DoubledShiftedExponential(straggling=1.5, shift=0.3)
    batch = model.sample_batch(4, rng=np.random.default_rng(5), size=16)
    expected = 2.0 * ShiftedExponentialDelay(straggling=1.5, shift=0.3).sample(
        4, rng=np.random.default_rng(5), size=16
    )
    np.testing.assert_array_equal(batch, expected)


class _DoubledPareto(ParetoDelay):
    def sample(self, load, rng=None, size=None):
        return 2.0 * super().sample(load, rng=rng, size=size)


class _DoubledDeterministic(DeterministicDelay):
    def sample(self, load, rng=None, size=None):
        return 2.0 * super().sample(load, rng=rng, size=size)


class _DoubledTrace(TraceDelay):
    def sample(self, load, rng=None, size=None):
        return 2.0 * super().sample(load, rng=rng, size=size)


@pytest.mark.parametrize(
    "model",
    [_DoubledPareto(2.5, 1.2), _DoubledDeterministic(2.0), _DoubledTrace(TRACE)],
    ids=lambda m: type(m).__name__,
)
def test_subclass_dispatch_respects_a_sample_override(model):
    # Dispatched through the subclass itself, the inherited native grid and
    # trial samplers must still see the override and defer to sample().
    models, loads, draws = [model] * 3, [2, 3, 4], 5
    cls = type(model)

    def scalar_grid(seed):
        rng = np.random.default_rng(seed)
        return [[m.sample(load, rng=rng) for m, load in zip(models, loads)]
                for _ in range(draws)]

    grid = cls.sample_grid(models, loads, np.random.default_rng(4), draws)
    np.testing.assert_array_equal(grid, scalar_grid(4))
    trials = cls.sample_trials(
        models, loads, [np.random.default_rng(s) for s in (4, 5)], draws
    )
    np.testing.assert_array_equal(trials, [scalar_grid(4), scalar_grid(5)])


def test_trace_trials_with_mixed_traces_fall_back():
    models = [TraceDelay(TRACE), TraceDelay([0.1, 0.2, 0.3])]
    loads = [2, 3]
    seeds = [1, 2]
    native = TraceDelay.sample_trials(
        models, loads, [np.random.default_rng(s) for s in seeds], num_draws=2
    )
    generic = DelayModel.sample_trials.__func__(
        TraceDelay, models, loads, [np.random.default_rng(s) for s in seeds], num_draws=2
    )
    np.testing.assert_array_equal(native, generic)


def test_deterministic_trials_consume_no_randomness():
    models = [DeterministicDelay(1.5), DeterministicDelay(2.0)]
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    states = [rng.bit_generator.state for rng in rngs]
    DeterministicDelay.sample_trials(models, [4, 6], rngs, num_draws=3)
    assert [rng.bit_generator.state for rng in rngs] == states


# --------------------------------------------------------------------------- #
# The load rule shared by the scalar and grid paths
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("load", [2.7, float("nan"), float("inf"), True, 0, -3])
def test_non_integral_loads_are_rejected_on_every_path(load):
    model = ShiftedExponentialDelay(straggling=1.0, shift=0.5)
    with pytest.raises(ConfigurationError):
        model.sample(load, rng=0)
    with pytest.raises(ConfigurationError):
        ShiftedExponentialDelay.sample_grid([model], [load], 0)
    with pytest.raises(ConfigurationError):
        DelayModel.sample_grid([model], [load], 0)
    with pytest.raises(ConfigurationError):
        ShiftedExponentialDelay.sample_trials([model], [load], [0])


def test_fractional_grid_load_no_longer_draws_with_the_fraction():
    # Regression: the native grid used to draw 2.7 as-is while the scalar
    # and generic paths truncated it to 2.
    model = ShiftedExponentialDelay(straggling=1.0, shift=0.5)
    with pytest.raises(ConfigurationError, match="whole"):
        ShiftedExponentialDelay.sample_grid([model], [2.7], np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="whole"):
        ShiftedExponentialDelay.sample_grid([model, model], [3, True], 0)


def test_integral_float_loads_equal_int_loads():
    model = ShiftedExponentialDelay(straggling=1.3, shift=0.2)
    as_int = ShiftedExponentialDelay.sample_grid([model], [3], np.random.default_rng(4))
    as_float = ShiftedExponentialDelay.sample_grid(
        [model], np.array([3.0]), np.random.default_rng(4)
    )
    np.testing.assert_array_equal(as_int, as_float)
    assert model.sample(3.0, rng=4) == model.sample(3, rng=4)


# --------------------------------------------------------------------------- #
# The link-aware sample_trials: fused block == generic interleave
# --------------------------------------------------------------------------- #
JITTERED = LinearCommunicationModel(latency=0.01, seconds_per_unit=0.02, jitter=0.05)


def _interleave(cls, models, loads, link, seeds, num_draws):
    """Draw through ``cls``'s schedule and the generic one; return both plus
    every generator's end state."""
    native_rngs = [np.random.default_rng(s) for s in seeds]
    generic_rngs = [np.random.default_rng(s) for s in seeds]
    native = cls.sample_trials(models, loads, native_rngs, num_draws, link=link)
    generic = DelayModel.sample_trials.__func__(
        cls, models, loads, generic_rngs, num_draws, link=link
    )
    states = (
        [rng.bit_generator.state for rng in native_rngs],
        [rng.bit_generator.state for rng in generic_rngs],
    )
    return native, generic, states


@pytest.mark.parametrize(
    "make_models, sizes",
    [
        (lambda: [ShiftedExponentialDelay(1.5, 0.1)] * 6, [1.0] * 6),
        (
            lambda: [ShiftedExponentialDelay(0.5 + 0.4 * j, 0.05 * j) for j in range(6)],
            [3.0, 1.0, 7.0, 2.0, 2.0, 5.0],
        ),
        (lambda: [ExponentialDelay(0.7 + 0.2 * j) for j in range(6)], [8.0] * 6),
    ],
    ids=["homogeneous", "heterogeneous-unequal-sizes", "exponential"],
)
def test_fused_trials_replay_the_generic_interleave(make_models, sizes):
    models = make_models()
    cls = type(models[0])
    loads = [3, 5, 7, 2, 9, 4]
    link = (JITTERED, np.array(sizes))
    (compute, transfer), (g_compute, g_transfer), (ends, g_ends) = _interleave(
        cls, models, loads, link, [11, 22, 33], num_draws=9
    )
    assert compute.shape == transfer.shape == (3, 9, 6)
    np.testing.assert_array_equal(compute, g_compute)
    np.testing.assert_array_equal(transfer, g_transfer)
    assert ends == g_ends


def test_fused_compute_equals_the_linkless_tensor_of_a_deterministic_link():
    models = [ShiftedExponentialDelay(1.0 + 0.1 * j, 0.2) for j in range(4)]
    loads = [2, 4, 6, 8]
    link = (LinearCommunicationModel(latency=0.01, seconds_per_unit=0.02), np.ones(4))
    compute, transfer = ShiftedExponentialDelay.sample_trials(
        models, loads, [np.random.default_rng(1)], 5, link=link
    )
    tensor = ShiftedExponentialDelay.sample_trials(
        models, loads, [np.random.default_rng(1)], 5
    )
    np.testing.assert_array_equal(compute, tensor)
    np.testing.assert_array_equal(transfer, np.full((1, 5, 4), 0.01 + 0.02))


class _DoubledLink(LinearCommunicationModel):
    """Override sample() so the link can no longer prove the fused identity."""

    def sample(self, message_size, rng=None, size=None):
        return 2.0 * super().sample(message_size, rng=rng, size=size)


def test_split_jitter_steps_aside_unless_it_is_exact():
    fixed, jitter = JITTERED.split_jitter()
    assert jitter == 0.05 and fixed.is_deterministic
    np.testing.assert_array_equal(
        fixed.sample_batch(np.array([1.0, 3.0])), [0.01 + 0.02, 0.01 + 0.06]
    )
    assert LinearCommunicationModel(latency=0.1).split_jitter() is None
    assert _DoubledLink(jitter=0.05).split_jitter() is None


@pytest.mark.parametrize(
    "models, link",
    [
        ([_DoubledShiftedExponential(1.0, 0.1)] * 4, (JITTERED, np.ones(4))),
        ([ShiftedExponentialDelay(1.0, 0.1)] * 4, (_DoubledLink(jitter=0.05), np.ones(4))),
        (
            [ShiftedExponentialDelay(1.0, 0.1)] * 3 + [ParetoDelay(2.5, 0.05)],
            (JITTERED, np.ones(4)),
        ),
    ],
    ids=["delay-sample-override", "link-sample-override", "pareto-worker"],
)
def test_unprovable_groups_take_the_per_draw_interleave(models, link, monkeypatch):
    rows = []
    original = ShiftedExponentialDelay.sample_grid.__func__
    monkeypatch.setattr(
        ShiftedExponentialDelay,
        "sample_grid",
        classmethod(lambda cls, *a, **k: rows.append(1) or original(cls, *a, **k)),
    )
    rng = np.random.default_rng(3)
    compute, transfer = ShiftedExponentialDelay.sample_trials(
        models, [2, 3, 4, 5], [rng], 6, link=link
    )
    assert len(rows) == 6  # one generic grid row per draw
    scalar = np.random.default_rng(3)
    communication, sizes = link
    for i in range(6):
        row = [m.sample(load, rng=scalar) for m, load in zip(models, [2, 3, 4, 5])]
        np.testing.assert_array_equal(compute[0, i], row)
        for j in np.argsort(row, kind="stable"):
            assert transfer[0, i, j] == communication.sample(sizes[j], rng=scalar)
    assert rng.bit_generator.state == scalar.bit_generator.state


def test_link_sizes_must_match_the_models():
    models = [ShiftedExponentialDelay(1.0)] * 3
    with pytest.raises(ConfigurationError, match="message sizes"):
        ShiftedExponentialDelay.sample_trials(
            models, [1, 2, 3], [0], 2, link=(JITTERED, np.ones(2))
        )
