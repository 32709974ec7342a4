"""Completion kernels for the vectorized timing engine.

The vectorized engine's hot path is five tight array kernels — the
serialized-master-link arrival recurrence and the per-scheme completion
searches (fixed-set count, arrival-count selection, coverage
coupon-collector, replication-group completion). They sit behind one call
surface, :class:`KernelSuite`, with one implementation: the NumPy
expressions in :mod:`~repro.simulation.kernels.numpy_impl`.

The engine fetches its suite through :func:`get_suite` (looked up as
``repro.simulation.vectorized.get_suite`` on every run), which is the seam a
profiler or a test uses to wrap or substitute the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.simulation.kernels import numpy_impl

__all__ = ["KernelSuite", "get_suite", "resolve_kernels"]


@dataclass(frozen=True)
class KernelSuite:
    """The implementations of the five hot-path kernels.

    All arrays are row-major with independent rows; every callable
    allocates and returns its output. ``positions`` matrices hold each
    active column's arrival rank; completion kernels return the 0-based
    rank completing each row (callers translate out-of-range sentinels to
    "never completes").
    """

    name: str
    link_recurrence: Callable[[np.ndarray, np.ndarray], np.ndarray]
    count_completion: Callable[[np.ndarray, np.ndarray], np.ndarray]
    partial_sum_completion: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    coverage_completion: Callable[
        [np.ndarray, np.ndarray, np.ndarray], np.ndarray
    ]
    group_completion: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


_NUMPY_SUITE = KernelSuite(
    name="numpy",
    link_recurrence=numpy_impl.link_recurrence,
    count_completion=numpy_impl.count_completion,
    partial_sum_completion=numpy_impl.partial_sum_completion,
    coverage_completion=numpy_impl.coverage_completion,
    group_completion=numpy_impl.group_completion,
)


def resolve_kernels(kernels: str) -> str:
    """The kernel implementation a name selects: always ``"numpy"``.

    Accepts ``"auto"`` and ``"numpy"``; anything else is a
    :class:`~repro.exceptions.ConfigurationError`.
    """
    if kernels not in ("auto", "numpy"):
        raise ConfigurationError(
            f"unknown kernels {kernels!r}; the only implementation is 'numpy'"
        )
    return "numpy"


def get_suite(kernels: str = "numpy") -> KernelSuite:
    """The :class:`KernelSuite` ``kernels`` resolves to."""
    resolve_kernels(kernels)
    return _NUMPY_SUITE
