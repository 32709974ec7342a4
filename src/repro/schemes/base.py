"""Scheme, ExecutionPlan and master-side aggregators.

Terminology
-----------
*Unit*
    The granularity at which data is placed and accounted. In the paper's
    EC2 experiments a unit is a batch of 100 examples treated as one "super
    example"; in the purely analytical results a unit is a single example.
    Message sizes are measured in units of one gradient vector regardless.

*Execution plan*
    A frozen placement plus the worker-side encoder and a factory for
    master-side aggregators. One plan is built per training job (the paper
    loads data onto the workers once, before the iterations start); a fresh
    aggregator is created for every iteration.

*Aggregator*
    The master-side state machine for one iteration: it is fed
    ``(worker, message)`` pairs in arrival order, reports when enough
    messages have been received (the scheme's stopping rule) and finally
    decodes the sum of all units' gradients.

Timing-only mode
----------------
The discrete-event simulator often only needs the *stopping rule*, not the
numerical gradient. Aggregators therefore accept ``message=None``; they then
track completion exactly as they would with real messages but skip storage,
and :meth:`MasterAggregator.decode` is unavailable.
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.analysis.analytic import AnalyticIteration, DEFAULT_QUANTILES
from repro.coding.assignment import DataAssignment
from repro.coding.linear_code import LinearGradientCode
from repro.exceptions import (
    AnalyticIntractableError,
    ConfigurationError,
    CoverageError,
    DecodingError,
)
from repro.utils.rng import RandomState

__all__ = [
    "MasterAggregator",
    "CountAggregator",
    "BatchCoverageAggregator",
    "UnitCoverageAggregator",
    "CodedAggregator",
    "ExecutionPlan",
    "Scheme",
]


# --------------------------------------------------------------------------- #
# Aggregators
# --------------------------------------------------------------------------- #
class MasterAggregator(abc.ABC):
    """Master-side per-iteration state: stopping rule plus decoding."""

    def __init__(self) -> None:
        self._received_workers: List[int] = []
        self._messages_kept = 0

    # -- stopping rule -------------------------------------------------- #
    @abc.abstractmethod
    def _accept(self, worker: int, message: Optional[np.ndarray]) -> bool:
        """Process one arrival; return True if the message was *kept*."""

    @abc.abstractmethod
    def is_complete(self) -> bool:
        """True once the master can recover the full gradient."""

    @abc.abstractmethod
    def decode(self) -> np.ndarray:
        """Return the *sum* of every unit's gradient (caller divides by ``m``)."""

    # -- shared bookkeeping --------------------------------------------- #
    def receive(self, worker: int, message: Optional[np.ndarray] = None) -> bool:
        """Feed one arrival to the aggregator.

        Parameters
        ----------
        worker:
            Index of the worker whose message arrived.
        message:
            The worker's message, or ``None`` in timing-only mode.

        Returns
        -------
        bool
            ``True`` once the aggregator is complete (this arrival may or may
            not have been the deciding one).
        """
        if self.is_complete():
            # Late arrivals after completion are ignored entirely; the paper's
            # master simply stops listening.
            return True
        self._received_workers.append(int(worker))
        if self._accept(int(worker), message):
            self._messages_kept += 1
        return self.is_complete()

    @property
    def workers_heard(self) -> int:
        """Number of worker messages received before (and including) completion."""
        return len(self._received_workers)

    @property
    def received_workers(self) -> List[int]:
        """Worker indices in arrival order."""
        return list(self._received_workers)

    @property
    def messages_kept(self) -> int:
        """Number of messages the master stored (i.e. did not discard)."""
        return self._messages_kept


class CountAggregator(MasterAggregator):
    """Wait for a fixed set of workers (the uncoded / load-balanced rule).

    The master keeps every message from a worker in ``required_workers`` and
    is complete when all of them have reported. Decoding is a plain sum.
    """

    def __init__(self, required_workers: Sequence[int]) -> None:
        super().__init__()
        self._required = set(int(w) for w in required_workers)
        if not self._required:
            raise CoverageError("CountAggregator needs at least one required worker")
        self._pending = set(self._required)
        self._sum: Optional[np.ndarray] = None

    def _accept(self, worker: int, message: Optional[np.ndarray]) -> bool:
        if worker not in self._pending:
            return False
        self._pending.discard(worker)
        if message is not None:
            message = np.asarray(message, dtype=float)
            self._sum = message.copy() if self._sum is None else self._sum + message
        return True

    @property
    def required_workers(self) -> List[int]:
        """Sorted worker indices the master waits for (the stopping rule)."""
        return sorted(self._required)

    def is_complete(self) -> bool:
        return not self._pending

    def decode(self) -> np.ndarray:
        if not self.is_complete():
            raise DecodingError("cannot decode before all required workers reported")
        if self._sum is None:
            raise DecodingError("decode() is unavailable in timing-only mode")
        return self._sum


class BatchCoverageAggregator(MasterAggregator):
    """The BCC master rule (Section III-A, "Data Aggregation at the Master").

    Each arriving message is the summed gradient of one batch; the master
    keeps the first message per batch, discards repeats, and is complete when
    every batch has been seen. Decoding sums the kept messages.
    """

    def __init__(self, num_batches: int, worker_batches: Sequence[int]) -> None:
        super().__init__()
        if num_batches < 1:
            raise CoverageError("num_batches must be positive")
        self._num_batches = int(num_batches)
        self._worker_batches = [int(b) for b in worker_batches]
        self._seen = np.zeros(self._num_batches, dtype=bool)
        self._sum: Optional[np.ndarray] = None

    def _accept(self, worker: int, message: Optional[np.ndarray]) -> bool:
        batch = self._worker_batches[worker]
        if self._seen[batch]:
            return False
        self._seen[batch] = True
        if message is not None:
            message = np.asarray(message, dtype=float)
            self._sum = message.copy() if self._sum is None else self._sum + message
        return True

    def is_complete(self) -> bool:
        return bool(self._seen.all())

    def decode(self) -> np.ndarray:
        if not self.is_complete():
            raise DecodingError("cannot decode before all batches are covered")
        if self._sum is None:
            raise DecodingError("decode() is unavailable in timing-only mode")
        return self._sum

    @property
    def batches_covered(self) -> int:
        """Number of distinct batches received so far."""
        return int(self._seen.sum())

    @property
    def num_batches(self) -> int:
        """Number of batches that must be covered for completion."""
        return self._num_batches

    @property
    def worker_batches(self) -> List[int]:
        """Batch id each worker's message carries, in worker order."""
        return list(self._worker_batches)


class UnitCoverageAggregator(MasterAggregator):
    """Coverage at unit granularity with per-unit messages.

    Used by the simple randomized scheme and the generalized BCC scheme:
    worker ``i``'s message is the stacked matrix of its units' gradients (one
    row per unit, in the order of its assignment). The master keeps the first
    gradient it sees for each unit and is complete once every unit is
    covered. Decoding sums one kept gradient per unit.
    """

    def __init__(self, num_units: int, assignment: DataAssignment) -> None:
        super().__init__()
        self._num_units = int(num_units)
        self._assignment = assignment
        self._covered = np.zeros(self._num_units, dtype=bool)
        self._unit_gradients: Dict[int, np.ndarray] = {}

    def _accept(self, worker: int, message: Optional[np.ndarray]) -> bool:
        units = self._assignment.worker_indices(worker)
        if units.size == 0:
            return False
        new_units = units[~self._covered[units]]
        if new_units.size == 0:
            return False
        if message is not None:
            message = np.asarray(message, dtype=float)
            if message.ndim != 2 or message.shape[0] != units.size:
                raise DecodingError(
                    f"worker {worker} sent a message of shape {message.shape}; "
                    f"expected ({units.size}, p)"
                )
            position = {int(unit): row for row, unit in enumerate(units)}
            for unit in new_units:
                self._unit_gradients[int(unit)] = message[position[int(unit)]]
        self._covered[new_units] = True
        return True

    def is_complete(self) -> bool:
        return bool(self._covered.all())

    def decode(self) -> np.ndarray:
        if not self.is_complete():
            raise DecodingError("cannot decode before every unit is covered")
        if len(self._unit_gradients) != self._num_units:
            raise DecodingError("decode() is unavailable in timing-only mode")
        return np.sum(
            [self._unit_gradients[unit] for unit in range(self._num_units)], axis=0
        )

    @property
    def units_covered(self) -> int:
        """Number of distinct units received so far."""
        return int(self._covered.sum())

    @property
    def num_units(self) -> int:
        """Number of units that must be covered for completion."""
        return self._num_units

    @property
    def assignment(self) -> DataAssignment:
        """The worker-to-unit placement the coverage rule runs over."""
        return self._assignment


class CodedAggregator(MasterAggregator):
    """Aggregator for linear gradient codes (cyclic repetition, RS, fractional).

    The master stores every received coded message and is complete once the
    received worker set is decodable. For the worst-case designs this happens
    exactly when ``n - s`` workers have reported; the fractional-repetition
    code's overridden ``is_decodable`` completes earlier when a whole
    replication group has reported.
    """

    def __init__(self, code: LinearGradientCode, *, check_every: int = 1) -> None:
        super().__init__()
        self._code = code
        self._messages: Dict[int, np.ndarray] = {}
        self._workers: List[int] = []
        self._complete = False
        self._check_every = max(int(check_every), 1)
        self._minimum_needed = max(
            1, code.num_workers - getattr(code, "num_stragglers", 0)
        )
        self._decodability_checks = 0

    def _accept(self, worker: int, message: Optional[np.ndarray]) -> bool:
        self._workers.append(worker)
        if message is not None:
            self._messages[worker] = np.asarray(message, dtype=float)
        if not self._complete and self.is_due(len(self._workers)):
            self._decodability_checks += 1
            self._complete = self._code.is_decodable(self._workers)
        return True

    def is_due(self, count: int) -> bool:
        """Whether the decodability test runs when the ``count``-th worker arrives.

        The test (a QR solve of the received rows, certified by its
        residual; see :meth:`LinearGradientCode.decoding_vector`) first runs
        at the worst-case threshold ``n - s``, then every ``check_every``
        arrivals after it, plus unconditionally on the last worker so
        completion is never skipped past. Opportunistic codes (fractional
        repetition overrides ``is_decodable`` with a cheap group test) are
        tested on every arrival. Both timing engines take the cadence from
        here; the vectorized one tests every pending row's prefix at a
        checkpoint in one stacked call.
        """
        if self.opportunistic:
            return True
        if count < self._minimum_needed:
            return False
        return (
            (count - self._minimum_needed) % self._check_every == 0
            or count >= self._code.num_workers
        )

    @property
    def decodability_checks(self) -> int:
        """Number of times the (expensive) decodability test actually ran."""
        return self._decodability_checks

    @property
    def code(self) -> LinearGradientCode:
        """The linear gradient code deciding decodability."""
        return self._code

    @property
    def opportunistic(self) -> bool:
        """Whether the code's cheap decodability test runs on every arrival."""
        return type(self._code).is_decodable is not LinearGradientCode.is_decodable

    def is_complete(self) -> bool:
        return self._complete

    def decode(self) -> np.ndarray:
        if not self._complete:
            raise DecodingError("the received worker set is not decodable yet")
        if len(self._messages) != len(self._workers):
            raise DecodingError("decode() is unavailable in timing-only mode")
        stacked = np.vstack([self._messages[w] for w in self._workers])
        return self._code.decode(self._workers, stacked)


# --------------------------------------------------------------------------- #
# Execution plan
# --------------------------------------------------------------------------- #
Encoder = Callable[[int, np.ndarray], np.ndarray]
"""``encoder(worker, unit_gradients) -> message``; ``unit_gradients`` has one
row per unit of the worker's assignment, in assignment order."""


@dataclass
class ExecutionPlan:
    """A frozen placement plus encoding and aggregation for one training job.

    Attributes
    ----------
    scheme_name:
        Name of the scheme that produced the plan.
    num_units:
        Number of data units being distributed.
    unit_assignment:
        Placement at unit granularity (worker -> unit indices).
    message_sizes:
        Per-worker message size in gradient units (1.0 for summed/coded
        messages, the worker's load for per-unit messages).
    aggregator_factory:
        Zero-argument callable returning a fresh aggregator for an iteration.
    encoder:
        Worker-side encoder; see :data:`Encoder`.
    metadata:
        Scheme-specific extras (e.g. the BCC batch choices, coded scheme's
        encoding matrix) surfaced for inspection and tests.
    """

    scheme_name: str
    num_units: int
    unit_assignment: DataAssignment
    message_sizes: np.ndarray
    aggregator_factory: Callable[[], MasterAggregator]
    encoder: Encoder
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        sizes = np.asarray(self.message_sizes, dtype=float)
        if sizes.shape[0] != self.unit_assignment.num_workers:
            raise CoverageError(
                "message_sizes must have one entry per worker "
                f"({sizes.shape[0]} != {self.unit_assignment.num_workers})"
            )
        if np.any(sizes < 0):
            raise CoverageError("message sizes must be non-negative")
        self.message_sizes = sizes

    @property
    def num_workers(self) -> int:
        """Number of workers in the plan."""
        return self.unit_assignment.num_workers

    @property
    def computational_load_units(self) -> int:
        """The computational load ``r`` in units (paper Definition 1)."""
        return self.unit_assignment.computational_load

    def worker_units(self, worker: int) -> np.ndarray:
        """Unit indices assigned to ``worker``."""
        return self.unit_assignment.worker_indices(worker)

    def encode(self, worker: int, unit_gradients: np.ndarray) -> np.ndarray:
        """Run the worker-side encoder for ``worker``."""
        return self.encoder(worker, np.asarray(unit_gradients, dtype=float))

    def new_aggregator(self) -> MasterAggregator:
        """Create a fresh master aggregator for one iteration."""
        return self.aggregator_factory()

    def can_ever_complete(self) -> bool:
        """Whether coverage/decodability is achievable with *all* workers reporting.

        A BCC plan whose random batch choices happen to miss a batch cannot
        complete no matter how long the master waits; callers use this to
        re-draw the placement (or fail loudly) before running a job.
        """
        aggregator = self.new_aggregator()
        for worker in range(self.num_workers):
            if aggregator.receive(worker, None):
                return True
        return aggregator.is_complete()


# --------------------------------------------------------------------------- #
# Scheme interface
# --------------------------------------------------------------------------- #
class Scheme(abc.ABC):
    """A distributed-GD scheme: placement + encoding + aggregation rules."""

    #: Human-readable scheme name (class attribute overridden by subclasses).
    name: str = "scheme"

    #: Constructor parameters that pin the per-worker placement. The ambient
    #: cluster :meth:`from_config` receives is only injected when the config
    #: sets none of these, so an explicit placement (e.g. ``loads``) is never
    #: combined with — or silently shadowed by — the job's cluster.
    #: Subclasses with other placement inputs extend this tuple.
    placement_parameters: Sequence[str] = ("cluster", "loads")

    @abc.abstractmethod
    def build_plan(
        self, num_units: int, num_workers: int, rng: RandomState = None
    ) -> ExecutionPlan:
        """Freeze a placement for ``num_units`` data units over ``num_workers`` workers."""

    # ------------------------------------------------------------------ #
    @classmethod
    def constructor_parameters(cls) -> List[str]:
        """Names of the keyword parameters the scheme's constructor accepts."""
        if cls.__init__ is object.__init__:
            return []
        signature = inspect.signature(cls.__init__)
        return [
            name
            for name, parameter in signature.parameters.items()
            if name != "self"
            and parameter.kind
            not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        ]

    @classmethod
    def from_config(
        cls,
        config: Optional[Mapping[str, object]] = None,
        *,
        cluster: Optional[object] = None,
        **kwargs: object,
    ) -> "Scheme":
        """Construct the scheme from a plain configuration mapping.

        This is the config-driven entry point the registry and the
        :class:`~repro.api.JobSpec` machinery use: every key must name a
        constructor parameter (a ``name`` key identifying the scheme itself
        is tolerated and dropped), and inapplicable keys raise
        :class:`~repro.exceptions.ConfigurationError` instead of being
        silently ignored.

        Parameters
        ----------
        config:
            Mapping of constructor keyword arguments (merged with ``kwargs``).
        cluster:
            Ambient :class:`~repro.cluster.ClusterSpec`. Schemes whose
            constructor accepts a ``cluster`` parameter (the heterogeneous
            ones) receive it automatically unless the config already pins the
            placement via explicit ``cluster``/``loads`` entries; every other
            scheme ignores it, so callers can always pass the job's cluster.
        """
        options: Dict[str, object] = {**(dict(config) if config else {}), **kwargs}
        declared_name = options.pop("name", None)
        if declared_name is not None and declared_name != cls.name:
            raise ConfigurationError(
                f"config names scheme {declared_name!r} but was routed to "
                f"{cls.name!r}"
            )
        accepted = cls.constructor_parameters()
        accepts_var_kwargs = cls.__init__ is not object.__init__ and any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in inspect.signature(cls.__init__).parameters.values()
        )
        if not accepts_var_kwargs:
            unknown = sorted(set(options) - set(accepted))
            if unknown:
                raise ConfigurationError(
                    f"scheme {cls.name!r} does not accept the parameter(s) "
                    f"{unknown}; accepted parameters: {sorted(accepted)}"
                )
        if (
            cluster is not None
            and "cluster" in accepted
            and not any(parameter in options for parameter in cls.placement_parameters)
        ):
            options["cluster"] = cluster
        return cls(**options)

    # ------------------------------------------------------------------ #
    def analytic_runtime(
        self,
        cluster: ClusterSpec,
        num_units: int,
        *,
        unit_size: int = 1,
        serialize_master_link: bool = True,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> AnalyticIteration:
        """Closed-form expected per-iteration runtime of this scheme.

        This is the hook behind :class:`~repro.api.backends.AnalyticBackend`:
        given the cluster (whose :class:`~repro.stragglers.base.DelayModel`
        and :class:`~repro.stragglers.communication.CommunicationModel`
        supply the arrival-time distributions), return an
        :class:`~repro.analysis.analytic.AnalyticIteration` describing the
        expected iteration time, its order-statistic quantiles, and the
        expected recovery threshold / communication load — without simulating
        a single iteration.

        Subclasses implement it for the regimes their stopping rule admits in
        closed form; the base implementation (and any implementation asked
        for an uncovered configuration, e.g. Pareto workers or a serialised
        link on a heterogeneous cluster) raises
        :class:`~repro.exceptions.AnalyticIntractableError` so callers can
        fall back to a simulation backend.

        Parameters
        ----------
        cluster:
            The :class:`~repro.cluster.ClusterSpec` whose delay and
            communication models parameterise the closed forms.
        num_units:
            Number of data units ``m``.
        unit_size:
            Examples per unit (scales the computation-time parameters).
        serialize_master_link:
            Whether master-side receptions are serialised over one link.
        quantiles:
            Quantile levels to evaluate alongside the mean.
        """
        raise AnalyticIntractableError(
            f"scheme {self.name!r} has no closed-form runtime model; run it "
            "on a simulation backend instead"
        )

    def expected_recovery_threshold(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        """The scheme's analytical recovery threshold, if known (else ``None``)."""
        return None

    def expected_communication_load(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        """The scheme's analytical communication load, if known (else ``None``)."""
        return None

    def build_feasible_plan(
        self,
        num_units: int,
        num_workers: int,
        rng: RandomState = None,
        *,
        max_attempts: int = 100,
    ) -> ExecutionPlan:
        """Build a plan, re-drawing a random placement until it can complete.

        Deterministic schemes succeed on the first attempt; the BCC scheme
        re-draws its batch choices in the (rare, for ``n`` comfortably above
        ``(m/r) log(m/r)``) event that some batch was never selected.
        """
        from repro.utils.rng import as_generator

        generator = as_generator(rng)
        last_plan: Optional[ExecutionPlan] = None
        for _attempt in range(max(int(max_attempts), 1)):
            plan = self.build_plan(num_units, num_workers, generator)
            if plan.can_ever_complete():
                return plan
            last_plan = plan
        raise CoverageError(
            f"scheme {self.name!r} failed to produce a feasible placement in "
            f"{max_attempts} attempts (num_units={num_units}, "
            f"num_workers={num_workers})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def sum_encoder(worker: int, unit_gradients: np.ndarray) -> np.ndarray:
    """Encoder that sums the worker's unit gradients into a single vector (Eq. 12)."""
    return unit_gradients.sum(axis=0)


def identity_encoder(worker: int, unit_gradients: np.ndarray) -> np.ndarray:
    """Encoder that forwards every unit gradient unchanged (one row per unit)."""
    return unit_gradients
