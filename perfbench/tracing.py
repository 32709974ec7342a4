"""Layer spans recorded from outside the library.

:func:`install` wraps the public functions at each layer boundary of the
``repro`` package so that every call records a span (name, start, end,
parent) and a call count; :func:`uninstall` puts the originals back. No
library file changes: the wrappers live here and are installed by the
benchmark process, or by ``node.py`` inside a service node.

Wrappers must not change dispatch. Classmethods stay classmethods, and
``is_decodable`` is never wrapped: the vectorized engine's coded kernel and
``CodedScheme`` dispatch on ``type(code).is_decodable is
LinearGradientCode.is_decodable``, so decodability is measured one level
down, at ``decoding_vector``.

A call into a layer from inside the same layer (a ``super()`` chain, or
``sample_trials`` delegating to ``sample_grid``) joins the enclosing span
instead of opening a new one, so ``calls`` counts entries into the layer.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (span id, layer name, start, end, parent span id or -1, thread ident)
Span = Tuple[int, str, float, float, int, int]

#: Every span name :func:`install` records.
LAYERS = (
    "stragglers.compute_draw",
    "stragglers.transfer_draw",
    "coding.decoding_vector",
    "schemes.build_feasible_plan",
    "simulation.engine",
    "kernels.link_recurrence",
    "kernels.count_completion",
    "kernels.partial_sum_completion",
    "kernels.coverage_completion",
    "kernels.group_completion",
    "scheduling.build_sweep_plan",
    "service.sweep_from_request",
    "service.cache.task_key",
    "service.cache.lookup",
    "service.cache.store",
    "api.compact",
    "api.summary",
    "api.aggregate",
    "api.run_sweep",
    "api.tabulate",
)
#: Every counter :func:`install` keeps.
COUNTERS = ("simulation.rows", "scheduling.tasks", "scheduling.batched_cells")


class Tracer:
    """Spans and counters kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack()
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        parent = stack[-1][1] if stack else -1
        stack.append((name, span_id))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def dump(self, path) -> None:
        """Write every span and counter to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, handle)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the durations of its child spans."""
    own = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        if span[4] in own:
            own[span[4]] -= span[3] - span[2]
    return own


def layer_table(
    spans: List[Span], keep: Optional[Callable[[Span], bool]] = None
) -> Dict[str, Dict[str, float]]:
    """``{layer: {"calls": n, "self_s": seconds}}`` over the kept spans."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span in spans:
        if keep is not None and not keep(span):
            continue
        row = table[span[1]]
        row["calls"] += 1
        row["self_s"] += own[span[0]]
    return dict(table)


# --------------------------------------------------------------------------- #
# Installing the wrappers
# --------------------------------------------------------------------------- #
def _traced(tracer: Tracer, name: str, fn: Callable, before=None, after=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(tracer, result)
        return result

    return wrapper


def _subclasses(cls: type) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _count_rows(tracer: Tracer, args, kwargs) -> None:
    spec = args[1]
    seeds = args[2] if len(args) > 2 else kwargs.get("seeds")
    tracer.count("simulation.rows", spec.num_iterations * (1 if seeds is None else len(seeds)))


def _count_tasks(tracer: Tracer, plan) -> None:
    tracer.count("scheduling.tasks", len(plan.tasks))
    tracer.count("scheduling.batched_cells", sum(task.kind == "cell" for task in plan.tasks))


def _wrap_suite_getter(tracer: Tracer, get_suite: Callable) -> Callable:
    """``get_suite`` returning the suite with every kernel wrapped."""
    from repro.simulation.kernels import KernelSuite

    kernels = [field.name for field in dataclasses.fields(KernelSuite) if field.name != "name"]
    wrapped: Dict[str, KernelSuite] = {}

    @functools.wraps(get_suite)
    def traced_get_suite(name: str) -> KernelSuite:
        suite = get_suite(name)
        if suite.name not in wrapped:
            wrapped[suite.name] = dataclasses.replace(
                suite,
                **{kernel: _traced(tracer, f"kernels.{kernel}", getattr(suite, kernel))
                   for kernel in kernels},
            )
        return wrapped[suite.name]

    return traced_get_suite


#: Patches applied by :func:`install`: (owner, attribute, original).
_Patch = Tuple[object, str, object]


def install(tracer: Tracer) -> List[_Patch]:
    """Wrap every layer boundary; returns the patches for :func:`uninstall`."""
    import repro
    import repro.api.sweep as api_sweep
    import repro.service.server as server
    import repro.service.service as service
    import repro.simulation.vectorized as vectorized
    from repro.api.backends import TimingSimBackend
    from repro.api.result import RunResult
    from repro.api.sweep import SweepResult
    from repro.coding.linear_code import LinearGradientCode
    from repro.schemes.base import Scheme
    from repro.service.cache import ResultCache
    from repro.stragglers.base import DelayModel
    from repro.stragglers.communication import CommunicationModel
    from repro.utils.tables import TextTable

    patches: List[_Patch] = []

    def patch(owner, attribute: str, name: str, before=None, after=None) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(original, classmethod):
            replacement = classmethod(_traced(tracer, name, original.__func__, before, after))
        else:
            replacement = _traced(tracer, name, original, before, after)
        setattr(owner, attribute, replacement)
        patches.append((owner, attribute, original))

    def patch_hierarchy(root: type, attribute: str, name: str) -> None:
        for cls in _subclasses(root):
            if attribute in cls.__dict__:
                patch(cls, attribute, name)

    patch_hierarchy(DelayModel, "sample_grid", "stragglers.compute_draw")
    patch_hierarchy(DelayModel, "sample_trials", "stragglers.compute_draw")
    patch_hierarchy(CommunicationModel, "sample_batch", "stragglers.transfer_draw")
    patch_hierarchy(LinearGradientCode, "decoding_vector", "coding.decoding_vector")
    patch_hierarchy(Scheme, "build_feasible_plan", "schemes.build_feasible_plan")
    patch(TimingSimBackend, "run_batch", "simulation.engine", before=_count_rows)
    patch(TimingSimBackend, "run", "simulation.engine", before=_count_rows)
    patch(api_sweep, "build_sweep_plan", "scheduling.build_sweep_plan", after=_count_tasks)
    patch(service, "build_sweep_plan", "scheduling.build_sweep_plan", after=_count_tasks)
    patch(server, "sweep_from_request", "service.sweep_from_request")
    patch(ResultCache, "task_key", "service.cache.task_key")
    patch(ResultCache, "lookup", "service.cache.lookup")
    patch(ResultCache, "store", "service.cache.store")
    patch(RunResult, "compact", "api.compact")
    patch(RunResult, "summary", "api.summary")
    patch(SweepResult, "aggregate", "api.aggregate")
    patch(repro, "run_sweep", "api.run_sweep")
    patch(SweepResult, "to_table", "api.tabulate")
    patch(TextTable, "render", "api.tabulate")

    original_get_suite = vectorized.get_suite
    vectorized.get_suite = _wrap_suite_getter(tracer, original_get_suite)
    patches.append((vectorized, "get_suite", original_get_suite))
    return patches


def uninstall(patches: List[_Patch]) -> None:
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)
