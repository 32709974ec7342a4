"""End-to-end benchmark of the repro straggler-mitigation simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workloads and metrics are declared in
``BENCHMARK.json``; README.md next to this file says why each exists.

With ``--trace 0`` the run measures the end-to-end metrics: set-up is
repeated in fresh processes and its median reported, then the workload's
closed loop of cold and warm sweep submissions runs for about ``S``
seconds. With ``--trace 1`` the run submits one untraced and one traced
pass of the same requests and reports the per-layer metrics, the traced
pass's coverage, its overhead, and whether its outputs were byte-identical.

Every output is checked (see ``workloads.py``); a wrong cell or request
counts as failed. The last line of stdout is the JSON result; a full run
record with provenance goes to ``.perfbench_runs/`` under the root.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Task slots of the service node: one task at a time. With 2 slots on 2
#: cores its latencies varied more from run to run.
NODE_WORKERS = "1"
#: Rounds of the untraced and of the traced pass in a ``--trace 1`` run.
TRACE_ROUNDS = {"paper_mixed": 1, "bcc_montecarlo": 1, "service_resubmit": 3}


def import_repro():
    """Import the library from this checkout's ``src``, or fail loudly."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {error}")
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --------------------------------------------------------------------------- #
# Provenance
# --------------------------------------------------------------------------- #
def _commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
        "env": {key: os.environ.get(key) for key in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def provenance(workload: str, seed: int) -> dict:
    import numpy as np
    from repro.simulation.kernels import resolve_kernels

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "kernels": resolve_kernels("auto"),
        "engine": "vectorized",
        "workload": workload,
        "seed": seed,
    }


# --------------------------------------------------------------------------- #
# Shared bookkeeping
# --------------------------------------------------------------------------- #
class Tally:
    """Submissions and the attempted/failed operation counts of one pass."""

    def __init__(self) -> None:
        #: (kind, start, latency) per submission, kind "cold" or "warm"
        self.log: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        #: seconds of each fresh set-up sampled during the pass
        self.setup: List[float] = []

    def add(self, kind: str, start: float, latency: float) -> None:
        self.log.append((kind, start, latency))

    def latencies(self, kind: str) -> List[float]:
        return [latency for entry_kind, _, latency in self.log if entry_kind == kind]

    def busy(self) -> float:
        return sum(latency for _, _, latency in self.log)


def closed_loop(shape, rounds: int, seconds: float, cold, warm, probe=None, max_rounds=None):
    """Rounds of one ``cold()`` then ``shape.warm_per_round`` calls of ``warm()``.

    ``rounds == 0`` runs as many rounds as fit in ``seconds``, and at least
    ``shape.min_rounds``. ``probe`` (a timed fresh set-up) is called
    ``SETUP_REPEATS`` times, spread over the first ``min_rounds`` rounds so
    that set-up is sampled across the run rather than in one burst; the
    samples are returned.
    """
    total = shape.min_rounds * shape.warm_per_round
    when = {i * total // SETUP_REPEATS for i in range(SETUP_REPEATS)} if probe else set()
    setup: List[float] = []
    start = time.perf_counter()
    done = warm_count = 0
    while max_rounds is None or done < max_rounds:
        if rounds:
            if done == rounds:
                break
        elif done >= shape.min_rounds:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > seconds:
                break
        cold(done)
        for _ in range(shape.warm_per_round):
            if warm_count in when:
                setup.append(probe())
            warm(done)
            warm_count += 1
        done += 1
    return setup


# --------------------------------------------------------------------------- #
# Batch workloads: run_sweep in this process
# --------------------------------------------------------------------------- #
def batch_probe(workload: str, input_seed: int) -> float:
    """Seconds from spawning a fresh process to its sweep being built."""
    start = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(input_seed)],
        stdout=subprocess.PIPE, env=child_env(),
    )
    line = probe.stdout.readline()
    elapsed = time.perf_counter() - start
    probe.stdout.close()
    if probe.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with code {probe.returncode}")
    return elapsed


def batch_pass(workload: str, sweep, expected, rounds: int, seconds: float, probe=None):
    """Rounds of one cold sweep (fresh cache) and its warm resubmissions.

    Returns the tally, every submission's rendered table, and the cache
    hit rate.
    """
    from repro.service.cache import ResultCache

    tally = Tally()
    tables: List[str] = []
    cells = len(expected)
    stores: List[ResultCache] = []
    cold_tables: List[str] = []
    cold_means: List[list] = []

    def cold(_round: int) -> None:
        stores.append(ResultCache())
        began = time.perf_counter()
        result, table = wl.run_batch_sweep(sweep, stores[-1])
        tally.add("cold", began, time.perf_counter() - began)
        tables.append(table)
        cold_tables.append(table)
        cold_means.append(wl.sweep_cell_means(result))
        tally.attempted += cells
        tally.failed += wl.mismatched_cells(cold_means[-1], expected)

    def warm(_round: int) -> None:
        store = stores[-1]
        hits_before = store.stats.hits
        began = time.perf_counter()
        result, table = wl.run_batch_sweep(sweep, store)
        tally.add("warm", began, time.perf_counter() - began)
        tally.attempted += cells
        if store.stats.hits - hits_before != cells:
            tally.failed += cells
        elif table != cold_tables[-1]:
            tally.failed += max(1, wl.mismatched_cells(wl.sweep_cell_means(result), cold_means[-1]))
        tables.append(table)

    tally.setup = closed_loop(wl.WORKLOADS[workload], rounds, seconds, cold, warm, probe)
    hits = sum(store.stats.hits for store in stores)
    lookups = hits + sum(store.stats.misses for store in stores)
    return tally, tables, hits / lookups


def run_batch(workload: str, seed: int, seconds: float, trace: bool, record: dict) -> dict:
    input_seed = wl.batch_input_seed(seed)
    expected = load_reference()[workload][str(input_seed)]
    record["input_seed"] = input_seed
    sweep = wl.build_sweep(workload, input_seed)
    if not trace:
        tally, _, _ = batch_pass(
            workload, sweep, expected, 0, seconds, probe=lambda: batch_probe(workload, input_seed)
        )
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return finish(record, tally, end_to_end(tally))

    rounds = TRACE_ROUNDS[workload]
    plain, plain_tables, _ = batch_pass(workload, sweep, expected, rounds, seconds)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced, traced_tables, hit_rate = batch_pass(workload, sweep, expected, rounds, seconds)
    finally:
        tracing.uninstall(patches)
    tracer.dump(RUNS / f"{record['run_id']}-spans.json")
    tally = merge(plain, traced)
    tally.failed += len(expected) * sum(a != b for a, b in zip(plain_tables, traced_tables))
    wire = {"hit_rate": hit_rate, "bytes_per_request": 0.0, "first_record_ms": 0.0}
    return finish(record, tally, traced_layers(record, tracer.spans, tracer.counters, plain, traced, wire))


# --------------------------------------------------------------------------- #
# Service workload: a `repro serve` node and one TCP client
# --------------------------------------------------------------------------- #
class Node:
    """A service node subprocess and the client's one connection to it."""

    def __init__(self, cache: Path, spans: Optional[Path] = None) -> None:
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0", "--once",
                       "--cache", str(cache), "--max-workers", NODE_WORKERS]
        else:
            command = [sys.executable, str(HERE / "node.py"), "--spans", str(spans),
                       "--cache", str(cache), "--max-workers", NODE_WORKERS]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, env=child_env())
        self.sock = None
        try:
            announce = self.process.stdout.readline().decode()
            port = int(announce.rsplit(":", 1)[1])
            self.sock = socket.create_connection(("127.0.0.1", port))
            self.reader = self.sock.makefile("rb")
        except (ValueError, IndexError, OSError):
            self.close()
            raise RuntimeError(f"service node did not start: {announce!r}")

    def request(self, payload: dict):
        """Send one request; return (latency, first-record delay, records, done, bytes)."""
        data = (json.dumps(payload) + "\n").encode()
        received = 0
        records = []
        first = None
        start = time.perf_counter()
        self.sock.sendall(data)
        while True:
            line = self.reader.readline()
            if not line:
                raise ConnectionError("service node closed the connection")
            received += len(line)
            if line.startswith(b'{"event": "record"'):
                if first is None:
                    first = time.perf_counter() - start
                records.append(line)
                continue
            latency = time.perf_counter() - start
            return start, latency, first, records, json.loads(line), received

    def close(self) -> None:
        """Close the connection (the ``--once`` node then exits) and reap it."""
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
        self.process.stdout.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def sorted_records(lines: List[bytes]) -> List[bytes]:
    """Record events in (cell, trial) order; they arrive in completion order."""

    def key(line: bytes):
        event = json.loads(line)
        return event["cell"], event["trial"]

    return sorted(lines, key=key)


def service_pass(node: Node, seed: int, expected: dict, rounds: int, seconds: float, probe=None):
    """Closed loop over one connection: a cold request, then warm resubmissions.

    Returns the tally, each request's records sorted by (cell, trial), and
    the client-side wire statistics.
    """
    cold_seeds = wl.service_cold_seeds(seed)
    picker = wl.service_warm_picker(seed)
    tally = Tally()
    answers: Dict[int, List[bytes]] = {}
    answers_log: List[List[bytes]] = []
    wire = {"bytes": 0, "first": [], "hits": 0, "lookups": 0}

    def one(kind: str, request_seed: int) -> None:
        start, latency, first, lines, done, size = node.request(wl.service_request(request_seed))
        tally.add(kind, start, latency)
        tally.attempted += 1
        wire["bytes"] += size
        wire["first"].append(first if first is not None else latency)
        records = sorted_records(lines)
        answers_log.append(records)
        ok = done.get("event") == "done" and len(records) == done.get("records")
        if ok:
            wire["hits"] += done["cache_hits"]
            wire["lookups"] += done["cache_lookups"]
        if ok and kind == "cold":
            events = [json.loads(line) for line in records]
            means = wl.cell_means([(e["cell"], e["trial"], e["summary"]) for e in events])
            ok = done["cache_hit_rate"] == 0.0 and not wl.mismatched_cells(
                means, expected[str(request_seed)]
            )
            answers[request_seed] = records
        elif ok:
            ok = done["cache_hit_rate"] == 1.0 and records == answers.get(request_seed)
        tally.failed += not ok

    tally.setup = closed_loop(
        wl.WORKLOADS["service_resubmit"], rounds, seconds,
        cold=lambda r: one("cold", cold_seeds[r]),
        warm=lambda r: one("warm", picker.choice(cold_seeds[: r + 1])),
        probe=probe,
        max_rounds=len(cold_seeds),
    )
    return tally, answers_log, wire


def run_service(workload: str, seed: int, seconds: float, trace: bool, record: dict) -> dict:
    expected = load_reference()[workload]
    workdir = RUNS / f"{record['run_id']}-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if not trace:
            probes = itertools.count()

            def probe() -> float:
                began = time.perf_counter()
                Node(workdir / f"probe-{next(probes)}").close()
                return time.perf_counter() - began

            node = Node(workdir / "cache")
            try:
                tally, _, _ = service_pass(node, seed, expected, 0, seconds, probe)
            finally:
                node.close()
            # The largest waited-for child: the node that served the traffic.
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            return finish(record, tally, end_to_end(tally))

        rounds = TRACE_ROUNDS[workload]
        node = Node(workdir / "cache-plain")
        try:
            plain, plain_log, _ = service_pass(node, seed, expected, rounds, seconds)
        finally:
            node.close()
        spans_path = RUNS / f"{record['run_id']}-node-spans.json"
        node = Node(workdir / "cache-traced", spans=spans_path)
        try:
            traced, traced_log, wire = service_pass(node, seed, expected, rounds, seconds)
        finally:
            node.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = merge(plain, traced)
    tally.failed += sum(a != b for a, b in zip(plain_log, traced_log))
    tally.failed += abs(len(plain_log) - len(traced_log))
    dumped = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = [tuple(span) for span in dumped["spans"]]
    summary = {
        "hit_rate": wire["hits"] / wire["lookups"],
        "bytes_per_request": wire["bytes"] / len(traced_log),
        "first_record_ms": 1e3 * statistics.median(wire["first"]),
    }
    return finish(record, tally, traced_layers(record, spans, dumped["counters"], plain, traced, summary))


# --------------------------------------------------------------------------- #
# Metrics and the result line
# --------------------------------------------------------------------------- #
def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def merge(first: Tally, second: Tally) -> Tally:
    tally = Tally()
    tally.attempted = first.attempted + second.attempted
    tally.failed = first.failed + second.failed
    return tally


def end_to_end(tally: Tally) -> dict:
    """The bounded metrics, plus the warm tail kept only in the run record."""
    warm = tally.latencies("warm")
    return {
        "setup_s": statistics.median(tally.setup),
        "sweep_s": statistics.median(tally.latencies("cold")),
        "warm_p50_ms": 1e3 * statistics.median(warm),
        "warm_p95_ms": 1e3 * statistics.quantiles(warm, n=20, method="inclusive")[18],
        "requests_per_s": len(tally.log) / tally.busy(),
    }


def traced_layers(record: dict, spans, counters, plain: Tally, traced: Tally, wire: dict) -> dict:
    """Per-layer metrics of a traced pass; ``plain`` is its untraced twin.

    ``warm.*`` attribute each span to the warm submission it started in,
    so they show where a cache-served resubmission spends its time.
    """
    table = tracing.layer_table(spans)
    layers = per_layer(table, counters)
    layers["service.cache.hit_rate"] = wire["hit_rate"]
    layers["service.wire.bytes_per_request"] = wire["bytes_per_request"]
    layers["service.first_record_ms"] = wire["first_record_ms"]
    layers["trace.coverage"] = sum(row["self_s"] for row in table.values()) / traced.busy()
    layers["trace.overhead"] = traced.busy() / plain.busy()

    warm = sorted((start, start + latency) for kind, start, latency in traced.log if kind == "warm")
    starts = [low for low, _ in warm]

    def in_warm(span) -> bool:
        index = bisect.bisect_right(starts, span[2]) - 1
        return index >= 0 and span[2] <= warm[index][1]

    warm_table = tracing.layer_table(spans, keep=in_warm)
    per_warm = {name: 1e3 * row["self_s"] / len(warm) for name, row in warm_table.items()}
    layers["warm.task_key_ms"] = per_warm.pop("service.cache.task_key", 0.0)
    layers["warm.lookup_ms"] = per_warm.get("service.cache.lookup", 0.0)
    layers["warm.largest_other_layer_ms"] = max(per_warm.values(), default=0.0)
    record["layers"] = table
    record["warm_layers"] = warm_table
    return layers


def per_layer(table: dict, counters: dict) -> dict:
    """Calls, self time and counters of every layer; 0 for one never entered."""
    metrics = {}
    for layer in tracing.LAYERS:
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_s"] = row["self_s"]
    for counter in tracing.COUNTERS:
        metrics[counter] = counters.get(counter, 0)
    return metrics


def finish(record: dict, tally: Tally, metrics: dict) -> dict:
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    record["samples"] = {
        "setup_s": tally.setup,
        "cold_s": tally.latencies("cold"),
        "warm_s": tally.latencies("warm"),
    }
    record["metrics"] = metrics
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_repro()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    RUNS.mkdir(exist_ok=True)
    record = {
        "run_id": f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}",
        "provenance": provenance(args.workload, args.seed),
    }
    runner = run_service if args.workload == "service_resubmit" else run_batch
    runner(args.workload, args.seed, args.seconds, bool(args.trace), record)

    metrics = record["metrics"]
    missing = [metric["name"] for metric in wanted if metric["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: run produced no value for {missing}")
    (RUNS / f"{record['run_id']}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
