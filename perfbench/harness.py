"""Measurement plumbing shared by the workloads.

Spans, self times, peak-memory reads and the host-speed probe live
here; nothing in this file imports a workload.  Spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Sequence

# -- statistics -------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (NumPy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# -- spans ------------------------------------------------------------------------


class Tracer:
    """In-memory span log: ``[name, start, end, parent, request_id]`` rows.

    Each thread keeps its own open-span stack, so the two serve clients
    nest their spans independently.  A span's parent is the span open
    on the same thread when it started.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: int):
        """Tag every span opened on this thread with ``request_id``."""
        self._local.request_id = request_id
        try:
            yield
        finally:
            self._local.request_id = None

    def _open(self, name: str, start: float) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        row = [name, start, None, parent, getattr(self._local, "request_id", None)]
        with self._lock:
            self.spans.append(row)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int, end: float) -> None:
        self.spans[index][2] = end
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        """Time the block as a span; yields the span's index."""
        index = self._open(name, time.perf_counter())
        try:
            yield index
        finally:
            self._close(index, time.perf_counter())

    def add_phase_tree(self, phases: Iterable[Dict], start: float, parent: int) -> None:
        """Import a recorder phase tree (``PhaseRecord.as_dict`` form) under ``parent``.

        Phase records carry durations but no start times, so children
        are laid end to end from their parent's start.  Self times,
        which only use durations, are exact; the offsets are not.
        """
        for phase in phases:
            end = start + phase["duration_s"]
            with self._lock:
                self.spans.append([phase["name"], start, end, parent, self.spans[parent][4]])
                index = len(self.spans) - 1
            self.add_phase_tree(phase["children"], start, index)
            start = end

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name: duration minus children's."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own = max(0.0, (end - start) - covered[index])
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ("name", "start", "end", "parent", "request_id")
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.spans:
                handle.write(json.dumps(dict(zip(fields, row))) + "\n")


# -- per-layer attribution --------------------------------------------------------

#: Span name -> per-layer metric its self time counts toward.  Engine
#: spans count as walk: their self time is the postlude dispatch, and
#: ``parallel-shm`` runs its walk inside the engine span.
_LAYER_OF_SPAN = {
    "prelude:strip": "trace.strip_s",
    "prelude:conflict-rows": "prelude.conflict_rows_s",
    "prelude:dedup-rows": "prelude.dedup_rows_s",
    "postlude:walk": "postlude.walk_s",
    "postlude:pack-rows": "postlude.walk_s",
    "statistics": "explorer.pairs_s",
    "resolve-engine": "explorer.pairs_s",
    "postlude:optimal-pairs": "explorer.pairs_s",
    "store.digest": "store.digest_s",
    "serve.parse": "serve.parse_s",
    "serve.key": "serve.key_s",
    "serve.encode": "serve.encode_s",
}

#: Engines ``auto`` can pick; each gets an ``engine.<name>.requests`` share.
AUTO_ENGINES = ("serial", "vectorized", "parallel-shm")

#: Every per-layer metric name, in report order, with its unit.
PER_LAYER_UNITS = {
    "trace.strip_s": "s",
    "prelude.conflict_rows_s": "s",
    "prelude.dedup_rows_s": "s",
    "prelude.dedup_ratio": "ratio",
    "prelude.rows_mib": "MiB",
    "postlude.walk_s": "s",
    **{f"engine.{name}.requests": "count/req" for name in AUTO_ENGINES},
    "postlude.histogram_occurrences": "count/req",
    "explorer.pairs_s": "s",
    "store.digest_s": "s",
    "store.hits": "count/req",
    "store.misses": "count/req",
    "store.mmap_hits": "count/req",
    "store.bytes_read": "B/req",
    "store.bytes_written": "B/req",
    "serve.parse_s": "s",
    "serve.key_s": "s",
    "serve.encode_s": "s",
    "serve.rtt_cold_p50_s": "s",
    "serve.rtt_warm_p50_s": "s",
    "serve.computations": "count/req",
    "serve.dedup_hits": "count/req",
    "serve.store_hits": "count/req",
    "serve.store_misses": "count/req",
    "request.other_s": "s",
    "trace.overhead_s": "s",
    "host.probe_s": "s",
}


class LayerTally:
    """Accumulates one traced pass into per-request per-layer metrics.

    Times are self times summed over the pass and divided by the number
    of traced requests, so the layer times of a workload add up to its
    mean traced request.  Self time of spans no metric names (the
    request span itself, ``prelude:zerosets``, ``serve:execute``...)
    is ``request.other_s``.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.engines: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.rows_bytes = 0.0

    def add_request(self, engine: str, counters: Dict[str, int]) -> None:
        """Count one traced request: its engine and prelude/postlude counters."""
        self.requests += 1
        self.engines[engine] = self.engines.get(engine, 0) + 1
        self.add_counts(
            {name: counters.get(name, 0) for name in ("conflict_sets", "packed_rows", "histogram_occurrences")}
        )
        words = -(-counters.get("unique_refs", 0) // 64)
        self.rows_bytes += counters.get("conflict_sets", 0) * words * 8

    def add_counts(self, counts: Dict[str, float]) -> None:
        for name, value in counts.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def metrics(self, tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
        n = max(self.requests, 1)
        values = {name: 0.0 for name in PER_LAYER_UNITS}
        for name, total in tracer.self_times().items():
            metric = _LAYER_OF_SPAN.get(name)
            if metric is None:
                metric = "postlude.walk_s" if name.startswith("engine:") else "request.other_s"
            values[metric] += total / n
        conflict_sets = self.counters.get("conflict_sets", 0)
        if conflict_sets:
            values["prelude.dedup_ratio"] = self.counters.get("packed_rows", 0) / conflict_sets
        values["prelude.rows_mib"] = self.rows_bytes / n / 2**20
        for engine in AUTO_ENGINES:
            values[f"engine.{engine}.requests"] = self.engines.get(engine, 0) / n
        values["postlude.histogram_occurrences"] = self.counters.get("histogram_occurrences", 0) / n
        for name in ("hits", "misses", "mmap_hits", "bytes_read", "bytes_written"):
            values[f"store.{name}"] = self.counters.get(f"store_{name}", 0) / n
        for name in ("computations", "dedup_hits", "store_hits", "store_misses"):
            values[f"serve.{name}"] = self.counters.get(f"serve_{name}", 0) / n
        values.update(extra)
        return values


# -- memory -----------------------------------------------------------------------


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat[stat.rindex(b")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, queue = [], [pid]
    while queue:
        current = queue.pop()
        found.append(current)
        queue.extend(children.get(current, ()))
    return found


def reset_peak_rss(pids: Iterable[int]) -> None:
    """Reset each process's ``VmHWM`` to its current resident size."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:  # the process has exited
            continue


def peak_rss_mib(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` of ``pids`` in MiB (processes gone are skipped)."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024.0


# -- host-speed probe -------------------------------------------------------------


def cpu_steal_s() -> float:
    """CPU seconds the hypervisor has given to other guests (all CPUs)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def host_probe() -> float:
    """Seconds for a fixed NumPy sort plus a pure-Python loop.

    Calls no ``repro`` code; it is reported beside the results so a
    slow or busy host shows up, and never divides any metric.
    """
    import numpy as np

    data = np.random.default_rng(20030310).random(4_000_000)
    start = time.perf_counter()
    np.sort(data)
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    return time.perf_counter() - start
