"""``serve-mix``: a ``repro serve`` daemon driven closed-loop by 2 clients.

The daemon runs with its defaults (``--pool process --workers 2``) on
a fresh store.  Each client thread sends its next request only after
the previous reply, as ``repro submit`` callers do, in blocks of five
steps:

* four steps explore one fresh trace (N in [2e4, 5e4]) at the paper's
  four budgets, K = 5, 10, 15 and 20% of max misses, one budget per
  request, the way the paper evaluates every trace.  The 5% request is
  *cold*: it computes and writes the store.  The other three are *warm*:
  they read the stored histograms;
* one *dedup* step: both clients meet at a barrier and send the same
  fresh request together, which the daemon's in-flight dedup collapses
  into one computation.  One such step per block is an assumption, not
  a share taken from any source.

This is the only workload through the wire protocol, the dedup table,
the process pool and store writes beside reads.  The loop is closed:
on 2 vCPUs an open loop turns every host stall into a backlog.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List

from repro.core.request import ExplorationRequest, explore_request
from repro.serve import ServeClient, ServeError
from repro.store import trace_digest
from repro.serve.protocol import (
    request_from_wire,
    request_key,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)

from checks import answers, canonical
from harness import LayerTally, descendants, median
from inputs import PAPER_PERCENTS, small_trace
from workload import Outcome


CLIENTS = 2
#: Blocks of fresh traces made before the clock starts; a 30 s run uses ~40-50.
PREMADE_BLOCKS = 70
#: Trace streams of :func:`inputs.small_trace`: one per client, then dedup, then warm-up.
DEDUP_STREAM = CLIENTS
WARMUP_STREAM = CLIENTS + 1
#: The simulator checks every third dedup trace (~0.25 s each), which
#: covers every size and footprint of the grid; K and the depths are
#: checked on every trace.
SIMULATE_EVERY = 3
BOOT_TIMEOUT_S = 120.0
#: Store counters the pool worker records into the response manifest.
STORE_COUNTERS = ("store_hits", "store_misses", "store_mmap_hits", "store_bytes_read", "store_bytes_written")


class ServeMix:
    #: ~400-500 requests per 30 s run; cold and dedup steps are 40% of
    #: them and the slowest kinds, so the p95 sits inside their band with
    #: ~20-25 samples beyond it.
    TAIL_PERCENTILE = 95.0
    P50_ROUND_SIZE = 1

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self._traces: Dict[tuple, object] = {}
        self._origin: Dict[str, tuple] = {}
        self._lock = threading.Lock()
        self.daemon = None
        try:
            self._boot()
            # A longer or faster run makes the rest of its traces as it goes.
            for stream in range(CLIENTS + 1):
                for index in range(PREMADE_BLOCKS):
                    self._trace(stream, index)
            # The discarded warm-up request; it also starts the pool's workers.
            warmup = self._trace(WARMUP_STREAM, 0)
            self.client.explore_wire(
                request_to_wire(ExplorationRequest.single(warmup, percents=PAPER_PERCENTS))
            )
        except BaseException:
            self.close()
            raise

    def _boot(self) -> None:
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
        env.update(PYTHONPATH=src, PYTHONHASHSEED="0")
        log_path = os.path.join(self.work_dir, "serve.log")
        with open(log_path, "wb") as log:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--pool", "process", "--workers", "2",
                 "--cache-dir", os.path.join(self.work_dir, "store")],
                stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=self.work_dir,
            )
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        port = None
        while port is None:
            if self.daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro serve did not start; see {log_path}")
            with open(log_path, encoding="utf-8", errors="replace") as log:
                found = re.search(r"listening on http://[^:]+:(\d+)", log.read())
            if found:
                port = int(found.group(1))
            else:
                time.sleep(0.01)
        self.client = ServeClient("127.0.0.1", port)
        while True:
            try:
                self.client.health()
                return
            except ServeError:
                if self.daemon.poll() is not None or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def _trace(self, stream: int, index: int):
        with self._lock:
            trace = self._traces.get((stream, index))
        if trace is None:
            trace = small_trace(self.seed, stream, index)
            with self._lock:
                self._traces[(stream, index)] = trace
                self._origin[trace.name] = (stream, index)
        return trace

    def pids(self) -> List[int]:
        return descendants(self.daemon.pid)

    def close(self) -> None:
        """SIGTERM the daemon (it drains and stops its pool), then wait."""
        if self.daemon is None or self.daemon.poll() is not None:
            return
        workers = [pid for pid in descendants(self.daemon.pid) if pid != self.daemon.pid]
        self.daemon.send_signal(signal.SIGTERM)
        try:
            self.daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        deadline = time.monotonic() + 30
        for pid in workers:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.05)
            if os.path.exists(f"/proc/{pid}"):
                os.kill(pid, signal.SIGKILL)

    # -- timed phase -----------------------------------------------------------------

    def run(self, seconds: float, tracer=None) -> Outcome:
        outcome = Outcome()
        outcome.tally = LayerTally()
        self.reports: List[Dict] = []
        self.asked: Dict[str, tuple] = {}
        self._go_on = True
        self._blocks = 0
        before = self.client.metrics()
        start_phase = time.perf_counter()

        def decide() -> None:
            # A traced run traces every other block and stops on an even
            # count, so traced and untraced requests cover the same mix.
            self._blocks += 1
            self._go_on = time.perf_counter() - start_phase < seconds or (
                tracer is not None and self._blocks % 2 == 1
            )

        barrier = threading.Barrier(CLIENTS, action=decide, timeout=BOOT_TIMEOUT_S)
        errors: List[BaseException] = []

        def client_main(client_id: int) -> None:
            try:
                self._client_loop(client_id, barrier, outcome, tracer)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=client_main, args=(c,)) for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        outcome.elapsed = time.perf_counter() - start_phase
        if errors:
            raise errors[0]
        after = self.client.metrics()
        delta = {
            name: after.get(f"serve_{name}_total", 0.0) - before.get(f"serve_{name}_total", 0.0)
            for name in ("computations", "dedup_hits", "store_hits", "store_misses")
        }
        outcome.extra = {f"serve.{name}": value / outcome.attempted for name, value in delta.items()}
        for kind in ("cold", "warm"):
            walls = [w for w, k in zip(outcome.walls, outcome.kinds) if k == kind]
            outcome.extra[f"serve.rtt_{kind}_p50_s"] = median(walls)
        return outcome

    def _client_loop(self, client_id, barrier, outcome: Outcome, tracer) -> None:
        client = ServeClient(self.client.host, self.client.port)
        block = 0
        while True:
            steps = [(self._trace(client_id, block), (percent,), "warm" if index else "cold")
                     for index, percent in enumerate(PAPER_PERCENTS)]
            steps.append((self._trace(DEDUP_STREAM, block), PAPER_PERCENTS[:1], "dedup"))
            for index, (trace, percents, kind) in enumerate(steps):
                if kind == "dedup":
                    barrier.wait()
                document = request_to_wire(ExplorationRequest.single(trace, percents=percents))
                if tracer is not None and block % 2 == 0:
                    with tracer.request((client_id, block, index)):
                        self._traced_request(client, document, trace, percents, kind, outcome, tracer)
                else:
                    self._request(client, document, trace, percents, kind, outcome, False)
            block += 1
            if not self._go_on:
                return

    def _request(self, client, document, trace, percents, kind, outcome, traced):
        start = time.perf_counter()
        try:
            response = client.explore_wire(document)
            ok = True
        except ServeError as exc:  # a failing request is a failed operation
            print(f"{trace.name}: {exc}", file=sys.stderr)
            response, ok = None, False
        wall = time.perf_counter() - start
        with self._lock:
            outcome.add(wall, len(trace), traced, ok, key=(trace.name, percents), kind=kind)
            self.reports.append(response["report"] if ok else None)
            self.asked.setdefault(trace.name, (trace, set()))[1].update(percents)
        return response, start

    def _traced_request(self, client, document, trace, percents, kind, outcome, tracer):
        with tracer.span("serve.parse"):
            request_from_wire(document)
        with tracer.span("serve.key"):
            request_key(document)
        with tracer.span("request") as span:
            response, start = self._request(client, document, trace, percents, kind, outcome, True)
        if response is None:
            return
        manifest = response.get("manifest", {})
        tracer.add_phase_tree(manifest.get("phases", []), start, span)
        report = response_from_wire(response)
        with tracer.span("serve.encode"):
            json.dumps(response_to_wire(report, manifest=manifest))
        with tracer.span("store.digest"):
            trace_digest(trace)
        counters = manifest.get("counters", {})
        with self._lock:
            outcome.tally.add_request(response["report"]["engine"], counters)
            outcome.tally.add_counts({name: counters.get(name, 0) for name in STORE_COUNTERS})

    # -- checks ----------------------------------------------------------------------

    def check(self, simulator, outcome: Outcome) -> None:
        """Repeats are byte-identical; every answer equals an in-process cold one.

        Each in-process cold answer is itself checked against
        :class:`checks.Simulator`, so a fault shared by the daemon and
        the in-process path still fails.
        """
        first: Dict[tuple, bytes] = {}
        for key, report in zip(outcome.keys, self.reports):
            if report is None:
                continue
            blob = canonical(report)
            if first.setdefault(key, blob) != blob:
                outcome.fail(f"{key}: a repeat answered differently", key)
        expected = {}
        for name, (trace, percents) in self.asked.items():
            stream, index = self._origin[name]
            ordered = sorted(percents)
            cold = explore_request(ExplorationRequest.single(trace, percents=ordered)).to_json_dict()
            simulate = stream == DEDUP_STREAM and index % SIMULATE_EVERY == 0
            why = simulator.mismatch(trace, ordered, cold, simulate)
            if why:
                outcome.fail(why, *((name, (percent,)) for percent in ordered))
            for percent, budget, result in zip(ordered, cold["budgets"], cold["results"]):
                expected[(name, percent)] = (budget, result)
        for key, report in zip(outcome.keys, self.reports):
            if report is None:
                continue
            name, percents = key
            want = [expected[(name, p)] for p in percents]
            if answers(report) != {"budgets": [b for b, _ in want], "results": [r for _, r in want]}:
                outcome.fail(f"{key}: served answer differs from the in-process cold answer", key)
