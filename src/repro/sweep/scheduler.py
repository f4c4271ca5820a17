"""Dependency-aware sweep execution with retries and quarantine.

:class:`SweepScheduler` walks a :class:`repro.sweep.planner.Plan` in
topological order under bounded worker concurrency.  Three backends
mirror the serve pool's kinds (and the thread/inline kinds literally
run on :class:`repro.serve.pool.BoundedPool`):

* ``process`` — the default: each cell attempt runs in its own
  ``multiprocessing.Process``, so a hung cell can actually be *killed*
  at its deadline (an executor pool cannot terminate one task).
* ``thread`` — cells run on a bounded thread pool; a deadline marks the
  attempt failed but the thread is abandoned, not killed (documented
  trade-off; used where process startup is too heavy for the matrix).
* ``inline`` — cells run synchronously in plan order; fully
  deterministic, no timeout enforcement.  The test battery's default.

Failure story: an attempt that raises (or times out) is retried with
exponential backoff up to ``retries`` times; a cell that exhausts its
retries is **quarantined** — recorded with its error and the partial
manifest of the killed attempt — and its transitive dependents are
marked ``skipped``, while unrelated sibling cells keep running.

Each successful cell carries a validated ``repro-run-manifest/1``
manifest produced *inside* the worker by the same recorder machinery as
``repro profile``, so a sweep is also a profiling pass over the matrix.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.sweep.planner import Cell, Plan

#: Scheduler backends (mirrors :data:`repro.serve.pool.POOL_KINDS`).
SCHEDULER_KINDS = ("process", "thread", "inline")

#: Terminal cell statuses.
CELL_STATUSES = ("ok", "quarantined", "skipped")

#: Seconds between scheduler poll iterations.
POLL_INTERVAL_S = 0.02


def resolve_trace(entry: str, scale: str = "tiny", default_seed: int = 0):
    """Materialize one trace-axis entry into a :class:`repro.trace.Trace`.

    Workload entries run (and cache) the named PowerStone kernel at
    ``scale`` and take its data trace; synthetic entries call the
    deterministic generators with every parameter (seed included)
    pinned by the entry itself.  Names follow the benchmark harnesses'
    conventions (``loop-1024x100``, ``zipf-4000-300``...) so sweep
    cells line up with committed ``BENCH_*.json`` baseline rows.
    """
    from repro.sweep.spec import parse_trace_entry
    from repro.trace.synthetic import (
        interleaved_trace,
        loop_nest_trace,
        markov_trace,
        random_trace,
        zipf_trace,
    )

    descriptor = parse_trace_entry(entry, default_seed)
    kind = descriptor["kind"]
    if kind == "workload":
        from repro.workloads.registry import run_workload_by_name

        return run_workload_by_name(descriptor["name"], scale=scale).data_trace
    if kind == "loop":
        trace = loop_nest_trace(descriptor["footprint"], descriptor["iterations"])
        trace.name = f"loop-{descriptor['footprint']}x{descriptor['iterations']}"
        return trace
    if kind == "loop-mix":
        footprint = descriptor["footprint"]
        iterations = descriptor["iterations"]
        regions = [
            loop_nest_trace(footprint, iterations, start=region << 13)
            for region in range(4)
        ]
        return interleaved_trace(
            regions, name=f"loop-mix-{footprint}x4x{iterations}"
        )
    if kind == "zipf":
        trace = zipf_trace(
            descriptor["n"], descriptor["unique"], seed=descriptor["seed"]
        )
        trace.name = f"zipf-{descriptor['n']}-{descriptor['unique']}"
        return trace
    if kind == "markov":
        trace = markov_trace(
            descriptor["n"],
            descriptor["unique"],
            locality=descriptor["locality"],
            seed=descriptor["seed"],
        )
        trace.name = f"markov-{descriptor['n']}-{descriptor['unique']}"
        return trace
    # random
    trace = random_trace(
        descriptor["n"], footprint=descriptor["footprint"], seed=descriptor["seed"]
    )
    trace.name = f"random-{descriptor['n']}-{descriptor['footprint']}"
    return trace


def run_cell(coords: Dict[str, object], context: Dict[str, object]) -> Dict:
    """Execute one sweep cell end to end; returns its record payload.

    This is the function worker processes execute; it must stay
    module-level (picklable) and self-contained: it resolves its own
    trace, builds its own recorder and store, and returns only
    JSON-shaped data — the same isolation contract as
    :func:`repro.serve.pool.execute_wire_request`.
    """
    from repro.core.request import ExplorationRequest, explore_request
    from repro.obs import Recorder, RunManifest
    from repro.scenario.spec import ScenarioSpec

    trace = resolve_trace(
        str(coords["trace"]),
        scale=str(context.get("scale", "tiny")),
        default_seed=int(context.get("seed", 0)),
    )
    store = None
    store_root = context.get("store_root")
    if store_root is not None:
        from repro.store import ArtifactStore

        store = ArtifactStore(str(store_root))
    scenario = ScenarioSpec(
        engine=str(coords["engine"]),
        policy=str(coords["policy"]),
        max_depth=context.get("max_depth"),
        l2_depth=context.get("l2_depth") if int(coords["level"]) == 2 else None,
    )
    recorder = Recorder()
    request = ExplorationRequest.single(
        trace,
        budgets=tuple(context.get("budgets", ())),
        percents=tuple(context.get("percents", ())),
        scenario=scenario,
        recorder=recorder,
        store=store,
    )
    with recorder.phase("sweep:cell"):
        report = explore_request(request)
    manifest = RunManifest.from_recorder(
        recorder,
        engine=report.engine,
        requested_engine=scenario.engine,
        options={
            "policy": scenario.policy,
            "warmth": str(coords["warmth"]),
            "level": int(coords["level"]),
        },
        trace={
            "name": trace.name,
            "n": len(trace),
            "n_unique": trace.unique_count(),
            "address_bits": trace.address_bits,
        },
    )
    return {
        "trace_name": trace.name,
        "engine": report.engine,
        "wall_s": recorder.wall_s,
        "report": report.to_json_dict(),
        "manifest": manifest.to_json_dict(),
    }


@dataclass
class CellRecord:
    """The terminal outcome of one planned cell.

    Attributes:
        cell_id: the cell's plan identity.
        coords: the cell's axis coordinates.
        status: one of :data:`CELL_STATUSES`.
        attempts: execution attempts made (0 for skipped cells).
        timeouts: attempts that hit the deadline and were killed.
        wall_s: wall time of the successful attempt (or the last one).
        trace_name: resolved trace name (``ok`` cells only).
        engine: resolved concrete engine (``ok`` cells only).
        report: the cell's :meth:`ExplorationReport.to_json_dict` payload.
        manifest: the cell's ``repro-run-manifest/1`` document — for a
            quarantined timeout this is the scheduler-side partial
            manifest covering the killed attempt.
        error: the last failure message (non-``ok`` cells only).
    """

    cell_id: str
    coords: Dict[str, object]
    status: str = "ok"
    attempts: int = 0
    timeouts: int = 0
    wall_s: float = 0.0
    trace_name: Optional[str] = None
    engine: Optional[str] = None
    report: Optional[Dict] = None
    manifest: Optional[Dict] = None
    error: Optional[str] = None

    def to_json_dict(self) -> Dict:
        document: Dict[str, object] = {
            "id": self.cell_id,
            "coords": dict(self.coords),
            "status": self.status,
            "attempts": self.attempts,
            "timeouts": self.timeouts,
            "wall_s": self.wall_s,
        }
        if self.trace_name is not None:
            document["trace_name"] = self.trace_name
        if self.engine is not None:
            document["engine"] = self.engine
        if self.report is not None:
            document["report"] = self.report
        if self.manifest is not None:
            document["manifest"] = self.manifest
        if self.error is not None:
            document["error"] = self.error
        return document


@dataclass
class SweepRun:
    """Everything one scheduler run produced."""

    records: List[CellRecord]
    wall_s: float
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def quarantined(self) -> List[CellRecord]:
        return [r for r in self.records if r.status == "quarantined"]

    @property
    def skipped(self) -> List[CellRecord]:
        return [r for r in self.records if r.status == "skipped"]


def _timeout_manifest(
    coords: Dict[str, object], elapsed_s: float
) -> Dict[str, object]:
    """A minimal valid manifest for an attempt the scheduler had to kill.

    The worker died without reporting, so this covers what the
    scheduler itself observed: one phase spanning the killed attempt,
    with a ``sweep_timeouts`` counter marking it partial.
    """
    from repro.obs.manifest import MANIFEST_SCHEMA, environment_info

    return {
        "schema": MANIFEST_SCHEMA,
        "engine": str(coords["engine"]),
        "requested_engine": str(coords["engine"]),
        "options": {
            "policy": str(coords["policy"]),
            "warmth": str(coords["warmth"]),
            "level": int(coords["level"]),
        },
        "trace": {
            "name": str(coords["trace"]),
            "n": 0,
            "n_unique": None,
            "address_bits": 0,
        },
        "wall_s": elapsed_s,
        "phases": [
            {
                "name": "sweep:cell-timeout",
                "duration_s": elapsed_s,
                "counters": {"sweep_timeouts": 1},
                "children": [],
            }
        ],
        "counters": {"sweep_timeouts": 1},
        "memory": {},
        "environment": environment_info(),
    }


def _process_entry(conn, execute, coords, context) -> None:
    """Worker-process wrapper: ship the outcome (or the error) back."""
    try:
        record = execute(coords, context)
        conn.send(("ok", record))
    except BaseException as exc:  # noqa: BLE001 — report, don't crash silently
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


class _Attempt:
    """One in-flight execution of a cell (process or pool future)."""

    def __init__(self, cell: Cell, attempt: int, deadline: Optional[float]):
        self.cell = cell
        self.attempt = attempt
        self.started = time.monotonic()
        self.deadline = deadline
        self.process = None
        self.conn = None
        self.future = None

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def timed_out(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


class SweepScheduler:
    """Run a plan's cells under bounded concurrency (see module doc).

    Args:
        plan: the validated cell DAG.
        kind: one of :data:`SCHEDULER_KINDS`.
        workers: concurrent cell bound (default: the spec's).
        timeout_s: per-attempt deadline (default: the spec's).
        retries: re-executions after a failed attempt (default: spec's).
        backoff_s: base of the exponential retry backoff (default: spec's).
        store_root: artifact-store directory shared by every cell; cold
            cells populate it, their warm dependents hit it.  ``None``
            disables warm-starting (warm cells then measure the
            in-process caches only).
        execute: override of the cell executable — tests inject failing
            and hanging functions here.  Must accept ``(coords,
            context)`` and return a record payload dict.
        sleep: injectable clock for the backoff/poll waits.
    """

    def __init__(
        self,
        plan: Plan,
        kind: str = "process",
        workers: Optional[int] = None,
        timeout_s: Optional[float] = None,
        retries: Optional[int] = None,
        backoff_s: Optional[float] = None,
        store_root: Optional[str] = None,
        execute: Optional[Callable[[Dict, Dict], Dict]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if kind not in SCHEDULER_KINDS:
            raise ValueError(
                f"kind must be one of {SCHEDULER_KINDS}, got {kind!r}"
            )
        spec = plan.spec
        self.plan = plan
        self.kind = kind
        self.workers = spec.workers if workers is None else workers
        self.timeout_s = spec.timeout_s if timeout_s is None else timeout_s
        self.retries = spec.retries if retries is None else retries
        self.backoff_s = spec.backoff_s if backoff_s is None else backoff_s
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.store_root = store_root
        self._execute = execute or run_cell
        self._sleep = sleep
        self.context: Dict[str, object] = {
            "store_root": store_root,
            "budgets": list(spec.budgets),
            "percents": list(spec.percents),
            "max_depth": spec.max_depth,
            "l2_depth": spec.l2_depth,
            "scale": spec.scale,
            "seed": spec.seed,
        }

    # -- attempt lifecycles -------------------------------------------------

    def _launch(self, cell: Cell, attempt: int) -> _Attempt:
        deadline = (
            time.monotonic() + self.timeout_s
            if self.kind == "process" or self.kind == "thread"
            else None
        )
        running = _Attempt(cell, attempt, deadline)
        if self.kind == "process":
            recv_conn, send_conn = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_process_entry,
                args=(send_conn, self._execute, cell.coords(), self.context),
                daemon=True,
            )
            process.start()
            send_conn.close()
            running.process = process
            running.conn = recv_conn
        else:
            running.future = self._pool.submit(
                self._execute, cell.coords(), self.context
            )
        return running

    def _outcome(self, running: _Attempt) -> Optional[Tuple[str, object]]:
        """Poll one attempt: ``None`` while it runs, else its outcome."""
        if self.kind == "process":
            if running.conn.poll():
                try:
                    outcome = running.conn.recv()
                except EOFError:
                    outcome = ("error", "worker exited without reporting")
                running.process.join()
                running.conn.close()
                return outcome
            if not running.process.is_alive():
                running.process.join()
                running.conn.close()
                return ("error", "worker died without reporting")
            if running.timed_out():
                running.process.terminate()
                running.process.join(1.0)
                if running.process.is_alive():
                    running.process.kill()
                    running.process.join()
                running.conn.close()
                return ("timeout", f"killed after {self.timeout_s:.3f}s")
            return None
        if running.future.done():
            try:
                return ("ok", running.future.result())
            except BaseException as exc:  # noqa: BLE001
                return ("error", f"{type(exc).__name__}: {exc}")
        if running.timed_out():
            # Threads cannot be killed; record the deadline and move on.
            return ("timeout", f"abandoned after {self.timeout_s:.3f}s")
        return None

    # -- the scheduling loop ------------------------------------------------

    def run(self) -> SweepRun:
        """Execute every cell; returns the per-cell records and counters."""
        start = time.monotonic()
        order = self.plan.topological_order()
        cells = {cell.cell_id: cell for cell in self.plan.cells}
        records = {
            cell_id: CellRecord(cell_id=cell_id, coords=cells[cell_id].coords())
            for cell_id in order
        }
        waiting: Dict[str, set] = {
            cell_id: set(self.plan.dependencies(cells[cell_id]))
            for cell_id in order
        }
        ready: List[str] = [c for c in order if not waiting[c]]
        for cell_id in ready:
            del waiting[cell_id]
        backoff: List[Tuple[float, str, int]] = []  # (due, cell_id, attempt)
        running: List[_Attempt] = []
        counters = {
            "sweep_cells_total": len(order),
            "sweep_cells_ok": 0,
            "sweep_cells_quarantined": 0,
            "sweep_cells_skipped": 0,
            "sweep_attempts": 0,
            "sweep_retries": 0,
            "sweep_timeouts": 0,
        }

        self._pool = None
        if self.kind in ("thread", "inline"):
            from repro.serve.pool import BoundedPool

            self._pool = BoundedPool(
                workers=self.workers,
                kind=self.kind,
                thread_name_prefix="repro-sweep",
            )

        def complete_ok(record: CellRecord, payload: Dict) -> None:
            record.status = "ok"
            record.trace_name = payload.get("trace_name")
            record.engine = payload.get("engine")
            record.wall_s = float(payload.get("wall_s", 0.0))
            record.report = payload.get("report")
            record.manifest = payload.get("manifest")
            counters["sweep_cells_ok"] += 1
            for cell_id, deps in waiting.items():
                deps.discard(record.cell_id)
            newly_ready = [
                cell_id for cell_id, deps in waiting.items() if not deps
            ]
            for cell_id in sorted(newly_ready, key=order.index):
                del waiting[cell_id]
                ready.append(cell_id)

        def skip_dependents(blocked_by: str) -> None:
            frontier = {blocked_by}
            while True:
                downstream = [
                    cell_id
                    for cell_id in list(waiting)
                    if set(self.plan.dependencies(cells[cell_id])) & frontier
                ]
                if not downstream:
                    return
                for cell_id in downstream:
                    del waiting[cell_id]
                    record = records[cell_id]
                    record.status = "skipped"
                    record.error = f"dependency {blocked_by!r} was quarantined"
                    counters["sweep_cells_skipped"] += 1
                    frontier.add(cell_id)

        def complete_failure(
            record: CellRecord,
            attempt: int,
            kind: str,
            message: str,
            elapsed: float,
        ) -> None:
            if kind == "timeout":
                record.timeouts += 1
                counters["sweep_timeouts"] += 1
                record.manifest = _timeout_manifest(record.coords, elapsed)
            record.error = message
            record.wall_s = elapsed
            if attempt <= self.retries:
                counters["sweep_retries"] += 1
                due = time.monotonic() + self.backoff_s * (2 ** (attempt - 1))
                backoff.append((due, record.cell_id, attempt + 1))
            else:
                record.status = "quarantined"
                counters["sweep_cells_quarantined"] += 1
                skip_dependents(record.cell_id)

        try:
            while ready or backoff or running or waiting:
                progressed = False
                now = time.monotonic()
                due = [entry for entry in backoff if entry[0] <= now]
                for entry in due:
                    backoff.remove(entry)
                    ready.append(entry[1])
                    records[entry[1]].attempts = entry[2] - 1
                while ready and len(running) < self.workers:
                    cell_id = ready.pop(0)
                    record = records[cell_id]
                    record.attempts += 1
                    counters["sweep_attempts"] += 1
                    running.append(self._launch(cells[cell_id], record.attempts))
                    progressed = True
                for attempt in list(running):
                    outcome = self._outcome(attempt)
                    if outcome is None:
                        continue
                    running.remove(attempt)
                    progressed = True
                    record = records[attempt.cell.cell_id]
                    status, payload = outcome
                    if status == "ok":
                        complete_ok(record, payload)
                    else:
                        complete_failure(
                            record,
                            record.attempts,
                            status,
                            str(payload),
                            attempt.elapsed,
                        )
                if waiting and not (ready or backoff or running):
                    # Should be unreachable: the plan is acyclic, so a
                    # stall means a dependency record leaked. Fail loudly.
                    stuck = sorted(waiting)
                    raise RuntimeError(f"scheduler stalled on cells {stuck}")
                if not progressed and (running or backoff):
                    self._sleep(POLL_INTERVAL_S)
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
        return SweepRun(
            records=[records[cell_id] for cell_id in order],
            wall_s=time.monotonic() - start,
            counters=counters,
        )


def run_sweep(
    plan: Plan,
    kind: str = "process",
    store_root: Optional[str] = None,
    baseline_dir: Optional[str] = None,
    **scheduler_kwargs: object,
) -> Dict:
    """Plan-to-report convenience: schedule, execute, aggregate.

    Returns the validated ``repro-sweep-report/1`` document.
    """
    from repro.sweep.report import build_report

    scheduler = SweepScheduler(
        plan, kind=kind, store_root=store_root, **scheduler_kwargs
    )
    run = scheduler.run()
    return build_report(plan, run, baseline_dir=baseline_dir)
