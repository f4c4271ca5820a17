"""Scheduler edge cases: retries, quarantine, timeouts, DAG gating.

The injected executables are module-level so the ``process`` backend
(which forks one worker per attempt) can run them too.
"""

import time

import pytest

from repro.obs.manifest import validate_manifest
from repro.sweep import SweepScheduler, plan_sweep, spec_from_dict
from repro.sweep.spec import SPEC_SCHEMA


def make_plan(**overrides):
    document = {
        "schema": SPEC_SCHEMA,
        "name": "sched-test",
        "axes": {
            "traces": ["loop:8x2", "zipf:100:16:1"],
            "engines": ["serial"],
        },
        "budgets": [0],
        "execution": {"workers": 2, "timeout_s": 30.0, "retries": 1,
                      "backoff_s": 0.01},
    }
    for key, value in overrides.items():
        if key in ("traces", "engines", "warmth", "policies", "levels"):
            document["axes"][key] = value
        else:
            document[key] = value
    return plan_sweep(spec_from_dict(document))


def fake_payload(coords):
    return {
        "trace_name": str(coords["trace"]),
        "engine": str(coords["engine"]),
        "wall_s": 0.001,
        "report": {"mode": "single"},
    }


def ok_execute(coords, context):
    return fake_payload(coords)


def fail_zipf_execute(coords, context):
    if "zipf" in str(coords["trace"]):
        raise RuntimeError("injected failure")
    return fake_payload(coords)


def fail_cold_loop_execute(coords, context):
    if coords["trace"] == "loop:8x2" and coords["warmth"] == "cold":
        raise RuntimeError("injected producer failure")
    return fake_payload(coords)


def hang_zipf_execute(coords, context):
    if "zipf" in str(coords["trace"]):
        time.sleep(60)
    return fake_payload(coords)


_FLAKY_CALLS = []


def flaky_once_execute(coords, context):
    if "zipf" in str(coords["trace"]) and not _FLAKY_CALLS:
        _FLAKY_CALLS.append(coords["trace"])
        raise RuntimeError("transient failure")
    return fake_payload(coords)


def records_by_id(run):
    return {record.cell_id: record for record in run.records}


class TestHappyPath:
    @pytest.mark.parametrize("kind", ["inline", "thread"])
    def test_all_cells_complete(self, kind):
        plan = make_plan()
        run = SweepScheduler(plan, kind=kind, execute=ok_execute).run()
        assert [r.status for r in run.records] == ["ok", "ok"]
        assert run.counters["sweep_cells_ok"] == 2
        assert run.counters["sweep_attempts"] == 2
        assert run.counters["sweep_retries"] == 0

    def test_records_follow_plan_order(self):
        plan = make_plan(warmth=["cold", "warm"])
        run = SweepScheduler(plan, kind="inline", execute=ok_execute).run()
        assert [r.cell_id for r in run.records] == list(
            plan.topological_order()
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SweepScheduler(make_plan(), kind="fiber")


class TestRetries:
    def test_flaky_cell_retries_then_succeeds(self):
        _FLAKY_CALLS.clear()
        plan = make_plan()
        run = SweepScheduler(
            plan, kind="inline", execute=flaky_once_execute
        ).run()
        records = records_by_id(run)
        flaky = records["zipf:100:16:1/serial/cold/lru/L1"]
        assert flaky.status == "ok"
        assert flaky.attempts == 2
        assert run.counters["sweep_retries"] == 1
        assert run.counters["sweep_cells_quarantined"] == 0

    def test_retry_exhaustion_quarantines_without_aborting_siblings(self):
        plan = make_plan()
        run = SweepScheduler(
            plan, kind="inline", execute=fail_zipf_execute, retries=2
        ).run()
        records = records_by_id(run)
        bad = records["zipf:100:16:1/serial/cold/lru/L1"]
        good = records["loop:8x2/serial/cold/lru/L1"]
        assert bad.status == "quarantined"
        assert bad.attempts == 3  # initial + 2 retries
        assert "injected failure" in bad.error
        assert good.status == "ok"
        assert run.counters["sweep_cells_quarantined"] == 1
        assert run.counters["sweep_retries"] == 2

    def test_zero_retries_quarantines_immediately(self):
        plan = make_plan()
        run = SweepScheduler(
            plan, kind="inline", execute=fail_zipf_execute, retries=0
        ).run()
        bad = records_by_id(run)["zipf:100:16:1/serial/cold/lru/L1"]
        assert bad.status == "quarantined"
        assert bad.attempts == 1
        assert run.counters["sweep_retries"] == 0


class TestDependencyGating:
    def test_quarantine_skips_transitive_dependents(self):
        # cold -> warm both levels: failing the cold L1 producer must
        # skip warm L1, cold L2 and warm L2 — but not the zipf chain.
        plan = make_plan(warmth=["cold", "warm"], levels=[1, 2])
        run = SweepScheduler(
            plan, kind="inline", execute=fail_cold_loop_execute, retries=0
        ).run()
        records = records_by_id(run)
        assert records["loop:8x2/serial/cold/lru/L1"].status == "quarantined"
        for skipped_id in (
            "loop:8x2/serial/warm/lru/L1",
            "loop:8x2/serial/cold/lru/L2",
            "loop:8x2/serial/warm/lru/L2",
        ):
            record = records[skipped_id]
            assert record.status == "skipped"
            assert record.attempts == 0
            assert "quarantined" in record.error
        for ok_id in (
            "zipf:100:16:1/serial/cold/lru/L1",
            "zipf:100:16:1/serial/warm/lru/L1",
        ):
            assert records[ok_id].status == "ok"
        assert run.counters["sweep_cells_skipped"] == 3

    def test_warm_runs_after_its_cold_producer(self):
        seen = []

        def tracking_execute(coords, context):
            seen.append((coords["trace"], coords["warmth"]))
            return fake_payload(coords)

        plan = make_plan(warmth=["cold", "warm"])
        SweepScheduler(plan, kind="inline", execute=tracking_execute).run()
        for trace in ("loop:8x2", "zipf:100:16:1"):
            assert seen.index((trace, "cold")) < seen.index((trace, "warm"))


class TestTimeouts:
    def test_process_timeout_kills_worker_and_records_partial_manifest(self):
        plan = make_plan()
        start = time.monotonic()
        run = SweepScheduler(
            plan,
            kind="process",
            execute=hang_zipf_execute,
            timeout_s=0.5,
            retries=0,
        ).run()
        elapsed = time.monotonic() - start
        assert elapsed < 30, "the hung worker was not killed at its deadline"
        records = records_by_id(run)
        hung = records["zipf:100:16:1/serial/cold/lru/L1"]
        assert hung.status == "quarantined"
        assert hung.timeouts == 1
        assert "killed after" in hung.error
        # The scheduler-side partial manifest must be a valid document.
        validate_manifest(hung.manifest)
        assert hung.manifest["counters"] == {"sweep_timeouts": 1}
        assert hung.manifest["phases"][0]["name"] == "sweep:cell-timeout"
        assert records["loop:8x2/serial/cold/lru/L1"].status == "ok"
        assert run.counters["sweep_timeouts"] == 1

    def test_thread_timeout_abandons_the_attempt(self):
        plan = make_plan()
        run = SweepScheduler(
            plan,
            kind="thread",
            execute=hang_zipf_execute,
            timeout_s=0.2,
            retries=0,
            workers=4,
        ).run()
        hung = records_by_id(run)["zipf:100:16:1/serial/cold/lru/L1"]
        assert hung.status == "quarantined"
        assert "abandoned after" in hung.error


class TestProcessBackend:
    def test_worker_crash_is_an_error_not_a_hang(self):
        plan = make_plan()
        run = SweepScheduler(
            plan, kind="process", execute=fail_zipf_execute, retries=0
        ).run()
        bad = records_by_id(run)["zipf:100:16:1/serial/cold/lru/L1"]
        assert bad.status == "quarantined"
        assert "injected failure" in bad.error
