"""Sweep cells produce byte-identical results to the legacy bench paths.

``repro.sweep.scheduler.run_cell`` must be a *relabelling* of the
direct ``explore_request`` call the benchmark harnesses make — same
trace resolution, same scenario, same report — or the migrated
benchmarks would silently measure something else.  These tests pin the
equivalence exactly: ``ExplorationReport.to_json_dict()`` is a pure
deterministic function of the inputs, so equality is ``==``, not
approx.
"""

from repro.core.request import ExplorationRequest, explore_request
from repro.scenario.spec import ScenarioSpec
from repro.sweep import SweepScheduler, plan_sweep, spec_from_dict
from repro.sweep.scheduler import resolve_trace
from repro.sweep.spec import SPEC_SCHEMA

BUDGETS = (0, 8)


def make_plan(traces, engines):
    return plan_sweep(
        spec_from_dict(
            {
                "schema": SPEC_SCHEMA,
                "name": "parity",
                "axes": {
                    "traces": list(traces),
                    "engines": list(engines),
                },
                "budgets": list(BUDGETS),
            }
        )
    )


def legacy_report(entry, engine):
    """The report the pre-sweep bench path computes for one config."""
    trace = resolve_trace(entry)
    request = ExplorationRequest.single(
        trace,
        budgets=BUDGETS,
        scenario=ScenarioSpec(engine=engine),
    )
    return explore_request(request).to_json_dict()


def test_sweep_cells_match_direct_exploration():
    plan = make_plan(
        traces=("loop:16x4", "zipf:400:64:1"),
        engines=("serial", "vectorized"),
    )
    run = SweepScheduler(plan, kind="inline").run()
    assert all(record.status == "ok" for record in run.records)
    by_id = {record.cell_id: record for record in run.records}
    for cell in plan.cells:
        record = by_id[cell.cell_id]
        assert record.report == legacy_report(cell.trace, cell.engine), (
            cell.cell_id
        )


def test_trace_names_match_bench_conventions():
    plan = make_plan(traces=("loop:16x4", "zipf:400:64:1"), engines=("serial",))
    run = SweepScheduler(plan, kind="inline").run()
    assert sorted(record.trace_name for record in run.records) == [
        "loop-16x4",
        "zipf-400-64",
    ]


def test_process_backend_matches_inline():
    """Worker isolation must not change results (fork-safe execution)."""
    plan = make_plan(traces=("loop:16x4",), engines=("serial",))
    inline = SweepScheduler(plan, kind="inline").run()
    process = SweepScheduler(plan, kind="process").run()
    assert [r.status for r in process.records] == ["ok", ] * len(plan.cells)
    assert [r.report for r in process.records] == [
        r.report for r in inline.records
    ]
