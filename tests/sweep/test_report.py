"""Report aggregation, baseline diffing, and document validation."""

import json

import pytest

from repro.obs.manifest import MANIFEST_SCHEMA, environment_info
from repro.sweep import (
    SWEEP_REPORT_SCHEMA,
    build_report,
    plan_sweep,
    render_markdown,
    spec_from_dict,
    validate_sweep_report,
)
from repro.sweep.scheduler import CellRecord, SweepRun
from repro.sweep.spec import SPEC_SCHEMA


def make_plan(**overrides):
    document = {
        "schema": SPEC_SCHEMA,
        "name": "report-test",
        "axes": {
            "traces": ["loop:8x2"],
            "engines": ["serial", "vectorized"],
        },
        "budgets": [0],
        "report": {
            "tolerance": 0.5,
            "baselines": ["BENCH_fake.json"],
        },
    }
    document.update(overrides)
    return plan_sweep(spec_from_dict(document))


def make_manifest(engine, wall_s):
    return {
        "schema": MANIFEST_SCHEMA,
        "engine": engine,
        "requested_engine": engine,
        "options": {},
        "trace": {"name": "loop-8x2", "n": 16, "n_unique": 8,
                  "address_bits": 4},
        "wall_s": wall_s,
        "phases": [
            {"name": "sweep:cell", "duration_s": wall_s, "counters": {},
             "children": []}
        ],
        "counters": {},
        "memory": {},
        "environment": environment_info(),
    }


def make_run(plan, wall_by_engine=None):
    wall_by_engine = wall_by_engine or {}
    records = []
    for cell in plan.cells:
        wall = wall_by_engine.get(cell.engine, 0.01)
        records.append(
            CellRecord(
                cell_id=cell.cell_id,
                coords=cell.coords(),
                status="ok",
                attempts=1,
                wall_s=wall,
                trace_name="loop-8x2",
                engine=cell.engine,
                report={"mode": "single"},
                manifest=make_manifest(cell.engine, wall),
            )
        )
    n = len(records)
    return SweepRun(
        records=records,
        wall_s=sum(r.wall_s for r in records),
        counters={
            "sweep_cells_total": n,
            "sweep_cells_ok": n,
            "sweep_cells_quarantined": 0,
            "sweep_cells_skipped": 0,
            "sweep_attempts": n,
            "sweep_retries": 0,
            "sweep_timeouts": 0,
        },
    )


def fake_baseline(serial_wall, vectorized_wall):
    """A minimal valid repro-bench-postlude/1 document."""
    return {
        "schema": "repro-bench-postlude/1",
        "python": "3.12.0",
        "repeats": 1,
        "platform": "test",
        "numpy": None,
        "results": [
            {
                "engine": engine,
                "trace": "loop-8x2",
                "N": 16,
                "N_prime": 8,
                "levels": 4,
                "wall_s": wall,
                "peak_mem": 100,
                "match": True,
            }
            for engine, wall in (
                ("serial", serial_wall),
                ("vectorized", vectorized_wall),
            )
        ],
    }


class TestBuildReport:
    def test_report_validates_and_carries_cells(self, tmp_path):
        plan = make_plan(report={"tolerance": 0.5, "baselines": []})
        report = build_report(plan, make_run(plan))
        validate_sweep_report(report)
        assert report["schema"] == SWEEP_REPORT_SCHEMA
        assert report["name"] == "report-test"
        assert report["plan_fingerprint"] == plan.fingerprint()
        assert len(report["cells"]) == 2
        assert report["summary"]["ok"] == 2

    def test_regression_flagged_past_tolerance(self, tmp_path):
        plan = make_plan()
        (tmp_path / "BENCH_fake.json").write_text(
            json.dumps(fake_baseline(serial_wall=0.2, vectorized_wall=0.1))
        )
        # serial 0.4s vs baseline 0.2s = 2.0x > 1.5x tolerance bar;
        # vectorized 0.12s vs 0.1s = 1.2x, within bar.
        run = make_run(plan, {"serial": 0.4, "vectorized": 0.12})
        report = build_report(plan, run, baseline_dir=str(tmp_path))
        assert len(report["regressions"]) == 1
        entry = report["regressions"][0]
        assert entry["cell"] == "loop:8x2/serial/cold/lru/L1"
        assert entry["ratio"] == pytest.approx(2.0)
        files = report["baselines"]["files"]["BENCH_fake.json"]
        assert files["matched"] == 2

    def test_missing_baseline_recorded_not_fatal(self, tmp_path):
        plan = make_plan()
        report = build_report(plan, make_run(plan), baseline_dir=str(tmp_path))
        entry = report["baselines"]["files"]["BENCH_fake.json"]
        assert "error" in entry
        assert report["regressions"] == []

    def test_invalid_baseline_recorded_not_fatal(self, tmp_path):
        plan = make_plan()
        (tmp_path / "BENCH_fake.json").write_text('{"schema": "nonsense"}')
        report = build_report(plan, make_run(plan), baseline_dir=str(tmp_path))
        assert "error" in report["baselines"]["files"]["BENCH_fake.json"]

    def test_non_cold_cells_do_not_match_baselines(self, tmp_path):
        plan = make_plan(
            axes={
                "traces": ["loop:8x2"],
                "engines": ["serial"],
                "warmth": ["cold", "warm"],
            },
        )
        (tmp_path / "BENCH_fake.json").write_text(
            json.dumps(fake_baseline(0.2, 0.1))
        )
        run = make_run(plan, {"serial": 10.0})
        report = build_report(plan, run, baseline_dir=str(tmp_path))
        comparisons = report["baselines"]["files"]["BENCH_fake.json"][
            "comparisons"
        ]
        assert [c["cell"] for c in comparisons] == [
            "loop:8x2/serial/cold/lru/L1"
        ]


class TestValidation:
    def make_valid(self):
        plan = make_plan(report={"tolerance": 0.5, "baselines": []})
        return build_report(plan, make_run(plan))

    def test_rejects_wrong_schema(self):
        report = self.make_valid()
        report["schema"] = "nope"
        with pytest.raises(ValueError, match="schema"):
            validate_sweep_report(report)

    def test_rejects_summary_count_mismatch(self):
        report = self.make_valid()
        report["summary"]["ok"] = 99
        with pytest.raises(ValueError, match="summary.ok"):
            validate_sweep_report(report)

    def test_rejects_total_cells_mismatch(self):
        report = self.make_valid()
        report["summary"]["total"] = 5
        with pytest.raises(ValueError, match="summary.total"):
            validate_sweep_report(report)

    def test_rejects_bad_cell_status(self):
        report = self.make_valid()
        report["cells"][0]["status"] = "exploded"
        with pytest.raises(ValueError, match="status"):
            validate_sweep_report(report)

    def test_rejects_ok_cell_without_manifest(self):
        report = self.make_valid()
        del report["cells"][0]["manifest"]
        with pytest.raises(ValueError, match="manifest"):
            validate_sweep_report(report)

    def test_rejects_invalid_embedded_manifest(self):
        report = self.make_valid()
        report["cells"][0]["manifest"]["wall_s"] = -1
        with pytest.raises(ValueError, match="manifest"):
            validate_sweep_report(report)

    def test_rejects_quarantined_cell_without_error(self):
        report = self.make_valid()
        cell = report["cells"][0]
        cell["status"] = "quarantined"
        del cell["report"]
        report["summary"]["ok"] = 1
        report["summary"]["quarantined"] = 1
        with pytest.raises(ValueError, match="error"):
            validate_sweep_report(report)

    def test_rejects_unflagged_regression_entry(self):
        report = self.make_valid()
        report["regressions"] = [{"cell": "x", "regression": False}]
        with pytest.raises(ValueError, match="regressions"):
            validate_sweep_report(report)


class TestMarkdown:
    def test_markdown_lists_cells_and_regressions(self, tmp_path):
        plan = make_plan()
        (tmp_path / "BENCH_fake.json").write_text(
            json.dumps(fake_baseline(0.2, 0.1))
        )
        run = make_run(plan, {"serial": 0.4, "vectorized": 0.12})
        report = build_report(plan, run, baseline_dir=str(tmp_path))
        text = render_markdown(report)
        assert "# Sweep report: report-test" in text
        assert "loop:8x2/serial/cold/lru/L1" in text
        assert "## Regressions" in text
        assert "2.00x" in text
        assert "BENCH_fake.json" in text

    def test_markdown_without_regressions(self):
        plan = make_plan(report={"tolerance": 0.5, "baselines": []})
        report = build_report(plan, make_run(plan))
        text = render_markdown(report)
        assert "No regressions" in text

    def test_markdown_marks_failed_cells(self):
        plan = make_plan(report={"tolerance": 0.5, "baselines": []})
        run = make_run(plan)
        record = run.records[0]
        record.status = "quarantined"
        record.error = "boom"
        record.report = None
        run.counters["sweep_cells_ok"] = 1
        run.counters["sweep_cells_quarantined"] = 1
        report = build_report(plan, run)
        assert "**quarantined**" in render_markdown(report)
