"""`repro sweep` end to end through the CLI entry point."""

import json

from repro.cli import main
from repro.obs.manifest import validate_manifest
from repro.sweep import spec_from_dict, validate_sweep_report
from repro.sweep.spec import SPEC_SCHEMA


def write_spec(tmp_path, name="cli-tiny", **overrides):
    document = {
        "schema": SPEC_SCHEMA,
        "name": name,
        "axes": {
            "traces": ["loop:8x2"],
            "engines": ["serial"],
        },
        "budgets": [0],
        "execution": {"workers": 1, "timeout_s": 60.0, "retries": 0,
                      "backoff_s": 0.01},
    }
    document.update(overrides)
    path = tmp_path / f"{name}.yaml"
    path.write_text(spec_from_dict(document).to_yaml_text(), encoding="utf-8")
    return str(path)


def fake_baseline_file(tmp_path, wall_s):
    (tmp_path / "BENCH_fake.json").write_text(
        json.dumps(
            {
                "schema": "repro-bench-postlude/1",
                "python": "3.12.0",
                "repeats": 1,
                "platform": "test",
                "numpy": None,
                "results": [
                    {
                        "engine": "serial",
                        "trace": "loop-8x2",
                        "N": 16,
                        "N_prime": 8,
                        "levels": 4,
                        "wall_s": wall_s,
                        "peak_mem": 100,
                        "match": True,
                    }
                ],
            }
        ),
        encoding="utf-8",
    )


class TestPlan:
    def test_plan_output_is_byte_stable(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert main(["sweep", spec, "--plan"]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", spec, "--plan"]) == 0
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first)
        assert document["schema"] == "repro-sweep-plan/1"
        assert [c["id"] for c in document["cells"]] == [
            "loop:8x2/serial/cold/lru/L1"
        ]


class TestRun:
    def test_inline_run_writes_all_artifacts(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        report_path = tmp_path / "report.json"
        md_path = tmp_path / "report.md"
        manifest_path = tmp_path / "manifest.json"
        code = main(
            [
                "sweep",
                spec,
                "--pool",
                "inline",
                "--no-cache",
                "-o",
                str(report_path),
                "--markdown",
                str(md_path),
                "--manifest-out",
                str(manifest_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep cli-tiny: 1 cells" in out
        assert "1 ok, 0 quarantined" in out

        report = json.loads(report_path.read_text(encoding="utf-8"))
        validate_sweep_report(report)
        assert report["summary"] == {
            "total": 1,
            "ok": 1,
            "quarantined": 0,
            "skipped": 0,
            "attempts": 1,
            "retries": 0,
            "timeouts": 0,
        }

        assert "# Sweep report: cli-tiny" in md_path.read_text(
            encoding="utf-8"
        )

        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        validate_manifest(manifest)
        assert manifest["engine"] == "sweep"
        assert manifest["sweep"]["sweep_cells_ok"] == 1

    def test_json_flag_prints_report(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert main(["sweep", spec, "--pool", "inline", "--no-cache",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        validate_sweep_report(report)

    def test_quarantined_cell_exits_nonzero(self, tmp_path, capsys):
        # A cell that cannot finish by its deadline: a trace big enough
        # that the process backend's first poll finds the worker still
        # alive past --timeout, kills it, and quarantines the cell.
        spec = write_spec(
            tmp_path,
            name="cli-hang",
            axes={"traces": ["zipf:60000:800:1"], "engines": ["serial"]},
        )
        code = main(
            [
                "sweep",
                spec,
                "--pool",
                "process",
                "--no-cache",
                "--timeout",
                "0.01",
                "--retries",
                "0",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "1 quarantined" in out
        assert "killed after" in out


class TestRegressions:
    def run_against_baseline(self, tmp_path, extra_args):
        spec = write_spec(
            tmp_path,
            name="cli-reg",
            report={"tolerance": 0.001, "baselines": ["BENCH_fake.json"]},
        )
        # Baseline so fast any real run regresses past tolerance.
        fake_baseline_file(tmp_path, wall_s=1e-07)
        argv = [
            "sweep",
            spec,
            "--pool",
            "inline",
            "--no-cache",
            "--baseline-dir",
            str(tmp_path),
        ] + extra_args
        return main(argv)

    def test_regression_reported_but_exit_zero_by_default(
        self, tmp_path, capsys
    ):
        assert self.run_against_baseline(tmp_path, []) == 0
        assert "regression" in capsys.readouterr().out

    def test_fail_on_regression_exits_nonzero(self, tmp_path, capsys):
        code = self.run_against_baseline(tmp_path, ["--fail-on-regression"])
        assert code == 1
        assert "regression" in capsys.readouterr().out

    def test_tolerance_override_suppresses_regression(self, tmp_path, capsys):
        code = self.run_against_baseline(
            tmp_path, ["--fail-on-regression", "--tolerance", "1e12"]
        )
        assert code == 0
