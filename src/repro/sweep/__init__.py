"""Benchmark farm: declarative sweep orchestration over the matrix.

The paper's evaluation is a 12-kernel PowerStone matrix explored across
engines and store warmth; :mod:`repro.sweep` turns that matrix
into a first-class, declarative artifact instead of ~30 ad-hoc harness
scripts.  A YAML :class:`SweepSpec` names the axes (traces x engines x
warmth x policies x levels) plus matrix ``include``/
``exclude`` rules; the :mod:`planner <repro.sweep.planner>` expands it
into a cell DAG (warm cells depend on their cold producer, L2 cells on
the L1 winner) with plan-time cycle detection and a byte-stable
fingerprint; the :mod:`scheduler <repro.sweep.scheduler>` runs the DAG
under bounded worker concurrency with per-cell timeout, retry-with-
backoff and quarantine; the :mod:`report <repro.sweep.report>` module
aggregates per-cell ``repro-run-manifest/1`` manifests into one
validated ``repro-sweep-report/1`` document (plus a markdown trend
table) and diffs timings against the committed ``BENCH_*.json``
baselines.

:mod:`repro.sweep.schema` additionally unifies the five per-bench
``BENCH_*.json`` validators behind one :func:`validate_bench` entry
point, so CI validates every benchmark artifact through a single code
path.

Entry points::

    repro sweep benchmarks/sweeps/quick.yaml -o report.json
    repro sweep benchmarks/sweeps/quick.yaml --plan   # byte-stable DAG

    from repro.sweep import load_spec, plan_sweep, run_sweep

    spec = load_spec("benchmarks/sweeps/quick.yaml")
    plan = plan_sweep(spec)
    report = run_sweep(plan)
"""

from repro.sweep.planner import Plan, PlanError, Cell, plan_sweep
from repro.sweep.report import (
    SWEEP_REPORT_SCHEMA,
    build_report,
    diff_against_baselines,
    render_markdown,
    validate_sweep_report,
)
from repro.sweep.scheduler import CellRecord, SweepScheduler, run_sweep
from repro.sweep.schema import BENCH_SCHEMAS, validate_bench
from repro.sweep.spec import (
    SPEC_SCHEMA,
    SweepSpec,
    SweepSpecError,
    load_spec,
    spec_from_dict,
    spec_from_yaml,
)

__all__ = [
    "BENCH_SCHEMAS",
    "Cell",
    "CellRecord",
    "Plan",
    "PlanError",
    "SPEC_SCHEMA",
    "SWEEP_REPORT_SCHEMA",
    "SweepScheduler",
    "SweepSpec",
    "SweepSpecError",
    "build_report",
    "diff_against_baselines",
    "load_spec",
    "plan_sweep",
    "render_markdown",
    "run_sweep",
    "spec_from_dict",
    "spec_from_yaml",
    "validate_bench",
    "validate_sweep_report",
]
