"""Plan expansion: matrix rules, structural deps, cycles, stability."""

import json

import pytest

from repro.sweep import Cell, Plan, PlanError, plan_sweep, spec_from_dict
from repro.sweep.spec import SPEC_SCHEMA


def make_spec(**overrides):
    document = {
        "schema": SPEC_SCHEMA,
        "name": "plan-test",
        "axes": {
            "traces": ["loop:8x2", "zipf:100:16:1"],
            "engines": ["serial", "vectorized"],
        },
        "budgets": [0],
    }
    for key, value in overrides.items():
        if key in ("traces", "engines", "warmth", "policies", "levels"):
            document["axes"][key] = value
        else:
            document[key] = value
    return spec_from_dict(document)


def cell_ids(plan):
    return [cell.cell_id for cell in plan.cells]


class TestExpansion:
    def test_cartesian_product(self):
        plan = plan_sweep(make_spec())
        assert len(plan.cells) == 4  # 2 traces x 2 engines
        assert plan.cells[0].cell_id == "loop:8x2/serial/cold/lru/L1"

    def test_axis_order_is_declaration_order(self):
        plan = plan_sweep(make_spec())
        assert cell_ids(plan) == [
            "loop:8x2/serial/cold/lru/L1",
            "loop:8x2/vectorized/cold/lru/L1",
            "zipf:100:16:1/serial/cold/lru/L1",
            "zipf:100:16:1/vectorized/cold/lru/L1",
        ]

    def test_include_pins_axes_and_ranges_free_ones(self):
        # Pinning policy leaves trace x engine free: adds 4 cells.
        plan = plan_sweep(make_spec(include=[{"policy": "fifo"}]))
        fifo_cells = [c for c in plan.cells if c.policy == "fifo"]
        assert len(fifo_cells) == 4
        assert len(plan.cells) == 8

    def test_include_full_pin_adds_one_cell(self):
        plan = plan_sweep(
            make_spec(
                include=[
                    {
                        "trace": "loop:8x2",
                        "engine": "serial",
                        "warmth": "cold",
                        "policy": "fifo",
                        "level": 1,
                    }
                ]
            )
        )
        assert len(plan.cells) == 5
        assert "loop:8x2/serial/cold/fifo/L1" in cell_ids(plan)

    def test_exclude_subset_match(self):
        plan = plan_sweep(make_spec(exclude=[{"engine": "vectorized"}]))
        assert all(cell.engine == "serial" for cell in plan.cells)
        assert len(plan.cells) == 2

    def test_exclude_multi_axis_rule_is_conjunction(self):
        plan = plan_sweep(
            make_spec(exclude=[{"engine": "vectorized", "trace": "loop:8x2"}])
        )
        assert "loop:8x2/vectorized/cold/lru/L1" not in cell_ids(plan)
        assert len(plan.cells) == 3

    def test_include_duplicates_are_deduped(self):
        plan = plan_sweep(
            make_spec(include=[{"trace": "loop:8x2"}])  # overlaps the product
        )
        ids = cell_ids(plan)
        assert len(ids) == len(set(ids)) == 4

    def test_everything_excluded_is_an_error(self):
        with pytest.raises(PlanError, match="zero cells"):
            plan_sweep(make_spec(exclude=[{"policy": "lru"}]))

    def test_expansion_golden(self):
        """The full include/exclude pipeline against a written-out matrix."""
        plan = plan_sweep(
            make_spec(
                warmth=["cold", "warm"],
                include=[{"trace": "loop:8x2", "engine": "serial",
                          "policy": "fifo", "warmth": "cold"}],
                exclude=[{"trace": "zipf:100:16:1", "warmth": "warm"}],
            )
        )
        assert cell_ids(plan) == [
            "loop:8x2/serial/cold/lru/L1",
            "loop:8x2/serial/warm/lru/L1",
            "loop:8x2/vectorized/cold/lru/L1",
            "loop:8x2/vectorized/warm/lru/L1",
            "zipf:100:16:1/serial/cold/lru/L1",
            "zipf:100:16:1/vectorized/cold/lru/L1",
            "loop:8x2/serial/cold/fifo/L1",
        ]


class TestDependencies:
    def test_warm_depends_on_cold(self):
        plan = plan_sweep(make_spec(warmth=["cold", "warm"]))
        warm = plan.cell("loop:8x2/serial/warm/lru/L1")
        assert plan.dependencies(warm) == ("loop:8x2/serial/cold/lru/L1",)

    def test_level2_depends_on_level1(self):
        plan = plan_sweep(make_spec(levels=[1, 2]))
        l2 = plan.cell("loop:8x2/serial/cold/lru/L2")
        assert plan.dependencies(l2) == ("loop:8x2/serial/cold/lru/L1",)

    def test_cold_cells_are_independent(self):
        plan = plan_sweep(make_spec())
        assert all(not plan.dependencies(cell) for cell in plan.cells)

    def test_warm_without_cold_producer_fails(self):
        with pytest.raises(PlanError, match="no cold producer"):
            plan_sweep(
                make_spec(
                    warmth=["cold", "warm"],
                    exclude=[{"warmth": "cold", "engine": "serial"}],
                )
            )

    def test_level2_without_level1_fails(self):
        with pytest.raises(PlanError, match="no level-1 winner"):
            plan_sweep(
                make_spec(
                    levels=[1, 2],
                    exclude=[{"level": 1, "trace": "loop:8x2"}],
                )
            )

    def test_topological_order_respects_deps(self):
        plan = plan_sweep(make_spec(warmth=["cold", "warm"], levels=[1, 2]))
        order = plan.topological_order()
        for cell in plan.cells:
            for dep in plan.dependencies(cell):
                assert order.index(dep) < order.index(cell.cell_id)


class TestCycles:
    """Plan construction rejects cyclic graphs — at plan time, loudly."""

    def _cells(self):
        return (
            Cell("loop:8x2", "serial", "cold", "lru", 1),
            Cell("loop:8x2", "vectorized", "cold", "lru", 1),
        )

    def test_self_cycle(self):
        a, b = self._cells()
        with pytest.raises(PlanError, match="cycle"):
            Plan(
                spec=make_spec(),
                cells=(a, b),
                depends_on={a.cell_id: (a.cell_id,)},
            )

    def test_two_cell_cycle_names_the_stuck_cells(self):
        a, b = self._cells()
        with pytest.raises(PlanError, match="cycle") as excinfo:
            Plan(
                spec=make_spec(),
                cells=(a, b),
                depends_on={
                    a.cell_id: (b.cell_id,),
                    b.cell_id: (a.cell_id,),
                },
            )
        assert a.cell_id in str(excinfo.value)
        assert b.cell_id in str(excinfo.value)

    def test_unknown_dependency_rejected(self):
        a, b = self._cells()
        with pytest.raises(PlanError, match="unknown cell"):
            Plan(spec=make_spec(), cells=(a,), depends_on={a.cell_id: ("ghost",)})

    def test_unknown_cell_in_map_rejected(self):
        a, b = self._cells()
        with pytest.raises(PlanError, match="unknown cell"):
            Plan(spec=make_spec(), cells=(a,), depends_on={"ghost": ()})


class TestStability:
    def test_plan_json_is_byte_stable(self):
        spec = make_spec(warmth=["cold", "warm"])
        assert plan_sweep(spec).to_json() == plan_sweep(spec).to_json()

    def test_fingerprint_matches_rebuild(self):
        spec = make_spec()
        assert plan_sweep(spec).fingerprint() == plan_sweep(spec).fingerprint()

    def test_fingerprint_changes_with_spec(self):
        base = plan_sweep(make_spec()).fingerprint()
        changed = plan_sweep(make_spec(seed=1)).fingerprint()
        assert base != changed

    def test_plan_document_shape(self):
        plan = plan_sweep(make_spec(warmth=["cold", "warm"]))
        document = json.loads(plan.to_json())
        assert document["schema"] == "repro-sweep-plan/1"
        assert document["fingerprint"] == plan.fingerprint()
        by_id = {cell["id"]: cell for cell in document["cells"]}
        warm = by_id["loop:8x2/serial/warm/lru/L1"]
        assert warm["depends_on"] == ["loop:8x2/serial/cold/lru/L1"]
        assert warm["coords"]["warmth"] == "warm"
