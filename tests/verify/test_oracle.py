"""The differential oracle grid: agreement, and fault detection."""

import pytest

from repro.core.instance import CacheInstance, ExplorationResult
from repro.verify.oracle import (
    REFERENCE_CELL,
    GridCell,
    grid_cells,
    reference_explorer,
    result_signature,
    run_grid,
)


def _bump_last_assoc(result):
    """A corrupted copy of ``result``: last instance gets one extra way."""
    instances = list(result.instances)
    last = instances[-1]
    instances[-1] = CacheInstance(
        depth=last.depth, associativity=last.associativity + 1
    )
    return ExplorationResult(
        budget=result.budget,
        instances=instances,
        misses=list(result.misses),
        trace_name=result.trace_name,
    )


class TestGridEnumeration:
    def test_reference_cell_is_always_first(self):
        cells = grid_cells()
        assert cells[0] == REFERENCE_CELL
        assert len(cells) == len(set(cells))
        # The reference plus engine x warmth.
        assert [cell.label() for cell in cells] == [
            "reference/cold",
            "serial/cold",
            "vectorized/cold",
            "serial/warm",
            "vectorized/warm",
        ]

    def test_subset_still_contains_the_reference(self):
        cells = grid_cells(engines=("vectorized",))
        assert cells[0] == REFERENCE_CELL
        assert GridCell("vectorized", "cold") in cells

    def test_cold_only_grid_has_no_warm_cells(self):
        cells = grid_cells(include_warm=False)
        assert all(cell.warmth == "cold" for cell in cells)

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ValueError):
            grid_cells(engines=("quantum",))


class TestGridAgreement:
    def test_paper_trace_full_grid_zero_divergences(self, paper_trace):
        outcome = run_grid(paper_trace, budgets=(0, 2), simulate=True)
        assert outcome.ok, [d.as_dict() for d in outcome.divergences]
        assert outcome.cells_run == len(grid_cells())
        assert outcome.reference  # reference results are exported

    def test_signatures_are_order_sensitive_and_exact(self, paper_trace):
        outcome = run_grid(
            paper_trace, budgets=(0,), cells=(REFERENCE_CELL,), simulate=False
        )
        signature = result_signature(outcome.reference)
        assert signature[0][0] == 0
        assert (2, 3, 0) in signature[0][1]  # depth 2 needs 3 ways, 0 misses


class TestReferenceExplorer:
    def test_reference_runs_no_size_selected_builder(self, monkeypatch):
        """Above every fast-builder threshold, the reference still takes
        only the paper-faithful builders and the serial postlude."""
        import repro.core.engines as engines
        import repro.core.prelude_fast as prelude_fast
        import repro.trace.strip as strip
        from repro.core.explorer import AnalyticalCacheExplorer
        from repro.trace.synthetic import zipf_trace

        trace = zipf_trace(6000, 200, seed=4)
        expected = AnalyticalCacheExplorer(trace).explore(3)

        def forbidden(*args, **kwargs):
            raise AssertionError("fast builder on the reference path")

        for name in ("build_mrct_auto", "build_mrct_fast", "build_packed_mrct"):
            monkeypatch.setattr(prelude_fast, name, forbidden)
        monkeypatch.setattr(strip, "strip_trace_auto", forbidden)
        monkeypatch.setattr(engines, "strip_trace_auto", forbidden)
        monkeypatch.setattr(strip, "strip_trace_numpy", forbidden)
        explorer = reference_explorer(trace)
        assert explorer.resolved_engine == "serial"
        assert result_signature([explorer.explore(3)]) == result_signature(
            [expected]
        )


class TestFaultDetection:
    def test_tampered_cell_is_caught_as_grid_divergence(self, paper_trace):
        target = GridCell("vectorized", "warm")

        def tamper(cell, result):
            if cell == target:
                return _bump_last_assoc(result)
            return result

        outcome = run_grid(
            paper_trace,
            budgets=(0,),
            cells=(REFERENCE_CELL, target),
            tamper=tamper,
            simulate=False,
        )
        assert not outcome.ok
        assert [d.kind for d in outcome.divergences] == ["grid"]
        assert outcome.divergences[0].cell == target.label()

    def test_tampered_reference_is_caught_by_the_simulator(self, paper_trace):
        def tamper(cell, result):
            if cell == REFERENCE_CELL:
                return _bump_last_assoc(result)
            return result

        outcome = run_grid(
            paper_trace,
            budgets=(0,),
            cells=(REFERENCE_CELL,),
            tamper=tamper,
            simulate=True,
        )
        # The corrupted A is over-provisioned: minimality flags it even
        # though it still meets the budget.
        assert not outcome.ok
        assert any(d.kind == "minimality" for d in outcome.divergences)
