"""Structural and metamorphic invariants: they hold, and they detect."""

from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.instance import CacheInstance, ExplorationResult
from repro.trace.synthetic import loop_nest_trace, sequential_trace
from repro.trace.trace import Trace
from repro.verify.generators import paper_trace
from repro.verify.invariants import (
    METAMORPHIC_LAWS,
    check_laws,
    law_concat,
    law_relabel_xor,
    law_rotate,
    law_stutter,
    structural_violations,
)
from repro.verify.oracle import reference_explorer


def _result(budget, pairs, misses):
    return ExplorationResult(
        budget=budget,
        instances=[CacheInstance(depth=d, associativity=a) for d, a in pairs],
        misses=list(misses),
        trace_name="fabricated",
    )


SAMPLE_TRACES = (
    paper_trace(),
    sequential_trace(24),
    loop_nest_trace(8, 6),
    Trace([0, 9, 0, 9, 3, 0, 9, 3] * 4, name="small-conflicts"),
)


class TestStructuralLaws:
    def test_real_results_have_no_violations(self):
        for trace in SAMPLE_TRACES:
            explorer = AnalyticalCacheExplorer(trace)
            results = [explorer.explore(k) for k in (0, 1, 3)]
            assert structural_violations(results) == []

    def test_within_budget_violation_is_detected(self):
        results = [_result(0, [(2, 1)], [5])]
        laws = [v.law for v in structural_violations(results)]
        assert "within-budget" in laws

    def test_depth_monotone_violation_is_detected(self):
        results = [_result(9, [(2, 1), (4, 2)], [0, 0])]
        laws = [v.law for v in structural_violations(results)]
        assert "depth-monotone" in laws

    def test_budget_monotone_violation_is_detected(self):
        results = [
            _result(0, [(2, 1)], [0]),
            _result(5, [(2, 2)], [0]),  # bigger budget, MORE ways: wrong
        ]
        laws = [v.law for v in structural_violations(results)]
        assert "budget-monotone" in laws


class TestMetamorphicLawsHold:
    def test_all_laws_pass_on_sample_traces(self):
        for trace in SAMPLE_TRACES:
            violations = check_laws(trace, budgets=(0, 2))
            assert violations == [], [v.as_dict() for v in violations]

    def test_law_registry_is_complete(self):
        assert [name for name, _ in METAMORPHIC_LAWS] == [
            "stutter",
            "relabel",
            "concat",
            "rotate",
        ]

    def test_unknown_law_name_is_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            check_laws(paper_trace(), budgets=(0,), laws=("teleport",))


class _LyingExplorer:
    """Wraps a real explorer and corrupts its answers on demand."""

    def __init__(self, trace, bump_assoc=False, misses_delta=0):
        self._real = reference_explorer(trace)
        self._bump_assoc = bump_assoc
        self._misses_delta = misses_delta

    def explore(self, budget):
        result = self._real.explore(budget)
        if not self._bump_assoc or not result.instances:
            return result
        instances = list(result.instances)
        first = instances[0]
        instances[0] = CacheInstance(
            depth=first.depth, associativity=first.associativity + 1
        )
        return ExplorationResult(
            budget=result.budget,
            instances=instances,
            misses=list(result.misses),
            trace_name=result.trace_name,
        )

    def misses(self, depth, assoc):
        return max(0, self._real.misses(depth, assoc) + self._misses_delta)


class TestMetamorphicLawsDetect:
    """Each law flags an engine that lies about the transformed trace."""

    def test_stutter_detects_a_changed_grid(self):
        def factory(trace):
            return _LyingExplorer(trace, bump_assoc="+stutter" in trace.name)

        violations = law_stutter(paper_trace(), budgets=(0,), factory=factory)
        assert [v.law for v in violations] == ["stutter"]

    def test_relabel_detects_a_changed_grid(self):
        def factory(trace):
            return _LyingExplorer(trace, bump_assoc="^=" in trace.name)

        violations = law_relabel_xor(
            paper_trace(), budgets=(0,), factory=factory
        )
        assert [v.law for v in violations] == ["relabel"]

    def test_concat_detects_lost_misses(self):
        def factory(trace):
            delta = -1000 if "+concat" in trace.name else 0
            return _LyingExplorer(trace, misses_delta=delta)

        # Sample points include (D, A-1) probes, which have misses > 0.
        violations = law_concat(paper_trace(), budgets=(0,), factory=factory)
        assert violations
        assert all(v.law == "concat" for v in violations)

    def test_rotate_detects_a_blowup(self):
        def factory(trace):
            delta = 1000 if "<<" in trace.name else 0
            return _LyingExplorer(trace, misses_delta=delta)

        violations = law_rotate(paper_trace(), budgets=(0,), factory=factory)
        assert violations
        assert all(v.law == "rotate" for v in violations)
