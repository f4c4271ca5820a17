"""The append-equivalence oracle: chunkings, detection, grid wiring."""

from __future__ import annotations

import pytest

from repro.core.streaming import StreamingState
from repro.trace.trace import Trace
from repro.verify import run_grid, stream_divergences
from repro.verify.oracle import random_chunk_splits

TRACE = Trace(
    [1, 2, 3, 1, 2, 3, 7, 1, 9, 2, 3, 7, 1, 5, 2, 3],
    address_bits=4,
    name="oracle",
)


class TestRandomChunkSplits:
    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_every_chunking_partitions_the_range(self, n) -> None:
        for chunking in random_chunk_splits(n, splits=3, seed=5):
            covered = []
            for start, stop in chunking:
                assert start < stop
                covered.extend(range(start, stop))
            assert covered == list(range(n))

    def test_boundary_chunkings_always_present(self) -> None:
        chunkings = random_chunk_splits(9, splits=0, seed=0)
        assert [(i, i + 1) for i in range(9)] in chunkings
        assert [(0, 9)] in chunkings

    def test_deterministic_in_seed(self) -> None:
        assert random_chunk_splits(12, 4, 9) == random_chunk_splits(12, 4, 9)
        assert random_chunk_splits(12, 4, 9) != random_chunk_splits(12, 4, 10)

    def test_empty_trace_has_the_empty_chunking(self) -> None:
        assert random_chunk_splits(0, splits=5, seed=1) == [[]]


class TestStreamDivergences:
    def test_healthy_pipeline_is_clean(self) -> None:
        assert stream_divergences(TRACE, budgets=(0, 2), splits=3) == []

    def test_empty_trace_is_clean(self) -> None:
        assert stream_divergences(Trace([], address_bits=3)) == []

    def test_detects_a_tampered_session(self, monkeypatch) -> None:
        """Break the streaming kernel; the oracle must notice."""
        original = StreamingState.histograms

        def tampered(self):
            histograms = original(self)
            if 0 in histograms and histograms[0].counts:
                first = next(iter(histograms[0].counts))
                histograms[0].counts[first] += 1
            return histograms

        monkeypatch.setattr(StreamingState, "histograms", tampered)
        divergences = stream_divergences(TRACE, budgets=(0,), splits=0)
        assert divergences
        assert all(d.kind == "stream" for d in divergences)
        assert any("histograms diverge" in d.detail for d in divergences)

    def test_divergence_names_the_chunking(self, monkeypatch) -> None:
        monkeypatch.setattr(
            StreamingState, "histograms", lambda self: {}
        )
        divergences = stream_divergences(TRACE, splits=0)
        cells = {d.cell for d in divergences}
        assert f"stream/{len(TRACE)} chunks" in cells  # per-reference
        assert "stream/1 chunks" in cells  # single append


class TestGridWiring:
    def test_grid_runs_the_stream_oracle(self) -> None:
        outcome = run_grid(
            TRACE, budgets=(0,), simulate=False, stream_splits=1
        )
        assert outcome.divergences == []

    def test_grid_can_skip_the_stream_oracle(self, monkeypatch) -> None:
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("stream oracle ran despite stream_splits=-1")

        monkeypatch.setattr(
            "repro.verify.oracle.stream_divergences", boom
        )
        outcome = run_grid(
            TRACE, budgets=(0,), simulate=False, stream_splits=-1
        )
        assert outcome.divergences == []

    def test_grid_surfaces_stream_divergences(self, monkeypatch) -> None:
        monkeypatch.setattr(
            StreamingState, "histograms", lambda self: {}
        )
        outcome = run_grid(
            TRACE, budgets=(0,), simulate=False, stream_splits=0
        )
        # No grid cell runs the streaming kernel: only sessions diverge.
        assert {d.kind for d in outcome.divergences} == {"stream"}
