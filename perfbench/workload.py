"""What a workload's timed phase produces, and its end-to-end metrics."""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from harness import LayerTally, median, percentile


class Outcome:
    """Per-request samples of one timed phase plus its failure log.

    A request fails when it raised, when its answer differs from an
    earlier answer to the same question, or when a later check finds
    its (D, A) table wrong; the phase goes on either way.
    """

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.refs: List[int] = []
        self.kinds: List[str] = []
        self.traced: List[bool] = []
        self.keys: List[object] = []
        self.ok: List[bool] = []
        self.elapsed = 0.0
        self.tally: Optional[LayerTally] = None
        self.extra: Dict[str, float] = {}

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def add(self, wall: float, refs: int, traced: bool, ok: bool, key=None, kind="") -> None:
        self.walls.append(wall)
        self.refs.append(refs)
        self.traced.append(traced)
        self.ok.append(ok)
        self.keys.append(key)
        self.kinds.append(kind)

    def fail(self, why: str, *keys) -> None:
        """Mark every request asked under one of ``keys`` as failed."""
        print(f"check failed: {why}", file=sys.stderr)
        for index, sample_key in enumerate(self.keys):
            if sample_key in keys:
                self.ok[index] = False

    def end_to_end(self, tail_percentile: float, round_size: int = 1) -> Dict[str, float]:
        """Request-time metrics over the untraced requests.

        ``request_p50_s`` is the median, over consecutive rounds of
        ``round_size`` requests, of a round's mean request time; with
        the default of 1 that is the plain median.
        """
        walls = [w for w, t in zip(self.walls, self.traced) if not t]
        refs = [r for r, t in zip(self.refs, self.traced) if not t]
        rounds = [walls[i : i + round_size] for i in range(0, len(walls) - round_size + 1, round_size)]
        p50 = median([sum(r) / round_size for r in rounds])
        return {
            "request_p50_s": p50,
            "request_tail_s": percentile(walls, tail_percentile),
            "refs_per_s": sum(refs) / sum(walls),
            "requests_per_s": len(self.walls) / self.elapsed,
        }


def run_rounds(traces: Sequence, seconds: float, tracer, request: Callable) -> Outcome:
    """Round-robin ``request(trace, outcome, tracer_or_None)`` over ``traces``.

    Runs whole rounds until ``seconds`` pass, so every trace is asked
    equally often.  A traced run traces every other round and stops on
    an even count, so traced and untraced requests cover the same mix.
    """
    outcome = Outcome()
    outcome.tally = LayerTally()
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 0
        for trace in traces:
            ok, wall = request(trace, outcome, tracer if traced else None)
            outcome.add(wall, len(trace), traced, ok, key=trace.name)
        rounds += 1
        outcome.elapsed = time.perf_counter() - start
        if outcome.elapsed >= seconds and (tracer is None or rounds % 2 == 0):
            return outcome
