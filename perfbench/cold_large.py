"""``cold-large``: cold explorations of three large traces, no store.

Requests go round-robin, one at a time, over ``loop-mix``, ``zipf`` and
``markov`` with the default ``engine=auto`` and ``prelude=auto`` at the
paper's budgets.  The packed-MRCT prelude is most of every request, so
cold-path work shows here first; store and serve do nothing.
"""

from __future__ import annotations

import os
import sys
import time

from repro.core.request import ExplorationRequest, explore_request
from repro.obs import Recorder

from inputs import PAPER_PERCENTS, large_traces
from workload import Outcome, run_rounds


class ColdLarge:
    #: ~15-21 requests per 30 s run, the top third from ``loop-mix``: the
    #: p90 sits inside that band with about two samples beyond it.
    TAIL_PERCENTILE = 90.0
    #: ``request_p50_s`` is the median over rounds (one request per
    #: trace) of the mean request time: ~6 requests per trace fall in
    #: three bands that overlap under host noise, and a round spans
    #: ~5 s of it rather than ~1.5 s.
    P50_ROUND_SIZE = 3

    def __init__(self, seed: int, work_dir: str) -> None:
        self.traces = large_traces(seed)
        self.references = {}
        # The discarded warm-up: the cheapest of the three requests.
        explore_request(ExplorationRequest.single(self.traces[2], percents=PAPER_PERCENTS))

    def pids(self):
        return [os.getpid()]

    def close(self) -> None:
        pass

    def run(self, seconds: float, tracer=None) -> Outcome:
        return run_rounds(self.traces, seconds, tracer, self._request)

    def _request(self, trace, outcome: Outcome, tracer):
        recorder = Recorder(memory=False) if tracer else None
        request = ExplorationRequest.single(trace, percents=PAPER_PERCENTS, recorder=recorder)
        start = time.perf_counter()
        try:
            if tracer:
                with tracer.request(outcome.attempted), tracer.span("request") as span:
                    report = explore_request(request)
                tracer.add_phase_tree(recorder.as_dict()["phases"], start, span)
            else:
                report = explore_request(request)
        except Exception as exc:  # a failing request is a failed operation
            print(f"{trace.name}: {exc!r}", file=sys.stderr)
            return False, time.perf_counter() - start
        wall = time.perf_counter() - start
        if tracer:
            outcome.tally.add_request(report.engine, recorder.counters)
        reference = self.references.setdefault(trace.name, report)
        return report == reference, wall

    def check(self, simulator, outcome: Outcome) -> None:
        """Each trace's first answer against the simulator; repeats equal it."""
        for trace in self.traces:
            report = self.references.get(trace.name)
            if report is None:
                continue
            why = simulator.mismatch(trace, PAPER_PERCENTS, report.to_json_dict())
            if why:
                outcome.fail(why, trace.name)
