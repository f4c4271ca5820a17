"""The benchmark's inputs, each a pure function of ``--seed``.

Every generator is handed the seed explicitly; ``loop-mix`` has no
randomness and ignores it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.sweep.scheduler import resolve_trace
from repro.trace.trace import Trace

#: The paper's budgets: 5-20% of the trace's maximum non-cold misses.
PAPER_PERCENTS = (5.0, 10.0, 15.0, 20.0)


def large_traces(seed: int) -> List[Trace]:
    """The three ``cold-large`` traces.

    ``loop-mix`` (N = 1,024,000, N' = 2048) has mostly duplicate
    conflict rows and is the one trace on which ``auto`` picks
    ``parallel-shm``; ``zipf`` (N = 200,000) has no duplicate rows;
    ``markov`` (N' = 3000) has the widest rows per reference.
    """
    return [
        resolve_trace("loop-mix:512x500"),
        resolve_trace(f"zipf:200000:1500:{seed}"),
        resolve_trace(f"markov:200000:3000:0.9:{seed}"),
    ]


def small_trace(seed: int, stream: int, index: int) -> Trace:
    """One fresh ``serve-mix`` trace, N in [2e4, 5e4] and N' in [256, 1024].

    Size and footprint cycle with ``index`` (every pair once per 20
    indices), so the cost mix of a run does not depend on the seed;
    ``(seed, stream, index)`` picks the addresses.  Even indices are a
    Zipf-skewed draw; odd ones a random walk that steps to a neighbour
    with probability 0.9 and otherwise jumps.
    """
    rng = np.random.default_rng([seed, stream, index])
    n = 20_000 + 7_500 * (index % 5)
    footprint = 256 * (1 + index % 4)
    if index % 2 == 0:
        weights = 1.0 / np.arange(1, footprint + 1)
        addresses = rng.choice(footprint, size=n, p=weights / weights.sum())
    else:
        jumps = rng.random(n) >= 0.9
        jumps[0] = True
        steps = np.where(rng.random(n) < 0.5, -1, 1)
        steps[jumps] = 0
        segment = np.cumsum(jumps) - 1
        walked = np.cumsum(steps)
        start = rng.integers(0, footprint, size=int(jumps.sum()))
        offset = walked - walked[jumps][segment]
        addresses = (start[segment] + offset) % footprint
    return Trace(addresses.tolist(), name=f"serve-{stream}-{index}")
