"""Adversarial trace corpus for the differential verification oracle.

The corpus is an ordered, seeded stream of :class:`CorpusEntry` items:
first the deterministic *anchor* entries — the paper's running example
(always entry 0, so the worked example is the first thing every fuzz run
re-proves) and a battery of boundary/pathological shapes — then an
unbounded tail of seeded random families built on
:mod:`repro.trace.synthetic`.  Everything is deterministic given the run
seed, so a corpus index in a failure report replays exactly.

Entries stay deliberately small (a few hundred references, narrow
address widths): the oracle runs every entry through the full
engine x store-warmth grid plus a cache simulation per emitted
instance, and small traces keep whole-grid coverage inside a tight time
budget while still exercising every structural edge the kernels have
(single reference, all-unique, ``N' == 1``, power-of-two stride aliasing,
bit-reversal, interleaved streams...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.trace.stats import compute_statistics
from repro.trace.synthetic import (
    adversarial_lowbit_trace,
    interleaved_trace,
    loop_nest_trace,
    markov_trace,
    random_trace,
    sequential_trace,
    skewed_trace,
    strided_trace,
    zipf_trace,
)
from repro.trace.trace import Trace

#: The paper's Table 1 trace — ids [1,2,3,4,1,5,2,4,1,3] over the unique
#: references 1011, 1100, 0110, 0011, 0100.  Kept in sync with
#: ``tests/conftest.py`` by a test.
PAPER_TRACE_BITS = (
    "1011", "1100", "0110", "0011", "1011",
    "0100", "1100", "0011", "1011", "0110",
)


def paper_trace() -> Trace:
    """The paper's running example (corpus entry 0, always)."""
    return Trace.from_bit_strings(PAPER_TRACE_BITS, name="paper-table-1")


@dataclass(frozen=True)
class CorpusEntry:
    """One verification input: a trace plus the miss budgets to explore.

    Attributes:
        name: stable human-readable label (appears in failure reports).
        trace: the trace under test.
        budgets: absolute miss budgets K the oracle explores; always
            includes 0 (the paper's strictest setting).
        origin: ``"anchor"`` for deterministic fixed entries,
            ``"fuzz"`` for the seeded random tail, ``"corpus"`` for
            entries replayed from a failure corpus.
    """

    name: str
    trace: Trace
    budgets: Tuple[int, ...] = field(default=(0,))
    origin: str = "anchor"


def default_budgets(trace: Trace) -> Tuple[int, ...]:
    """Budgets for a trace: 0, plus 10% and 40% of its maximum misses.

    Deduplicated and sorted; a trace whose max misses are tiny simply
    explores fewer distinct budgets.
    """
    stats = compute_statistics(trace)
    return tuple(sorted({0, stats.budget(10.0), stats.budget(40.0)}))


def _entry(name: str, trace: Trace, origin: str = "anchor") -> CorpusEntry:
    return CorpusEntry(
        name=name, trace=trace, budgets=default_budgets(trace), origin=origin
    )


def _bit_reversal_trace(bits: int) -> Trace:
    """Every address of a ``bits``-wide space, in bit-reversed order.

    Bit-reversal maximally scrambles the low/high bit correlation the
    BCAT splits on, so consecutive references alias at every depth.
    """
    size = 1 << bits
    addresses = []
    for value in range(size):
        rev = 0
        for bit in range(bits):
            if value & (1 << bit):
                rev |= 1 << (bits - 1 - bit)
        addresses.append(rev)
    return Trace(addresses * 2, address_bits=bits, name=f"bitrev-{bits}")


def _sawtooth_trace(footprint: int, sweeps: int) -> Trace:
    """Up-down sweeps ``0..n-1, n-1..0, ...`` — LRU's classic adversary."""
    up = list(range(footprint))
    body = up + up[::-1]
    return Trace(body * sweeps, name=f"sawtooth-{footprint}x{sweeps}")


def _pingpong_trace(span_bits: int, rounds: int) -> Trace:
    """Two addresses identical in every low bit — conflict at all depths."""
    low, high = 0, 1 << (span_bits - 1)
    return Trace(
        [low, high] * rounds, address_bits=span_bits, name=f"pingpong-{span_bits}"
    )


def _transpose_trace(rows: int, cols: int) -> Trace:
    """Row-major then column-major sweep of a ``rows x cols`` array."""
    row_major = [r * cols + c for r in range(rows) for c in range(cols)]
    col_major = [r * cols + c for c in range(cols) for r in range(rows)]
    return Trace(row_major + col_major, name=f"transpose-{rows}x{cols}")


def anchor_entries() -> List[CorpusEntry]:
    """The deterministic corpus prefix, paper example first.

    Covers the boundary shapes the kernels special-case: single
    reference, ``N' == 1`` (including at a wide bit-width, which
    stresses the packed-matrix header), all-unique streams, power-of-two
    stride aliasing, bit reversal, sawtooth, ping-pong conflicts and a
    transpose pattern.
    """
    entries = [
        _entry("paper-table-1", paper_trace()),
        _entry("single-reference", Trace([5], name="single-reference")),
        _entry("single-unique-n1", Trace([3] * 12, name="single-unique-n1")),
        _entry(
            "single-unique-wide",
            Trace([1 << 15] * 8, address_bits=16, name="single-unique-wide"),
        ),
        _entry("two-alternating", Trace([0, 1] * 10, name="two-alternating")),
        _entry("all-unique", sequential_trace(48)),
        _entry("stride-pow2", strided_trace(40, stride=8)),
        _entry("stride-odd", strided_trace(40, stride=7)),
        _entry("bit-reversal", _bit_reversal_trace(5)),
        _entry("sawtooth", _sawtooth_trace(9, 6)),
        _entry("pingpong", _pingpong_trace(6, 12)),
        _entry("transpose", _transpose_trace(6, 8)),
        _entry("loop-nest", loop_nest_trace(12, 8)),
        _entry(
            "adversarial-lowbit",
            adversarial_lowbit_trace(160, low_bits=4, footprint=12, seed=11),
        ),
        _entry(
            "skewed-hot-cold",
            skewed_trace(200, footprint=24, hot_fraction=0.2, skew=0.85, seed=13),
        ),
        _entry(
            "nested-loops",
            interleaved_trace(
                [loop_nest_trace(6, 12), strided_trace(72, stride=4, start=64)],
                name="nested-loops",
            ),
        ),
    ]
    return entries


def _fuzz_entry(index: int, seed: int) -> CorpusEntry:
    """The ``index``-th seeded random entry (deterministic in seed)."""
    rng = random.Random((seed << 20) ^ index)
    family = index % 8
    length = rng.randrange(48, 400)
    footprint = rng.randrange(2, 48)
    if family == 0:
        trace = random_trace(length, footprint, seed=rng.randrange(1 << 30))
    elif family == 1:
        trace = zipf_trace(
            length,
            footprint,
            exponent=rng.choice((0.5, 1.0, 1.5)),
            seed=rng.randrange(1 << 30),
        )
    elif family == 2:
        trace = markov_trace(
            length,
            footprint,
            locality=rng.choice((0.5, 0.8, 0.95)),
            seed=rng.randrange(1 << 30),
        )
    elif family == 3:
        trace = loop_nest_trace(footprint, max(1, length // footprint))
    elif family == 4:
        trace = strided_trace(length, stride=rng.choice((2, 3, 4, 8, 16)))
    elif family == 5:
        trace = adversarial_lowbit_trace(
            length,
            low_bits=rng.choice((2, 3, 4, 5)),
            footprint=footprint,
            ratio=rng.choice((0.25, 0.5, 0.75)),
            seed=rng.randrange(1 << 30),
        )
    elif family == 6:
        trace = skewed_trace(
            length,
            footprint,
            hot_fraction=rng.choice((0.1, 0.25, 0.5)),
            skew=rng.choice((0.6, 0.85, 0.95)),
            seed=rng.randrange(1 << 30),
        )
    else:
        parts = [
            random_trace(length // 2, footprint, seed=rng.randrange(1 << 30)),
            loop_nest_trace(max(2, footprint // 2), max(1, length // footprint)),
        ]
        trace = interleaved_trace(parts, name="interleaved-fuzz")
    name = f"fuzz-{index:04d}-{trace.name}"
    return CorpusEntry(
        name=name,
        trace=trace,
        budgets=default_budgets(trace),
        origin="fuzz",
    )


def corpus_stream(seed: int = 0) -> Iterator[CorpusEntry]:
    """The full corpus: anchors first, then an unbounded seeded fuzz tail."""
    for entry in anchor_entries():
        yield entry
    index = 0
    while True:
        yield _fuzz_entry(index, seed)
        index += 1
