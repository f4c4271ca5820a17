"""Unit tests for memory-traffic analysis."""

from repro.analysis.traffic import compare_write_policies, estimate_traffic
from repro.cache.config import CacheConfig, WritePolicy
from repro.trace.reference import AccessKind
from repro.trace.synthetic import loop_nest_trace
from repro.trace.trace import Trace


def _rw_trace(reads, writes):
    """reads of address 0..n, then writes to the same addresses."""
    addrs = list(range(reads)) + list(range(writes))
    kinds = [AccessKind.READ] * reads + [AccessKind.WRITE] * writes
    return Trace(addrs, kinds=kinds)


class TestEstimateTraffic:
    def test_fill_traffic_counts_all_misses(self):
        trace = loop_nest_trace(8, 3)
        config = CacheConfig(depth=4, associativity=1)
        estimate = estimate_traffic(trace, config)
        from repro.cache.simulator import simulate_trace

        assert estimate.fill_words == simulate_trace(trace, config).misses

    def test_line_size_multiplies_fill_words(self):
        from repro.trace.synthetic import sequential_trace

        trace = sequential_trace(64)  # pure streaming: no reuse
        small = estimate_traffic(trace, CacheConfig(depth=4, associativity=1))
        wide = estimate_traffic(
            trace, CacheConfig(depth=4, associativity=1, line_words=4)
        )
        # Wide lines fetch 4 words per miss but miss 4x less on a pure
        # stream: identical fill traffic (64 words either way).
        assert small.fill_words == wide.fill_words == 64

    def test_writeback_includes_final_flush(self):
        # One write, never evicted: the flush must still count it.
        trace = Trace([0], kinds=[AccessKind.WRITE])
        estimate = estimate_traffic(trace, CacheConfig(depth=2, associativity=1))
        assert estimate.writeback_words == 1

    def test_write_through_counts_every_store(self):
        trace = _rw_trace(0, 10)
        config = CacheConfig(
            depth=4, associativity=1, write_policy=WritePolicy.WRITE_THROUGH
        )
        estimate = estimate_traffic(trace, config)
        assert estimate.writethrough_words == 10
        assert estimate.writeback_words == 0

    def test_untyped_trace_is_read_only(self):
        estimate = estimate_traffic(
            loop_nest_trace(4, 2), CacheConfig(depth=4, associativity=1)
        )
        assert estimate.writeback_words == 0
        assert estimate.writethrough_words == 0

    def test_total_words(self):
        trace = _rw_trace(5, 5)
        estimate = estimate_traffic(trace, CacheConfig(depth=8, associativity=1))
        assert estimate.total_words == (
            estimate.fill_words
            + estimate.writeback_words
            + estimate.writethrough_words
        )


class TestCompareWritePolicies:
    def test_write_back_wins_on_repeated_stores(self):
        # 50 stores to one word: write-through pays 50, write-back pays 1.
        trace = Trace([7] * 50, kinds=[AccessKind.WRITE] * 50)
        estimates = compare_write_policies(trace, depth=4, associativity=1)
        wb = estimates["write-back"]
        wt = estimates["write-through"]
        assert wb.writeback_words == 1
        assert wt.writethrough_words == 50
        assert wb.total_words < wt.total_words

    def test_write_through_can_win_on_scattered_single_stores(self):
        # One store per line with wide lines: write-back flushes a whole
        # line per store, write-through moves one word.
        addrs = [i * 4 for i in range(16)]
        trace = Trace(addrs, kinds=[AccessKind.WRITE] * 16)
        estimates = compare_write_policies(
            trace, depth=2, associativity=1, line_words=4
        )
        wb = estimates["write-back"]
        wt = estimates["write-through"]
        assert wt.writethrough_words < wb.writeback_words

    def test_fill_traffic_identical_across_policies(self):
        trace = _rw_trace(20, 20)
        estimates = compare_write_policies(trace, depth=8, associativity=2)
        assert (
            estimates["write-back"].fill_words
            == estimates["write-through"].fill_words
        )
