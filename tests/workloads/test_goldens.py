"""Unit tests for the workloads' golden models (Python reference code)."""

import pytest

from repro.workloads import bcnt, blit, compress, crc, des, engine
from repro.workloads import fir, g3fax, pocsag, qurt, ucbqsort
from repro.workloads.common import LCG, WORD_MASK, scaled, words_directive


class TestLCG:
    def test_deterministic(self):
        assert LCG(1).words(10) == LCG(1).words(10)

    def test_bounded(self):
        assert all(0 <= v < 17 for v in LCG(2).words(100, bound=17))

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            LCG(0).below(0)

    def test_known_first_value(self):
        # Numerical Recipes LCG from seed 0: 1013904223.
        assert LCG(0).next() == 1013904223


class TestHelpers:
    def test_scaled(self):
        assert scaled(100, "default") == 100
        assert scaled(100, "small") == 50
        assert scaled(100, "tiny") == 12
        assert scaled(100, "large") == 200

    def test_scaled_minimum(self):
        assert scaled(8, "tiny", minimum=4) == 4

    def test_scaled_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            scaled(10, "huge")

    def test_words_directive_wraps(self):
        text = words_directive(list(range(20)), per_line=8)
        assert text.count(".word") == 3

    def test_words_directive_masks_to_32_bits(self):
        assert str((1 << 33) + 5 & WORD_MASK) in words_directive([(1 << 33) + 5])

    def test_words_directive_rejects_empty(self):
        with pytest.raises(ValueError):
            words_directive([])


class TestCrcGolden:
    def test_standard_check_vector(self):
        # CRC-32 of ASCII "123456789" is the universal check value.
        message = [ord(c) for c in "123456789"]
        assert crc.golden(message) == 0xCBF43926

    def test_table_first_entries(self):
        table = crc.crc_table()
        assert table[0] == 0
        assert table[1] == 0x77073096  # classic table constant


class TestBcntGolden:
    def test_popcount_table(self):
        table = bcnt.popcount_table()
        assert table[0] == 0
        assert table[0xFF] == 8
        assert table[0b1010] == 2

    def test_golden_counts_bits(self):
        assert bcnt.golden([0xF, 0xF0]) == 8
        assert bcnt.golden([0xFFFFFFFF]) == 32


class TestFirGolden:
    def test_identity_filter(self):
        # Single-tap filter with coefficient 1 sums the signal prefix.
        signal = [1, 2, 3, 4]
        assert fir.golden(signal, [1]) == sum(signal[:3]) & WORD_MASK

    def test_wraparound(self):
        assert fir.golden([1 << 31, 0, 0], [2, 1]) == 0  # 2*2^31 wraps to 0


class TestBlitGolden:
    def test_simple_shift_merge(self):
        # One row, two words, shift 4: verify the carry chain.
        src = [0xAABBCCDD, 0x11223344]
        dst = [0, 0, 0]
        checksum = blit.golden(src, dst, rows=1, row_words=2, shift=4)
        merged0 = 0xAABBCCDD >> 4
        merged1 = ((0xAABBCCDD << 28) & WORD_MASK) | (0x11223344 >> 4)
        spill = (0x11223344 << 28) & WORD_MASK
        assert checksum == (merged0 + merged1 + spill) & WORD_MASK


class TestPocsagGolden:
    def test_valid_codeword_has_zero_syndrome(self):
        for message in (0, 1, 0x155555, (1 << 21) - 1):
            assert pocsag.syndrome(pocsag.bch_encode(message)) == 0

    def test_corrupted_codeword_detected(self):
        codeword = pocsag.bch_encode(0x12345)
        for bit in (0, 7, 30):
            assert pocsag.syndrome(codeword ^ (1 << bit)) != 0

    def test_bch_encode_rejects_wide_message(self):
        with pytest.raises(ValueError):
            pocsag.bch_encode(1 << 21)

    def test_every_third_codeword_corrupted(self):
        words = pocsag.make_codewords(9)
        syndromes = [pocsag.syndrome(w) for w in words]
        assert all(s == 0 for s in syndromes[0::3])
        assert all(s == 0 for s in syndromes[1::3])
        assert all(s != 0 for s in syndromes[2::3])


class TestQurtGolden:
    @pytest.mark.parametrize("value", [0, 1, 2, 3, 4, 15, 16, 17, 99980001])
    def test_isqrt_newton(self, value):
        root = qurt.isqrt_newton(value)
        assert root * root <= value < (root + 1) * (root + 1)

    def test_isqrt_rejects_negative(self):
        with pytest.raises(ValueError):
            qurt.isqrt_newton(-1)

    def test_real_roots_case(self):
        # x^2 - 5x + 6 = 0 -> roots 3 and 2.
        checksum = qurt.golden([(1, -5, 6)], passes=1)
        assert checksum == (3 + 3 * 2) & WORD_MASK

    def test_complex_roots_take_marker_path(self):
        # x^2 + x + 10 -> disc = 1 - 40 < 0.
        disc = 1 - 40
        expected = (0x9E3779B9 + disc) & WORD_MASK
        assert qurt.golden([(1, 1, 10)], passes=1) == expected

    def test_multiple_passes_accumulate(self):
        one = qurt.golden([(1, -5, 6)], passes=1)
        three = qurt.golden([(1, -5, 6)], passes=3)
        assert three == (3 * one) & WORD_MASK


class TestEngineGolden:
    def test_flat_map_interpolates_to_constant(self):
        flat_map = [500] * (16 * 16)
        checksum = engine.golden(flat_map, [(100, 100), (3000, 2000)])
        assert checksum == (2 * 500) & WORD_MASK  # no knock, two samples

    def test_knock_limit_branch(self):
        hot_map = [1000] * (16 * 16)  # every value > limit of 700
        checksum = engine.golden(hot_map, [(0, 0)])
        assert checksum == 1 << 24  # one retard, zero advance


class TestDesGolden:
    def test_feistel_is_decryptable(self):
        """Running rounds with reversed keys undoes the cipher (swap form)."""
        sboxes, round_keys, _ = des.make_inputs(1)
        left, right = 0x01234567, 0x89ABCDEF
        el, er = des.encrypt_block(left, right, round_keys, sboxes)
        # Decrypt: swap halves, run with reversed keys, swap back.
        dl, dr = des.encrypt_block(er, el, list(reversed(round_keys)), sboxes)
        assert (dr, dl) == (left, right)

    def test_golden_depends_on_keys(self):
        sboxes, round_keys, blocks = des.make_inputs(4)
        other_keys = [(k + 1) & WORD_MASK for k in round_keys]
        assert des.golden(blocks, round_keys, sboxes) != des.golden(
            blocks, other_keys, sboxes
        )


class TestCompressGolden:
    def test_repetitive_input_compresses(self):
        data = [1, 2] * 100
        _, emitted = compress.golden(data)
        assert emitted < len(data) // 2  # dictionary pays off

    def test_incompressible_prefix_emits_per_symbol(self):
        # All-distinct pairs early on: every step emits.
        data = list(range(16)) * 2
        checksum, emitted = compress.golden(data)
        assert emitted >= 16

    def test_deterministic(self):
        data = LCG(5).words(200, bound=16)
        assert compress.golden(data) == compress.golden(data)


class TestG3faxGolden:
    def test_consumed_codes_reported(self):
        pool = LCG(1).words(4096, bound=64)
        checksum, consumed = g3fax.golden(2, pool)
        assert 0 < consumed < len(pool)

    def test_all_black_line_checksum(self):
        # Code 63 -> run 63; force alternating colors but measure one line.
        checksum, _ = g3fax.golden(1, [63] * 200)
        assert isinstance(checksum, int)

    def test_run_table_values(self):
        table = g3fax.make_run_table()
        assert table[0] == 1
        assert table[63] == 63


class TestUcbqsortGolden:
    def test_checksum_reflects_sorted_order(self):
        data = [3, 1, 2]
        # sorted: [1,2,3] -> 1*1 + 2*2 + 3*3 = 14
        assert ucbqsort.golden(data) == 14

    def test_permutation_invariance(self):
        assert ucbqsort.golden([5, 4, 3, 2, 1]) == ucbqsort.golden([1, 2, 3, 4, 5])
