"""Unit tests for repro.core.symbols (bit-to-symbol assignment)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.symbols import SymbolLayout


class TestConstruction:
    def test_sequential_partitions_all_bits(self):
        layout = SymbolLayout.sequential(16, 4)
        assert layout.symbol_count == 4
        assert layout.symbols[0] == (0, 1, 2, 3)
        assert layout.symbols[3] == (12, 13, 14, 15)

    def test_sequential_rejects_nondivisible(self):
        with pytest.raises(ValueError, match="not a multiple"):
            SymbolLayout.sequential(10, 4)

    def test_duplicate_bit_rejected(self):
        with pytest.raises(ValueError, match="assigned twice"):
            SymbolLayout(4, ((0, 1), (1, 3)))

    def test_missing_bit_rejected(self):
        with pytest.raises(ValueError, match="not covered"):
            SymbolLayout(4, ((0, 1), (3,)))

    def test_out_of_range_bit_rejected(self):
        with pytest.raises(ValueError, match="outside codeword"):
            SymbolLayout(4, ((0, 1), (2, 4)))

    def test_interleaved_requires_consistent_geometry(self):
        with pytest.raises(ValueError, match="must equal"):
            SymbolLayout.interleaved(80, 8, 9)


class TestPaperShuffles:
    def test_eq5_matches_paper_equation(self):
        """Eq. 5: S_i = [b_i, b_10+i, ..., b_70+i] for i in [0, 9]."""
        layout = SymbolLayout.eq5()
        assert layout.n == 80
        assert layout.symbol_count == 10
        for i in range(10):
            assert layout.symbols[i] == tuple(i + 10 * j for j in range(8))

    def test_eq6_matches_paper_equation(self):
        """Eq. 6: even/odd symbols take the low/high 40-bit half."""
        layout = SymbolLayout.eq6()
        assert layout.n == 80
        assert layout.symbol_count == 20
        for i in range(10):
            assert layout.symbols[2 * i] == (i, 10 + i, 20 + i, 30 + i)
            assert layout.symbols[2 * i + 1] == (40 + i, 50 + i, 60 + i, 70 + i)

    def test_eq5_is_shuffled_not_sequential(self):
        assert not SymbolLayout.eq5().is_sequential()
        assert SymbolLayout.sequential(80, 8).is_sequential()


class TestViews:
    def test_symbol_size_uniform(self):
        assert SymbolLayout.sequential(144, 4).symbol_size == 4
        assert SymbolLayout.eq5().symbol_size == 8

    def test_mixed_symbol_size_rejected_by_view(self):
        layout = SymbolLayout(3, ((0,), (1, 2)))
        with pytest.raises(ValueError, match="mixed"):
            _ = layout.symbol_size

    def test_masks_partition_the_word(self):
        layout = SymbolLayout.eq6()
        combined = 0
        for mask in layout.masks:
            assert combined & mask == 0
            combined |= mask
        assert combined == (1 << 80) - 1

    def test_bit_to_symbol_inverse_of_symbols(self):
        layout = SymbolLayout.eq5()
        for index, symbol in enumerate(layout.symbols):
            for bit in symbol:
                assert layout.symbol_of_bit(bit) == index


class TestSymbolAccess:
    def test_extract_insert_roundtrip(self):
        layout = SymbolLayout.sequential(16, 4)
        word = 0xABCD
        for i in range(4):
            value = layout.extract_symbol(word, i)
            assert layout.insert_symbol(word, i, value) == word

    def test_extract_uses_device_local_bit_order(self):
        # Shuffled symbol 0 of Eq.5 holds bits 0,10,...,70; set bit 10 only.
        layout = SymbolLayout.eq5()
        word = 1 << 10
        assert layout.extract_symbol(word, 0) == 0b10

    def test_insert_rejects_oversized_value(self):
        layout = SymbolLayout.sequential(16, 4)
        with pytest.raises(ValueError, match="does not fit"):
            layout.insert_symbol(0, 0, 16)

    @given(
        word=st.integers(min_value=0, max_value=(1 << 80) - 1),
        index=st.integers(min_value=0, max_value=9),
        value=st.integers(min_value=0, max_value=255),
    )
    def test_insert_then_extract_returns_value(self, word, index, value):
        layout = SymbolLayout.eq5()
        updated = layout.insert_symbol(word, index, value)
        assert layout.extract_symbol(updated, index) == value
        # other symbols untouched
        for other in range(10):
            if other != index:
                assert layout.extract_symbol(updated, other) == (
                    layout.extract_symbol(word, other)
                )


class TestRippleCheck:
    def test_zero_diff_is_confined(self):
        assert SymbolLayout.sequential(16, 4).confined_to_single_symbol(0)

    def test_single_symbol_diff_is_confined(self):
        layout = SymbolLayout.sequential(16, 4)
        assert layout.confined_to_single_symbol(0b1111 << 4)

    def test_cross_symbol_diff_is_not_confined(self):
        layout = SymbolLayout.sequential(16, 4)
        assert not layout.confined_to_single_symbol(0b11000)  # bits 3 and 4

    def test_diff_beyond_codeword_is_not_confined(self):
        layout = SymbolLayout.sequential(16, 4)
        assert not layout.confined_to_single_symbol(1 << 16)

    def test_shuffled_symbol_diff_is_confined(self):
        # Bits 3 and 13 belong to the same Eq.5 symbol (S_3).
        layout = SymbolLayout.eq5()
        assert layout.confined_to_single_symbol((1 << 3) | (1 << 13))
        # Bits 3 and 14 straddle S_3 / S_4.
        assert not layout.confined_to_single_symbol((1 << 3) | (1 << 14))


class TestDescribe:
    def test_describe_mentions_shape_and_kind(self):
        text = SymbolLayout.eq5().describe()
        assert "10 x 8-bit" in text
        assert "shuffled" in text


def shuffled_layouts():
    """Every shuffled constructor the paper uses, plus a strided C4."""
    return [
        ("interleaved_80_4_20", SymbolLayout.interleaved(80, 4, 20)),
        ("eq5", SymbolLayout.eq5()),
        ("eq6", SymbolLayout.eq6()),
    ]


class TestShuffledRoundTrips:
    """Extract/insert over every symbol of every shuffled layout."""

    @pytest.mark.parametrize(
        "layout", [l for _, l in shuffled_layouts()],
        ids=[name for name, _ in shuffled_layouts()],
    )
    def test_every_symbol_round_trips(self, layout):
        word = 0x5A5A_5A5A_5A5A_5A5A_5A5A % (1 << layout.n)
        for index in range(layout.symbol_count):
            width = len(layout.symbols[index])
            for value in (0, 1, (1 << width) - 1, 0b101 % (1 << width)):
                updated = layout.insert_symbol(word, index, value)
                assert layout.extract_symbol(updated, index) == value
                restored = layout.insert_symbol(
                    updated, index, layout.extract_symbol(word, index)
                )
                assert restored == word

    @pytest.mark.parametrize(
        "layout", [l for _, l in shuffled_layouts()],
        ids=[name for name, _ in shuffled_layouts()],
    )
    def test_masks_match_symbol_bits(self, layout):
        for index, symbol in enumerate(layout.symbols):
            assert layout.masks[index] == sum(1 << b for b in symbol)


class TestConfinementEdgeCases:
    def test_top_symbol_full_mask_is_confined(self):
        """The highest symbol — including codeword bit n-1 — confines."""
        for layout in (
            SymbolLayout.sequential(144, 4),
            SymbolLayout.eq5(),
            SymbolLayout.eq6(),
        ):
            top = layout.symbol_count - 1
            # each of these layouts puts codeword bit n-1 in its last symbol
            assert (layout.masks[top] >> (layout.n - 1)) & 1
            assert layout.confined_to_single_symbol(layout.masks[top])

    def test_top_bit_plus_overflow_bit_is_not_confined(self):
        layout = SymbolLayout.sequential(144, 4)
        assert not layout.confined_to_single_symbol((1 << 143) | (1 << 144))

    def test_carry_across_shuffled_boundary_is_not_confined(self):
        """A carry rippling one bit past a shuffled symbol's span: in
        Eq.5, bits {0, 10, ..., 70} are S_0; bit 71 belongs to S_1."""
        layout = SymbolLayout.eq5()
        inside = (1 << 70) | (1 << 0)
        assert layout.confined_to_single_symbol(inside)
        assert not layout.confined_to_single_symbol(inside | (1 << 71))

    def test_adjacent_physical_bits_straddle_eq6_symbols(self):
        """Eq.6 places physically adjacent bits 39 and 40 in different
        symbols (S_19 and S_1) — an adder carry from bit 39 to 40 is a
        detectable ripple."""
        layout = SymbolLayout.eq6()
        assert layout.symbol_of_bit(39) != layout.symbol_of_bit(40)
        assert not layout.confined_to_single_symbol((1 << 39) | (1 << 40))


class TestLayoutsThroughBothBackends:
    """Symbol access must agree with the engines that consume it: a
    corruption written into any (shuffled or top) symbol decodes to
    CORRECTED identically on the scalar and numpy backends."""

    @pytest.mark.parametrize("backend", ["scalar", "numpy"])
    def test_top_symbol_corruption_corrected(self, backend):
        from repro.core.codec import DecodeStatus
        from repro.core.codes import muse_80_67, muse_80_70, muse_144_132

        for code in (muse_144_132(), muse_80_67(), muse_80_70()):
            layout = code.layout
            top = layout.symbol_count - 1
            data = (1 << code.k) - 1
            word = code.encode(data)
            original = layout.extract_symbol(word, top)
            # With all-ones data, clearing data-region bits of the top
            # symbol is a 1->0 error — correctable under every model in
            # play (bidirectional, asymmetric, and hybrid alike).
            safe = [
                j
                for j, bit in enumerate(layout.symbols[top])
                if bit >= code.r
            ]
            flips = [1 << j for j in safe]
            if len(safe) > 1:
                flips.append(sum(1 << j for j in safe))
            corrupted = [
                layout.insert_symbol(word, top, original ^ flip)
                for flip in flips
            ]
            results = code.decode_batch(corrupted, backend=backend).results()
            assert all(r.status is DecodeStatus.CORRECTED for r in results)
            assert all(r.data == data for r in results)
