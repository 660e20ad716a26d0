"""Erasure-decoding tests: the double-device recovery path."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import DecodeStatus, MuseCode
from repro.core.codes import muse_80_69, muse_144_132
from repro.core.erasure import (
    ErasureDecoder,
    ErasureWindowError,
    window_for_symbols,
)
from repro.core.symbols import SymbolLayout


class TestWindow:
    def test_adjacent_symbols_form_contiguous_window(self):
        code = muse_80_69()
        window = window_for_symbols(code, (3, 4))
        assert window.offset == 12
        assert window.width == 8

    def test_separated_symbols_rejected(self):
        code = muse_80_69()
        with pytest.raises(ErasureWindowError, match="contiguous"):
            window_for_symbols(code, (3, 5))

    def test_empty_rejected(self):
        with pytest.raises(ErasureWindowError):
            window_for_symbols(muse_80_69(), ())

    def test_shuffled_layout_symbols_are_not_contiguous(self):
        """Eq.5 shuffled symbols interleave: erasure windows don't form."""
        from repro.core.codes import muse_80_67

        with pytest.raises(ErasureWindowError):
            window_for_symbols(muse_80_67(), (0,))


class TestSingleSymbolErasure:
    @given(
        data=st.integers(0, (1 << 69) - 1),
        symbol=st.integers(0, 19),
        value=st.integers(0, 15),
    )
    @settings(max_examples=100)
    def test_recovers_any_known_location_corruption(self, data, symbol, value):
        code = muse_80_69()
        decoder = ErasureDecoder(code)
        codeword = code.encode(data)
        corrupted = code.layout.insert_symbol(codeword, symbol, value)
        result = decoder.decode(corrupted, (symbol,))
        assert result.status in (DecodeStatus.CLEAN, DecodeStatus.CORRECTED)
        assert result.data == data


class TestDoubleDeviceErasure:
    @given(
        data=st.integers(0, (1 << 132) - 1),
        first=st.integers(0, 34),
        v1=st.integers(0, 15),
        v2=st.integers(0, 15),
    )
    @settings(max_examples=100)
    def test_muse_144_132_recovers_adjacent_pair(self, data, first, v1, v2):
        """Two consecutive dead x4 devices, locations known: recovered."""
        code = muse_144_132()
        decoder = ErasureDecoder(code)
        codeword = code.encode(data)
        corrupted = code.layout.insert_symbol(codeword, first, v1)
        corrupted = code.layout.insert_symbol(corrupted, first + 1, v2)
        result = decoder.decode(corrupted, (first, first + 1))
        assert result.data == data

    def test_corruption_outside_window_detected(self):
        code = muse_80_69()
        decoder = ErasureDecoder(code)
        codeword = code.encode(0xABCDEF)
        # corrupt symbol 9 but claim the erasure is at symbols (0, 1)
        corrupted = code.layout.insert_symbol(
            codeword, 9, code.layout.extract_symbol(codeword, 9) ^ 0x5
        )
        result = decoder.decode(corrupted, (0, 1))
        assert result.status is DecodeStatus.DETECTED

    def test_multiplier_floor_enforced(self):
        # A toy code whose multiplier is too small to erase 8-bit windows.
        from repro.core.error_model import SymbolErrorModel
        from repro.core.search import smallest_feasible_redundancy

        layout = SymbolLayout.sequential(16, 4)
        model = SymbolErrorModel(layout)
        found = smallest_feasible_redundancy(model, r_min=8, r_max=12)
        code = MuseCode(layout, found.multipliers[0], model)
        decoder = ErasureDecoder(code)
        if code.m <= 2 * ((1 << 8) - 1):
            with pytest.raises(ErasureWindowError, match="too small"):
                decoder.decode(code.encode(1), (0, 1))

    def test_clean_word_passes_through(self):
        code = muse_144_132()
        decoder = ErasureDecoder(code)
        codeword = code.encode(777)
        result = decoder.decode(codeword, (0, 1))
        assert result.status is DecodeStatus.CLEAN
        assert result.data == 777


class TestBatchDecode:
    """decode_batch groups words by window and must be scalar-identical."""

    def _mixed_batch(self, code, trials, seed):
        rng = random.Random(seed)
        words, pairs = [], []
        for _ in range(trials):
            codeword = code.encode(rng.randrange(1 << code.k))
            first = rng.randrange(code.layout.symbol_count - 1)
            kind = rng.randrange(3)
            if kind == 0:  # corruption inside the erased window
                codeword = code.layout.insert_symbol(
                    codeword, first, rng.randrange(16)
                )
                codeword = code.layout.insert_symbol(
                    codeword, first + 1, rng.randrange(16)
                )
            elif kind == 1:  # corruption outside the window: detected
                other = (first + 3) % code.layout.symbol_count
                codeword = code.layout.insert_symbol(
                    codeword,
                    other,
                    code.layout.extract_symbol(codeword, other) ^ 0x5,
                )
            # kind == 2: clean
            words.append(codeword)
            pairs.append((first, first + 1))
        return words, pairs

    def test_batch_matches_scalar_per_word(self):
        code = muse_144_132()
        decoder = ErasureDecoder(code)
        words, pairs = self._mixed_batch(code, 200, seed=23)
        scalar = decoder.decode_batch(words, pairs, backend="scalar")
        assert scalar == [
            decoder.decode(word, pair) for word, pair in zip(words, pairs)
        ]
        assert decoder.decode_batch(words, pairs, backend="numpy") == scalar

    def test_single_shared_window_shorthand(self):
        code = muse_80_69()
        decoder = ErasureDecoder(code)
        rng = random.Random(31)
        datas = [rng.randrange(1 << code.k) for _ in range(40)]
        words = [
            code.layout.insert_symbol(
                code.layout.insert_symbol(code.encode(d), 4, rng.randrange(16)),
                5,
                rng.randrange(16),
            )
            for d in datas
        ]
        results = decoder.decode_batch(words, (4, 5))
        assert [r.data for r in results] == datas

    def test_length_mismatch_rejected(self):
        code = muse_80_69()
        decoder = ErasureDecoder(code)
        with pytest.raises(ValueError, match="erasure tuples"):
            decoder.decode_batch([1, 2, 3], [(0, 1)])

    def test_non_contiguous_window_rejected_in_batch(self):
        code = muse_80_69()
        decoder = ErasureDecoder(code)
        with pytest.raises(ErasureWindowError):
            decoder.decode_batch([code.encode(1)], [(3, 5)])


class TestRandomizedLifecycle:
    def test_identify_then_erase_flow(self):
        """The commercial flow: SSC catches failure #1, then the pair is
        marked and fully erased thereafter."""
        code = muse_144_132()
        decoder = ErasureDecoder(code)
        rng = random.Random(77)
        for _ in range(50):
            data = rng.randrange(1 << code.k)
            codeword = code.encode(data)
            dead = rng.randrange(code.layout.symbol_count - 1)
            # phase 1: one device fails; normal SSC decode identifies it
            bad1 = code.layout.insert_symbol(
                codeword, dead,
                code.layout.extract_symbol(codeword, dead) ^ rng.randrange(1, 16),
            )
            first = code.decode(bad1)
            assert first.status is DecodeStatus.CORRECTED
            # phase 2: the neighbour also dies; erase the known pair
            bad2 = code.layout.insert_symbol(bad1, dead + 1, rng.randrange(16))
            result = decoder.decode(bad2, (dead, dead + 1))
            assert result.data == data
