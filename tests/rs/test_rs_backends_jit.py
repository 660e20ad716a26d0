"""The native Reed-Solomon backend.

Native tests skip cleanly when no C compiler is present.  Every
assertion pins the C kernels against the numpy engine, which
``test_rs_engine.py`` pins against the scalar reference — the chain
keeps all three rungs byte-identical.
"""

import numpy as np
import pytest

import repro.rs.engine_native as native_module
from repro.engine import available_backends
from repro.engine.base import BackendUnavailableError
from repro.orchestrate.corruption import rs_corruption_chunk
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import derive_key
from repro.reliability.monte_carlo import RsMsedSimulator, rs_design_point
from repro.rs.engine import get_rs_engine, rs_msed_corruption_batch
from repro.rs.reed_solomon import rs_for_channel

requires_native = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native backend unavailable (no C compiler)",
)

#: All four Table-IV RS design points; b=7 and b=5 shorten mid-symbol.
TABLE_IV_B = (8, 7, 6, 5)


def make_code(b):
    return rs_for_channel(b, 144)


def assert_batches_identical(ref, got):
    assert np.array_equal(ref.statuses, got.statuses)
    assert ref.counts() == got.counts()
    assert ref.results() == got.results()


@requires_native
class TestNativeRsParity:
    @pytest.mark.parametrize("b", TABLE_IV_B)
    @pytest.mark.parametrize("device_bits", [4, None], ids=["x4", "nopolicy"])
    def test_corrupted_stream_matches_numpy(self, b, device_bits):
        code = make_code(b)
        words = rs_msed_corruption_batch(code, 800, seed=2022, k_symbols=2)
        ref = get_rs_engine(code, "numpy", device_bits).decode_batch(words)
        nat = get_rs_engine(code, "native", device_bits).decode_batch(words)
        assert_batches_identical(ref, nat)

    @pytest.mark.parametrize("b", TABLE_IV_B)
    @pytest.mark.parametrize("k_symbols", [1, 2])
    def test_fused_counts_match_generate_then_decode(self, b, k_symbols):
        code = make_code(b)
        engine = get_rs_engine(code, "native")
        key = derive_key(17)
        for chunk in (Chunk(0, 400), Chunk(211, 250)):
            words = rs_corruption_chunk(code, chunk, key, k_symbols)
            expect = get_rs_engine(code, "numpy").decode_batch(words).counts()
            assert engine.fused_chunk_counts(chunk, key, k_symbols) == expect

    @pytest.mark.parametrize("k_symbols", [0, 3])
    def test_fused_declines_beyond_two_symbols(self, k_symbols):
        engine = get_rs_engine(make_code(8), "native")
        assert (
            engine.fused_chunk_counts(Chunk(0, 10), derive_key(1), k_symbols)
            is None
        )

    @pytest.mark.parametrize("b", TABLE_IV_B)
    def test_fused_respects_device_policy(self, b):
        """Policy on/off changes the corrected/confinement split, and
        the fused tally must track the batch decode in both modes."""
        code = make_code(b)
        key = derive_key(23)
        chunk = Chunk(0, 600)
        words = rs_corruption_chunk(code, chunk, key, 2)
        for device_bits in (4, None):
            engine = get_rs_engine(code, "native", device_bits)
            expect = (
                get_rs_engine(code, "numpy", device_bits)
                .decode_batch(words)
                .counts()
            )
            assert engine.fused_chunk_counts(chunk, key, 2) == expect

    @pytest.mark.parametrize("b", TABLE_IV_B)
    @pytest.mark.parametrize("k_symbols", [1, 2])
    def test_chunk_splits_compose(self, b, k_symbols):
        code = make_code(b)
        engine = get_rs_engine(code, "native")
        key = derive_key(29)
        whole = engine.fused_chunk_counts(Chunk(0, 500), key, k_symbols)
        parts = [
            engine.fused_chunk_counts(Chunk(0, 123), key, k_symbols),
            engine.fused_chunk_counts(Chunk(123, 177), key, k_symbols),
            engine.fused_chunk_counts(Chunk(300, 200), key, k_symbols),
        ]
        assert tuple(sum(c) for c in zip(*parts)) == whole

    @pytest.mark.parametrize("b", TABLE_IV_B)
    def test_engine_cached_per_code_and_policy(self, b):
        code = make_code(b)
        first = get_rs_engine(code, "native")
        assert get_rs_engine(code, "native") is first
        assert get_rs_engine(code, "native", device_bits=None) is not first
        # auto and the explicit best backend share one engine.
        assert get_rs_engine(code, "auto") is first

    # Every Table-IV design point has more than the patched 4 symbols.
    @pytest.mark.parametrize("extra_bits", [0, 2, 4, 6])
    def test_auto_tally_equals_numpy_when_native_declines(
        self, monkeypatch, extra_bits
    ):
        """A code native declines runs on numpy under ``auto`` — the
        same corruption stream, so the same tally."""
        monkeypatch.setattr(native_module, "MAX_NATIVE_SYMBOLS", 4)
        numpy_result = RsMsedSimulator(
            rs_design_point(extra_bits), backend="numpy"
        ).run(trials=4000, seed=7)
        code = rs_design_point(extra_bits)
        auto_result = RsMsedSimulator(code, backend="auto").run(
            trials=4000, seed=7, chunk_size=1000
        )
        assert auto_result == numpy_result
        assert get_rs_engine(code, "auto").name == "numpy"
        with pytest.raises(BackendUnavailableError):
            get_rs_engine(code, "native")
