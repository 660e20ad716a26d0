"""The native (self-compiled C) MUSE backend and the backend ladder.

Skipped wholesale on hosts without a working C compiler — the ladder
probe is the same gate ``auto`` resolution uses, so skipping here means
the backend can never have been selected either.  Ladder semantics
(order, explicit-unavailable errors, ``auto`` falling through a rung
that declines a code) are exercised with the real ladder, not a mock.
"""

import numpy as np
import pytest

import repro.engine as engine_pkg
import repro.engine.native as native_module
from repro.core.codes import muse_80_67, muse_80_69, muse_80_70, muse_144_132
from repro.engine import (
    BackendUnavailableError,
    available_backends,
    get_engine,
    msed_corruption_batch,
    registered_backends,
    resolve_backend,
)
from repro.orchestrate.corruption import muse_corruption_chunk
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import derive_key
from repro.reliability.monte_carlo import MuseMsedSimulator, muse_design_point

pytestmark = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native backend unavailable (no C compiler)",
)

ALL_CODES = [muse_144_132, muse_80_69, muse_80_67, muse_80_70]
CODE_IDS = ["144_132", "80_69", "80_67_eq5", "80_70_eq6_hybrid"]


class TestNativeRegistration:
    def test_probe_and_registry_agree(self):
        assert "native" in available_backends()
        assert registered_backends() == ("scalar", "numpy", "native")

    def test_native_outranks_numpy_for_auto(self):
        backends = available_backends()
        assert backends.index("native") > backends.index("numpy")
        assert resolve_backend("auto") == backends[-1] == "native"

    def test_explicit_unavailable_backend_raises(self, monkeypatch):
        """An explicit request must never silently degrade."""
        monkeypatch.setattr(engine_pkg, "native_available", lambda: False)
        assert available_backends() == ("scalar", "numpy")
        with pytest.raises(BackendUnavailableError):
            resolve_backend("native")
        assert resolve_backend("auto") == "numpy"

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ValueError) as err:
            resolve_backend("tpu")
        assert "scalar" in str(err.value)

    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_engine_cached_per_code(self, factory):
        """One table build per (code, ripple_check): chunk loops must
        reuse the engine, not rebuild it per chunk."""
        code = factory()
        first = get_engine(code, "native")
        assert get_engine(code, "native") is first
        assert get_engine(code, "native", ripple_check=False) is not first
        # auto and the explicit best backend share one engine.
        assert get_engine(code, "auto") is first

    def test_library_compiled_once(self):
        from repro.engine.cc import load_library

        assert load_library() is load_library()


class TestAutoFallsThroughDecline:
    """A code native declines runs on numpy under ``auto`` — the same
    corruption stream, so the same tally."""

    # Every 144-bit design point spans three limbs, past the patched cap.
    @pytest.mark.parametrize("extra_bits", [0, 1, 2, 3, 4])
    def test_auto_tally_equals_numpy(self, monkeypatch, extra_bits):
        monkeypatch.setattr(native_module, "MAX_NATIVE_LIMBS", 2)
        # Fresh instances: the memoised design point must not keep the
        # decline in its engine cache after the cap is restored.
        fresh = muse_design_point.__wrapped__
        numpy_result = MuseMsedSimulator(
            fresh(extra_bits), backend="numpy"
        ).run(trials=4000, seed=7)
        code = fresh(extra_bits)
        auto_result = MuseMsedSimulator(code, backend="auto").run(
            trials=4000, seed=7, chunk_size=1000
        )
        assert auto_result == numpy_result
        assert get_engine(code, "auto").name == "numpy"
        with pytest.raises(BackendUnavailableError):
            get_engine(code, "native")


class TestNativeDecodeParity:
    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_corrupted_stream_matches_numpy(self, factory):
        code = factory()
        words = msed_corruption_batch(code, 600, seed=2022, k_symbols=2)
        ref = get_engine(code, "numpy").decode_batch(words)
        nat = get_engine(code, "native").decode_batch(words)
        assert np.array_equal(ref.statuses, nat.statuses)
        assert ref.counts() == nat.counts()
        assert ref.results() == nat.results()

    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_ripple_ablation_matches_numpy(self, factory):
        code = factory()
        words = msed_corruption_batch(code, 400, seed=7, k_symbols=2)
        ref = get_engine(code, "numpy", ripple_check=False).decode_batch(words)
        nat = get_engine(code, "native", ripple_check=False).decode_batch(words)
        assert np.array_equal(ref.statuses, nat.statuses)
        assert ref.results() == nat.results()

    def test_stream_exercises_every_status(self):
        """The parity stream is only a real pin if all 4 statuses occur,
        including the ripple path and its in-kernel ctz/confinement."""
        # The weakened eq-6 hybrid code miscorrects often enough that a
        # short 2-symbol stream also lands silent-clean aliases.
        code = muse_80_70()
        words = msed_corruption_batch(code, 600, seed=2022, k_symbols=2)
        statuses = set(get_engine(code, "native").decode_batch(words).statuses)
        assert statuses == {0, 1, 2, 3}

    def test_wrapping_correction_add(self):
        """Corrections whose addend wraps the top limb stay exact."""
        code = muse_144_132()
        # Flip the top bit of words near the wrap boundary: the ELC
        # addend for these remainders carries across all three limbs.
        top = code.n - 1
        words = [code.encode(0) ^ (1 << top), code.encode(1) ^ (1 << top)]
        got = get_engine(code, "native").decode_batch(words)
        expect = get_engine(code, "numpy").decode_batch(words)
        assert list(got.statuses) == list(expect.statuses)
        assert got.results() == expect.results()


class TestNativeFusedChunk:
    @pytest.mark.parametrize("k_symbols", [1, 2])
    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_counts_match_generate_then_decode(self, factory, k_symbols):
        code = factory()
        engine = get_engine(code, "native")
        key = derive_key(13)
        for chunk in (Chunk(0, 250), Chunk(137, 200)):
            words = muse_corruption_chunk(code, chunk, key, k_symbols)
            expect = get_engine(code, "numpy").decode_batch(words).counts()
            assert engine.fused_chunk_counts(chunk, key, k_symbols) == expect

    @pytest.mark.parametrize("k_symbols", [1, 2])
    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_ablation_counts_match(self, factory, k_symbols):
        code = factory()
        engine = get_engine(code, "native", ripple_check=False)
        key = derive_key(21)
        chunk = Chunk(11, 150)
        words = muse_corruption_chunk(code, chunk, key, k_symbols)
        expect = (
            get_engine(code, "numpy", ripple_check=False)
            .decode_batch(words)
            .counts()
        )
        assert engine.fused_chunk_counts(chunk, key, k_symbols) == expect

    @pytest.mark.parametrize("k_symbols", [0, 3])
    def test_declines_beyond_two_symbols(self, k_symbols):
        """k outside 1..2 is not exactly replayable -> the caller must
        fall back."""
        code = muse_80_69()
        engine = get_engine(code, "native")
        assert (
            engine.fused_chunk_counts(Chunk(0, 10), derive_key(1), k_symbols)
            is None
        )

    @pytest.mark.parametrize("k_symbols", [1, 2])
    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_chunk_splits_compose(self, factory, k_symbols):
        """Tallies are a pure function of the global trial index."""
        code = factory()
        engine = get_engine(code, "native")
        key = derive_key(33)
        whole = engine.fused_chunk_counts(Chunk(0, 300), key, k_symbols)
        parts = [
            engine.fused_chunk_counts(Chunk(0, 110), key, k_symbols),
            engine.fused_chunk_counts(Chunk(110, 90), key, k_symbols),
            engine.fused_chunk_counts(Chunk(200, 100), key, k_symbols),
        ]
        assert tuple(sum(c) for c in zip(*parts)) == whole
