"""Cross-backend equivalence: the numpy engine must be bit-exact with
the scalar reference on every code family, layout, and decode flavour."""

import random

import pytest

from repro.core.codec import DecodeStatus, MuseCode
from repro.core.codes import muse_80_67, muse_80_69, muse_80_70, muse_144_132
from repro.engine import (
    BackendUnavailableError,
    available_backends,
    get_engine,
    msed_corruption_batch,
    resolve_backend,
)

ALL_CODES = [muse_144_132, muse_80_69, muse_80_67, muse_80_70]
CODE_IDS = ["144_132", "80_69", "80_67_eq5", "80_70_eq6_hybrid"]


class TestRegistry:
    def test_scalar_always_available(self):
        assert "scalar" in available_backends()

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_backend("cuda")

    def test_auto_resolves_highest_priority_available(self):
        """auto picks the fastest available rung of the backend ladder."""
        backends = available_backends()
        assert "numpy" in backends
        assert resolve_backend("auto") == backends[-1]
        # numpy outranks scalar whenever both are present
        assert backends.index("numpy") > backends.index("scalar")

    def test_engines_are_cached_per_code(self):
        code = muse_80_69()
        assert get_engine(code, "scalar") is get_engine(code, "scalar")
        assert get_engine(code, "scalar") is not get_engine(
            code, "scalar", ripple_check=False
        )

    def test_numpy_backend_rejects_oversized_multiplier(self):
        from repro.core.symbols import SymbolLayout
        from repro.engine.numpy_backend import NumpyDecodeEngine

        class FakeCode:
            m = 1 << 40
            n = 80

        with pytest.raises(BackendUnavailableError):
            NumpyDecodeEngine(FakeCode())


class TestEncodeEquivalence:
    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_encode_batch_matches_scalar(self, factory):
        code = factory()
        rng = random.Random(42)
        data = [0, 1, (1 << code.k) - 1] + [
            rng.randrange(1 << code.k) for _ in range(100)
        ]
        assert code.encode_batch(data, backend="numpy") == [
            code.encode(d) for d in data
        ]

    def test_encode_batch_rejects_oversized_data(self):
        code = muse_80_69()
        with pytest.raises(ValueError):
            code.encode_batch([1 << code.k], backend="numpy")


#: Every non-reference backend this host can run gets the full matrix.
VECTOR_BACKENDS = [b for b in available_backends() if b != "scalar"]


class TestDecodeEquivalence:
    @pytest.mark.parametrize("backend", VECTOR_BACKENDS)
    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_multi_symbol_stream_full_parity(self, factory, backend):
        """Same corrupted words -> identical per-word DecodeResults."""
        code = factory()
        words = msed_corruption_batch(code, 1500, seed=2022, k_symbols=2)
        scalar = get_engine(code, "scalar").decode_batch(words)
        vector = get_engine(code, backend).decode_batch(words)
        assert list(scalar.statuses) == list(vector.statuses)
        assert scalar.counts() == vector.counts()
        assert scalar.results() == vector.results()

    @pytest.mark.parametrize("backend", VECTOR_BACKENDS)
    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_no_ripple_stream_full_parity(self, factory, backend):
        code = factory()
        words = msed_corruption_batch(code, 1000, seed=7, k_symbols=2)
        scalar = get_engine(code, "scalar", ripple_check=False).decode_batch(words)
        vector = get_engine(code, backend, ripple_check=False).decode_batch(words)
        assert scalar.results() == vector.results()

    def test_single_symbol_corruptions_all_corrected(self):
        """The ChipKill guarantee survives the vectorised path."""
        code = muse_144_132()
        rng = random.Random(3)
        originals, corrupted = [], []
        for _ in range(300):
            data = rng.randrange(1 << code.k)
            word = code.encode(data)
            symbol = rng.randrange(code.layout.symbol_count)
            value = code.layout.extract_symbol(word, symbol)
            flip = rng.randrange(1, 16)
            corrupted.append(
                code.layout.insert_symbol(word, symbol, value ^ flip)
            )
            originals.append(data)
        batch = code.decode_batch(corrupted, backend="numpy")
        results = batch.results()
        assert all(r.status is DecodeStatus.CORRECTED for r in results)
        assert [r.data for r in results] == originals

    def test_clean_words_decode_clean(self):
        code = muse_80_67()
        data = list(range(50))
        words = code.encode_batch(data, backend="numpy")
        for backend in ("scalar", "numpy"):
            results = code.decode_batch(words, backend=backend).results()
            assert all(r.status is DecodeStatus.CLEAN for r in results)
            assert [r.data for r in results] == data

    def test_batch_matches_single_word_decode(self):
        """decode_batch agrees with MuseCode.decode word by word."""
        code = muse_80_70()
        rng = random.Random(9)
        words = []
        for _ in range(200):
            word = code.encode(rng.randrange(1 << code.k))
            words.append(word ^ (1 << rng.randrange(code.n)))
        batch = code.decode_batch(words, backend="numpy")
        assert batch.results() == [code.decode(w) for w in words]


class TestLimbHelpers:
    def test_int_round_trip(self):
        from repro.engine.limbs import ints_to_limbs, limbs_to_ints

        rng = random.Random(1)
        values = [0, 1, (1 << 144) - 1] + [rng.randrange(1 << 144) for _ in range(64)]
        assert limbs_to_ints(ints_to_limbs(values, 3)) == values

    def test_shifts_and_residue_match_bigint(self):
        from repro.engine.limbs import (
            ints_to_limbs,
            limbs_to_ints,
            lshift,
            residue,
            rshift,
        )

        rng = random.Random(2)
        values = [rng.randrange(1 << 140) for _ in range(64)]
        batch = ints_to_limbs(values, 3)
        assert limbs_to_ints(rshift(batch, 13)) == [v >> 13 for v in values]
        assert limbs_to_ints(lshift(batch, 13)) == [
            (v << 13) & ((1 << 192) - 1) for v in values
        ]
        for m in (3, 821, 4065, 65519):
            assert residue(batch, m).tolist() == [v % m for v in values]

    def test_add_wraps_like_hardware(self):
        from repro.engine.limbs import add, ints_to_limbs, limbs_to_ints

        width = 1 << 128
        pairs = [(width - 1, 1), (width - 1, width - 1), (12345, 67890)]
        a = ints_to_limbs([p[0] for p in pairs], 2)
        b = ints_to_limbs([p[1] for p in pairs], 2)
        assert limbs_to_ints(add(a, b)) == [(x + y) % width for x, y in pairs]

    def test_residue_rejects_wide_multiplier(self):
        from repro.engine.limbs import ints_to_limbs, residue

        with pytest.raises(ValueError):
            residue(ints_to_limbs([1], 2), 1 << 30)


class TestSymbolBatchOps:
    """Vectorised extract/insert must mirror SymbolLayout bit for bit."""

    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_extract_matches_layout(self, factory):
        from repro.engine.limbs import ints_to_limbs, limb_count
        from repro.engine.numpy_backend import extract_symbol_batch

        code = factory()
        layout = code.layout
        rng = random.Random(5)
        values = [rng.randrange(1 << code.n) for _ in range(40)]
        batch = ints_to_limbs(values, limb_count(code.n))
        for index in range(layout.symbol_count):
            expected = [layout.extract_symbol(v, index) for v in values]
            assert extract_symbol_batch(batch, layout, index).tolist() == expected

    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_insert_round_trips(self, factory):
        import numpy as np

        from repro.engine.limbs import ints_to_limbs, limbs_to_ints, limb_count
        from repro.engine.numpy_backend import insert_symbol_batch

        code = factory()
        layout = code.layout
        rng = random.Random(6)
        values = [rng.randrange(1 << code.n) for _ in range(40)]
        batch = ints_to_limbs(values, limb_count(code.n))
        for index in (0, layout.symbol_count - 1):
            width = len(layout.symbols[index])
            new = np.array(
                [rng.randrange(1 << width) for _ in values], dtype=np.uint64
            )
            copy = batch.copy()
            insert_symbol_batch(copy, layout, index, new)
            expected = [
                layout.insert_symbol(v, index, int(n)) for v, n in zip(values, new)
            ]
            assert limbs_to_ints(copy) == expected


class TestTrialGeneration:
    def test_deterministic_under_seed(self):
        import numpy as np

        code = muse_80_69()
        first = msed_corruption_batch(code, 500, seed=11)
        second = msed_corruption_batch(code, 500, seed=11)
        assert np.array_equal(first, second)

    def test_every_word_has_exactly_k_corrupted_symbols(self):
        """Recover the clean words from the shared counter-hashed data
        stream, then diff symbols against the corrupted batch."""
        from repro.engine.limbs import limbs_to_ints
        from repro.orchestrate import Chunk, derive_key
        from repro.orchestrate.corruption import muse_clean_chunk

        code = muse_80_69()
        layout = code.layout
        for k in (1, 2, 3):
            seed = 40 + k
            clean = limbs_to_ints(
                muse_clean_chunk(code, Chunk(0, 200), derive_key(seed))
            )
            corrupted = limbs_to_ints(
                msed_corruption_batch(code, 200, seed=seed, k_symbols=k)
            )
            for before, after in zip(clean, corrupted):
                differing = sum(
                    layout.extract_symbol(before, i)
                    != layout.extract_symbol(after, i)
                    for i in range(layout.symbol_count)
                )
                assert differing == k

    def test_k_symbols_bounds_checked(self):
        code = muse_80_69()
        with pytest.raises(ValueError):
            msed_corruption_batch(code, 10, seed=1, k_symbols=0)
        with pytest.raises(ValueError):
            msed_corruption_batch(
                code, 10, seed=1, k_symbols=code.layout.symbol_count + 1
            )
