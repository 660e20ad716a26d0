"""The native backend: self-compiled C kernels over the numpy tables.

:class:`NativeDecodeEngine` subclasses the numpy engine for its table
construction (dense ELC, confinement masks) and adds the flat tables
the C kernels read — chunk weights, the uint8 ELC hit mask, the data
mask and a rectangular symbol-bit table — then dispatches batch decode
and the fused corruption->decode->tally chunk to the ctypes library
built by :mod:`repro.engine.cc`.

The fused kernel replays the counter-hashed corruption stream of
:mod:`repro.orchestrate.corruption` draw for draw (splitmix64 data
draws, score-based symbol choice, never-the-original replacement), so
its tallies are byte-identical to generate-then-decode at any chunk
split.  It is exact for ``k_symbols <= 2``: there the generator's
``argpartition(scores, k-1)[:, :k]`` provably yields ``(argmin,
arg-2nd-min)``, which the kernel reproduces with a two-minimum scan;
for larger ``k`` :meth:`~NativeDecodeEngine.fused_chunk_counts`
returns ``None`` and the caller generates then decodes.

The backend is only available when the probe's trial compile+load
succeeds, and the engine declines (``BackendUnavailableError``) codes
wider than the kernels' fixed scratch, so ``auto`` resolution falls
through to numpy on the same stream.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.engine.base import BackendUnavailableError
from repro.engine.limbs import LIMB_BITS, int_to_limb_row
from repro.engine.numpy_backend import NumpyBatchResult, NumpyDecodeEngine

#: The C kernels use fixed stack scratch ``uint64_t word[8]``.
MAX_NATIVE_LIMBS = 8


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


class NativeDecodeEngine(NumpyDecodeEngine):
    """C-kernel MUSE backend; numpy's tables, ``cc``'s code.

    Cached per ``(code, ripple_check)`` by ``repro.engine.get_engine``,
    so a worker builds the kernel tables once per code.
    """

    name = "native"

    def __init__(self, code, ripple_check: bool = True):
        super().__init__(code, ripple_check)
        from repro.engine.cc import load_library

        library = load_library()
        if library is None:
            raise BackendUnavailableError(
                "native kernels unavailable (no working C compiler?)"
            )
        if self.limbs > MAX_NATIVE_LIMBS:
            raise BackendUnavailableError(
                f"native kernels support up to {MAX_NATIVE_LIMBS} limbs, "
                f"code needs {self.limbs}"
            )
        if not 0 < code.r < LIMB_BITS:
            raise BackendUnavailableError(
                f"fused encode needs 0 < r < {LIMB_BITS}, got {code.r}"
            )
        self._lib = library
        # 2^(32 j) mod m chunk weights, one pair per limb.
        weights = np.empty(2 * self.limbs, dtype=np.uint64)
        weight = 1
        for j in range(2 * self.limbs):
            weights[j] = weight
            weight = (weight << 32) % code.m
        self._weights = weights
        self._m_u64 = np.uint64(code.m)
        self._hit_u8 = self._elc_hit.astype(np.uint8)
        self._k_mask = int_to_limb_row((1 << code.k) - 1, self.limbs)
        # Per-symbol bit positions as a rectangular table for in-kernel
        # extract/insert (device-local bit order, like the layout).
        layout = code.layout
        max_width = max(len(bits) for bits in layout.symbols)
        sym_bits = np.zeros(
            (layout.symbol_count, max_width), dtype=np.int64
        )
        sym_widths = np.zeros(layout.symbol_count, dtype=np.int64)
        for index, bits in enumerate(layout.symbols):
            sym_widths[index] = len(bits)
            for b, bit in enumerate(bits):
                sym_bits[index, b] = bit
        self._sym_bits = sym_bits
        self._sym_widths = sym_widths

    def decode_limbs(self, words: np.ndarray) -> NumpyBatchResult:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        batch = words.shape[0]
        corrected = np.empty_like(words)
        statuses = np.empty(batch, dtype=np.uint8)
        rems = np.empty(batch, dtype=np.uint64)
        self._lib.muse_decode_batch(
            _ptr(words), batch, self.limbs, _ptr(corrected), _ptr(statuses),
            _ptr(rems), int(self._m_u64), _ptr(self._weights),
            _ptr(self._hit_u8), _ptr(self._elc_addend), _ptr(self._low_mask),
            _ptr(self._above_mask), _ptr(self._bit_symbol),
            _ptr(self._symbol_outside_masks), int(self.ripple_check),
        )
        return NumpyBatchResult(self.code, statuses, words, corrected, rems)

    def fused_chunk_counts(self, chunk, key: int, k_symbols: int):
        """The 4-status counts of one fused corruption->decode chunk.

        Returns ``(clean, corrected, no_match, ripple)`` —
        byte-identical to decoding ``muse_corruption_chunk`` — or
        ``None`` when ``k_symbols`` is outside the exactly-replayable
        1..2 range, telling the caller to take the unfused path.
        """
        layout = self.code.layout
        if not 1 <= k_symbols <= min(2, layout.symbol_count):
            return None
        from repro.orchestrate.corruption import (
            STREAM_CHOICE,
            STREAM_DATA,
            STREAM_VALUE,
        )
        from repro.orchestrate.rng import derive_key

        data_keys = np.array(
            [derive_key(key, STREAM_DATA, j) for j in range(self.limbs)],
            dtype=np.uint64,
        )
        choice_keys = np.array(
            [
                derive_key(key, STREAM_CHOICE, s)
                for s in range(layout.symbol_count)
            ],
            dtype=np.uint64,
        )
        value_keys = np.array(
            [derive_key(key, STREAM_VALUE, slot) for slot in range(k_symbols)],
            dtype=np.uint64,
        )
        counts = np.zeros(4, dtype=np.int64)
        self._lib.muse_fused_chunk(
            chunk.start, chunk.size, k_symbols, self.limbs, self.code.r,
            int(self._m_u64), _ptr(self._weights), _ptr(self._k_mask),
            _ptr(self._hit_u8), _ptr(self._elc_addend), _ptr(self._low_mask),
            _ptr(self._above_mask), _ptr(self._bit_symbol),
            _ptr(self._symbol_outside_masks), _ptr(self._sym_bits),
            _ptr(self._sym_widths), self._sym_bits.shape[1],
            layout.symbol_count, _ptr(data_keys), _ptr(choice_keys),
            _ptr(value_keys), int(self.ripple_check), _ptr(counts),
        )
        return tuple(int(count) for count in counts)


__all__ = ["MAX_NATIVE_LIMBS", "NativeDecodeEngine"]
