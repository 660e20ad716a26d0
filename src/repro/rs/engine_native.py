"""The native Reed-Solomon backend: C PGZ kernels via ctypes.

The RS twin of :mod:`repro.engine.native` — subclasses
:class:`repro.rs.engine.NumpyRsEngine` for its GF tables and encode
constants, adds the flat tables the C kernels read (GF exp/log arrays,
symbol widths, the uint8 confinement lookup), and dispatches batch
decode and the fused corruption->decode->tally chunk to the shared
kernel library compiled by :mod:`repro.engine.cc`.  The fused kernel
replays :func:`repro.orchestrate.corruption.rs_corruption_chunk` draw
for draw (exact for ``k_symbols <= 2``, ``None`` otherwise), so
tallies are byte-identical to every other backend; the engine declines
codes wider than the kernels' fixed scratch, which ``auto`` answers by
falling through to numpy.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.engine.base import BackendUnavailableError
from repro.rs.engine import NumpyRsBatchResult, NumpyRsEngine

#: The C kernels use fixed stack scratch ``uint32_t word[64]``.
MAX_NATIVE_SYMBOLS = 64


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


class NativeRsEngine(NumpyRsEngine):
    """C-kernel RS backend; numpy's tables, ``cc``'s code.

    Cached per ``(code, device_bits)`` by ``get_rs_engine``, so a worker
    builds the kernel tables once per code.
    """

    name = "native"

    def __init__(self, code, device_bits: int | None = 4):
        super().__init__(code, device_bits)
        from repro.engine.cc import load_library

        library = load_library()
        if library is None:
            raise BackendUnavailableError(
                "native kernels unavailable (no working C compiler?)"
            )
        if code.n_symbols > MAX_NATIVE_SYMBOLS:
            raise BackendUnavailableError(
                f"native kernels support up to {MAX_NATIVE_SYMBOLS} "
                f"symbols, code needs {code.n_symbols}"
            )
        self._lib = library
        field = code.field
        self._exp2_nd = field.exp_nd
        self._log_nd = field.log_nd
        self._widths_nd = np.asarray(code.symbol_widths, dtype=np.int64)
        self._pad_mask_i = int(self._pad_mask)
        if self._confined is not None:
            self._confined_u8 = self._confined.astype(np.uint8)
            self._has_policy = True
        else:
            self._confined_u8 = np.zeros((1, 1), dtype=np.uint8)
            self._has_policy = False
        self._conf_stride = self._confined_u8.shape[1]

    def decode_arrays(self, words: np.ndarray) -> NumpyRsBatchResult:
        words = np.ascontiguousarray(words, dtype=np.uint32)
        batch = words.shape[0]
        corrected = np.empty_like(words)
        statuses = np.empty(batch, dtype=np.uint8)
        positions = np.empty(batch, dtype=np.int64)
        magnitudes = np.empty(batch, dtype=np.uint32)
        self._lib.rs_decode_batch(
            _ptr(words), batch, _ptr(corrected), _ptr(statuses),
            _ptr(positions), _ptr(magnitudes), _ptr(self._exp2_nd),
            _ptr(self._log_nd), self._order, self.code.n_symbols,
            self._pad_mask_i, self._partial_position,
            _ptr(self._confined_u8), int(self._has_policy),
            self._conf_stride,
        )
        return NumpyRsBatchResult(
            self.code, statuses, words, corrected, positions, magnitudes
        )

    def fused_chunk_counts(self, chunk, key: int, k_symbols: int):
        """The 4-status counts of one fused corruption->decode chunk.

        ``(clean, corrected, no_match, confinement)`` — byte-identical
        to decoding ``rs_corruption_chunk`` — or ``None`` when
        ``k_symbols`` falls outside the exactly-replayable 1..2 range.
        """
        code = self.code
        if not 1 <= k_symbols <= min(2, code.n_symbols):
            return None
        from repro.orchestrate.corruption import (
            STREAM_CHOICE,
            STREAM_DATA,
            STREAM_VALUE,
        )
        from repro.orchestrate.rng import derive_key

        data_keys = np.array(
            [
                derive_key(key, STREAM_DATA, j)
                for j in range(code.data_symbols)
            ],
            dtype=np.uint64,
        )
        choice_keys = np.array(
            [
                derive_key(key, STREAM_CHOICE, s)
                for s in range(code.n_symbols)
            ],
            dtype=np.uint64,
        )
        value_keys = np.array(
            [derive_key(key, STREAM_VALUE, slot) for slot in range(k_symbols)],
            dtype=np.uint64,
        )
        counts = np.zeros(4, dtype=np.int64)
        self._lib.rs_fused_chunk(
            chunk.start, chunk.size, k_symbols, _ptr(self._exp2_nd),
            _ptr(self._log_nd), self._order, code.n_symbols,
            code.data_symbols, _ptr(self._widths_nd), self._pad_mask_i,
            self._partial_position, _ptr(self._confined_u8),
            int(self._has_policy), self._conf_stride, int(self._enc_aq),
            int(self._enc_aq2), int(self._enc_ap), int(self._enc_ap2),
            int(self._enc_det), _ptr(data_keys), _ptr(choice_keys),
            _ptr(value_keys), _ptr(counts),
        )
        return tuple(int(count) for count in counts)


__all__ = ["MAX_NATIVE_SYMBOLS", "NativeRsEngine"]
