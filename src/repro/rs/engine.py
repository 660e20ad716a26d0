"""Batch Reed-Solomon decode engines (scalar reference vs vectorised numpy).

The RS analogue of :mod:`repro.engine`: one :class:`RsDecodeEngine`
binds an :class:`~repro.rs.reed_solomon.RSCode` to a batch execution
strategy on the same backend ladder the MUSE engine uses (scalar,
numpy, and the C kernels of :mod:`repro.rs.engine_native`), with the
same semantics — an explicit request for a rung that cannot run raises
:class:`BackendUnavailableError`, ``auto`` takes the fastest rung that
accepts the code.

Codeword batches are ``(batch, n_symbols)`` uint32 symbol arrays.  The
numpy backend runs the whole t=1 PGZ flow vectorised:

1. **Syndromes** — one doubled-exp-table gather per weight vector
   (``alpha^i`` and ``alpha^2i`` logs are just ``i`` and ``2i mod
   order``), then an XOR reduction along the symbol axis.
2. **Locator/position** — ``log(S2) - log(S1) mod order`` *is* the
   error position; no Chien search, one subtraction per word.
3. **Validity** — shortened positions (``>= n_symbols``) and partial
   last-symbol corrections that touch virtual padding bits both detect,
   exactly like the scalar decoder.
4. **Device policy** — the x4 confinement check is one gather into a
   precomputed ``(position, magnitude) -> confined`` table built from
   the code's symbol bit-offset prefix sums (devices are contiguous, so
   confinement reduces to the lowest and highest flipped bit landing in
   the same device).

Per-word outcomes reuse the MUSE engine's four tally-aligned status
codes; the fourth bucket is the device-confinement veto rather than a
correction ripple.  Corruption streams are generated once, vectorised
(:func:`rs_msed_corruption_batch`), independent of the decode backend —
a fixed ``(trials, seed)`` run therefore tallies byte-identically on
both backends.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine import cached_engine
from repro.engine.base import (
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED_NO_MATCH,
    STATUS_DETECTED_RIPPLE,
)
from repro.rs.reed_solomon import RSCode, RSDecodeResult, RSDecodeStatus

#: RS name for the fourth status bucket: the PGZ correction was valid
#: but could not have been produced by a single failed device.
STATUS_DETECTED_CONFINEMENT = STATUS_DETECTED_RIPPLE

RS_STATUS_NAMES = (
    "clean",
    "corrected",
    "detected_no_match",
    "detected_confinement",
)


def device_confined(
    code: RSCode, position: int, magnitude: int, device_bits: int
) -> bool:
    """Would this correction be producible by one failed device?

    Devices own contiguous ``device_bits`` ranges of the channel, so
    the flipped bits are confined iff the lowest and highest of them
    fall in the same device.
    """
    if magnitude == 0:
        return True
    offset = code.symbol_bit_offsets[position]
    low = offset + ((magnitude & -magnitude).bit_length() - 1)
    high = offset + magnitude.bit_length() - 1
    return low // device_bits == high // device_bits


# ----------------------------------------------------------------------
# Batch results
# ----------------------------------------------------------------------

class RsBatchResult:
    """Outcome of decoding one batch of RS codewords.

    ``statuses`` / ``counts()`` are the cheap tally views;
    ``results()`` reconstructs per-word :class:`RSDecodeResult` objects
    identical to ``code.decode`` — the device-policy verdict lives only
    in the status codes (the bounded-distance decoder itself still
    reports such words as CORRECTED, as the scalar decoder does).
    """

    code: RSCode

    @property
    def statuses(self) -> Sequence[int]:
        raise NotImplementedError

    def counts(self) -> tuple[int, int, int, int]:
        """``(clean, corrected, detected_no_match, detected_confinement)``."""
        raise NotImplementedError

    def results(self) -> list[RSDecodeResult]:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.statuses)


class ScalarRsBatchResult(RsBatchResult):
    def __init__(self, code, statuses, results):
        self.code = code
        self._statuses = statuses
        self._results = results

    @property
    def statuses(self) -> Sequence[int]:
        return self._statuses

    def counts(self) -> tuple[int, int, int, int]:
        buckets = [0, 0, 0, 0]
        for status in self._statuses:
            buckets[status] += 1
        return tuple(buckets)

    def results(self) -> list[RSDecodeResult]:
        return list(self._results)


class NumpyRsBatchResult(RsBatchResult):
    """Batch result backed by symbol arrays; tuples materialise lazily."""

    def __init__(self, code, statuses, words, corrected, positions, magnitudes):
        self.code = code
        self._statuses = statuses
        self._words = words
        self._corrected = corrected
        self._positions = positions
        self._magnitudes = magnitudes

    @property
    def statuses(self) -> Sequence[int]:
        return self._statuses

    def counts(self) -> tuple[int, int, int, int]:
        return tuple(int(c) for c in np.bincount(self._statuses, minlength=4)[:4])

    def results(self) -> list[RSDecodeResult]:
        received = self._words.tolist()
        corrected = self._corrected.tolist()
        positions = self._positions.tolist()
        magnitudes = self._magnitudes.tolist()
        out = []
        for i, status in enumerate(self._statuses.tolist()):
            if status == STATUS_CLEAN:
                out.append(
                    RSDecodeResult(RSDecodeStatus.CLEAN, tuple(received[i]))
                )
            elif status == STATUS_DETECTED_NO_MATCH:
                out.append(RSDecodeResult(RSDecodeStatus.DETECTED, None))
            else:  # CORRECTED, with or without the policy veto
                out.append(
                    RSDecodeResult(
                        RSDecodeStatus.CORRECTED,
                        tuple(corrected[i]),
                        error_position=positions[i],
                        error_magnitude=magnitudes[i],
                    )
                )
        return out


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------

class RsDecodeEngine:
    """One RS code bound to one batch-execution strategy.

    ``device_bits`` enables the device-confinement decode policy
    (``None`` disables it); the policy only affects which of the two
    "corrected" status buckets a PGZ correction lands in.
    """

    #: ladder name of the backend ("scalar", "numpy" or "native")
    name: str

    def __init__(self, code: RSCode, device_bits: int | None = 4):
        self.code = code
        self.device_bits = device_bits

    def __repr__(self) -> str:
        policy = (
            f", x{self.device_bits} policy" if self.device_bits is not None else ""
        )
        return f"{type(self).__name__}({self.code!r}{policy})"

    def encode_batch(self, data) -> list[tuple[int, ...]]:
        """Systematically encode a batch of data-symbol rows."""
        raise NotImplementedError

    def decode_batch(self, words) -> RsBatchResult:
        """PGZ-decode a batch of codeword-symbol rows.

        ``words`` may be a sequence of symbol sequences or (for the
        numpy backend, zero-copy) a ``(B, n_symbols)`` uint32 array.
        """
        raise NotImplementedError


def _as_symbol_rows(words) -> list[list[int]]:
    """Accept a symbol-row sequence or an ndarray from the numpy side."""
    if hasattr(words, "dtype"):
        return words.tolist()
    return [list(row) for row in words]


class ScalarRsEngine(RsDecodeEngine):
    """Reference backend: one ``RSCode.decode`` call per word."""

    name = "scalar"

    def encode_batch(self, data) -> list[tuple[int, ...]]:
        encode = self.code.encode
        return [encode(row) for row in _as_symbol_rows(data)]

    def decode_batch(self, words) -> ScalarRsBatchResult:
        code = self.code
        device_bits = self.device_bits
        statuses = []
        results = []
        for row in _as_symbol_rows(words):
            result = code.decode(row)
            if result.status is RSDecodeStatus.CLEAN:
                statuses.append(STATUS_CLEAN)
            elif result.status is RSDecodeStatus.DETECTED:
                statuses.append(STATUS_DETECTED_NO_MATCH)
            elif device_bits is not None and not device_confined(
                code, result.error_position, result.error_magnitude, device_bits
            ):
                statuses.append(STATUS_DETECTED_CONFINEMENT)
            else:
                statuses.append(STATUS_CORRECTED)
            results.append(result)
        return ScalarRsBatchResult(code, statuses, results)


class NumpyRsEngine(RsDecodeEngine):
    """Vectorised backend over ``(batch, n_symbols)`` uint32 codewords."""

    name = "numpy"

    def __init__(self, code: RSCode, device_bits: int | None = 4):
        super().__init__(code, device_bits)
        field = code.field
        order = field.order
        n = code.n_symbols
        positions = np.arange(n, dtype=np.int64)
        # Syndrome weight logs: log(alpha^i) == i, log(alpha^2i) == 2i mod q.
        self._w1_log = positions
        self._w2_log = (2 * positions) % order
        self._order = order
        # Check-symbol solve constants (see RSCode.encode).
        p, q = n - 2, n - 1
        ap, aq = field.pow_alpha(p), field.pow_alpha(q)
        ap2, aq2 = field.pow_alpha(2 * p), field.pow_alpha(2 * q)
        self._enc_aq, self._enc_aq2 = aq, aq2
        self._enc_ap, self._enc_ap2 = ap, ap2
        self._enc_det = field.mul(ap, aq2) ^ field.mul(aq, ap2)
        # Partial-last-symbol padding mask (0 disables the check).
        self._pad_mask = np.uint32(
            ((1 << code.symbol_bits) - (1 << code.partial_bits))
            if code.partial_bits
            else 0
        )
        self._partial_position = code.data_symbols - 1
        # Device-confinement lookup: (position, magnitude) -> confined.
        # Devices are contiguous bit ranges, so a correction is confined
        # iff its lowest and highest flipped bits share a device.
        if device_bits is not None:
            offsets = np.asarray(code.symbol_bit_offsets, dtype=np.int64)
            values = np.arange(1 << code.symbol_bits, dtype=np.int64)
            # frexp exponents are exact bit lengths for ints < 2^53.
            low = np.frexp((values & -values).astype(np.float64))[1] - 1
            high = np.frexp(values.astype(np.float64))[1] - 1
            confined = (
                (offsets[:, None] + low[None, :]) // device_bits
                == (offsets[:, None] + high[None, :]) // device_bits
            )
            confined[:, 0] = True  # magnitude 0 never occurs, keep it benign
            self._confined = confined
        else:
            self._confined = None

    # -- batches -------------------------------------------------------

    def as_batch(self, words) -> np.ndarray:
        """Coerce symbol rows into this engine's ``(B, n)`` uint32 batch."""
        code = self.code
        if isinstance(words, np.ndarray) and words.dtype == np.uint32:
            batch = words
        else:
            batch = np.asarray(_as_symbol_rows(words), dtype=np.uint32)
        if batch.ndim != 2 or batch.shape[1] != code.n_symbols:
            raise ValueError(
                f"expected a (batch, {code.n_symbols}) symbol array, "
                f"got shape {batch.shape}"
            )
        if batch.size and int(batch.max()) >= code.field.size:
            raise ValueError(
                f"symbol values must fit in GF(2^{code.symbol_bits})"
            )
        return batch

    # -- encode --------------------------------------------------------

    def encode_arrays(self, data: np.ndarray) -> np.ndarray:
        """Systematic encode of a ``(B, k)`` uint32 data batch."""
        code = self.code
        field = code.field
        exp2, log = field.exp_nd, field.log_nd
        k = code.data_symbols
        logd = log[data]
        nz = data != 0
        s1 = np.bitwise_xor.reduce(
            np.where(nz, exp2[logd + self._w1_log[:k]], np.uint32(0)), axis=1
        )
        s2 = np.bitwise_xor.reduce(
            np.where(nz, exp2[logd + self._w2_log[:k]], np.uint32(0)), axis=1
        )
        c1 = field.div_batch(
            field.mul_batch(s1, self._enc_aq2) ^ field.mul_batch(s2, self._enc_aq),
            self._enc_det,
        )
        c2 = field.div_batch(
            field.mul_batch(s2, self._enc_ap) ^ field.mul_batch(s1, self._enc_ap2),
            self._enc_det,
        )
        return np.concatenate(
            [data, c1[:, None], c2[:, None]], axis=1
        ).astype(np.uint32)

    def encode_batch(self, data) -> list[tuple[int, ...]]:
        code = self.code
        rows = _as_symbol_rows(data)
        for row in rows:
            code._check_data(row)
        encoded = self.encode_arrays(np.asarray(rows, dtype=np.uint32))
        return [tuple(row) for row in encoded.tolist()]

    # -- decode --------------------------------------------------------

    def decode_arrays(self, words: np.ndarray) -> NumpyRsBatchResult:
        """The whole t=1 PGZ flow over a ``(B, n)`` uint32 batch."""
        code = self.code
        field = code.field
        exp2, log = field.exp_nd, field.log_nd
        order = self._order
        logw = log[words]
        nz = words != 0
        s1 = np.bitwise_xor.reduce(
            np.where(nz, exp2[logw + self._w1_log], np.uint32(0)), axis=1
        )
        s2 = np.bitwise_xor.reduce(
            np.where(nz, exp2[logw + self._w2_log], np.uint32(0)), axis=1
        )
        batch = words.shape[0]
        statuses = np.full(batch, STATUS_DETECTED_NO_MATCH, dtype=np.uint8)
        statuses[(s1 == 0) & (s2 == 0)] = STATUS_CLEAN
        corrected = words.copy()
        positions = np.full(batch, -1, dtype=np.int64)
        magnitudes = np.zeros(batch, dtype=np.uint32)
        candidates = np.flatnonzero((s1 != 0) & (s2 != 0))
        if candidates.size:
            l1 = log[s1[candidates]]
            l2 = log[s2[candidates]]
            # locator X = S2/S1 == alpha^position: the log difference IS
            # the position, no Chien sweep needed.
            pos = (l2 - l1) % order
            in_range = pos < code.n_symbols
            rows = candidates[in_range]
            pos = pos[in_range]
            magnitude = exp2[l1[in_range] - pos + order].astype(np.uint32)
            fixed = words[rows, pos] ^ magnitude
            valid = np.ones(rows.size, dtype=bool)
            if self._pad_mask:
                # Corrections landing on virtual padding bits of the
                # partial last data symbol are impossible for a real
                # single-symbol error: detected.
                valid &= ~(
                    (pos == self._partial_position)
                    & ((fixed & self._pad_mask) != 0)
                )
            good_rows = rows[valid]
            corrected[good_rows, pos[valid]] = fixed[valid]
            positions[good_rows] = pos[valid]
            magnitudes[good_rows] = magnitude[valid]
            if self._confined is not None:
                confined = self._confined[pos[valid], magnitude[valid]]
                statuses[good_rows[confined]] = STATUS_CORRECTED
                statuses[good_rows[~confined]] = STATUS_DETECTED_CONFINEMENT
            else:
                statuses[good_rows] = STATUS_CORRECTED
        return NumpyRsBatchResult(
            code, statuses, words, corrected, positions, magnitudes
        )

    def decode_batch(self, words) -> NumpyRsBatchResult:
        return self.decode_arrays(self.as_batch(words))


# ----------------------------------------------------------------------
# Backend ladder
# ----------------------------------------------------------------------

def _native_rs_factory(code, device_bits=4):
    # Imported on first use: engine_native subclasses NumpyRsEngine.
    from repro.rs.engine_native import NativeRsEngine

    return NativeRsEngine(code, device_bits)


_RS_FACTORIES = {
    "scalar": ScalarRsEngine,
    "numpy": NumpyRsEngine,
    "native": _native_rs_factory,
}


def get_rs_engine(
    code: RSCode, backend: str = "auto", device_bits: int | None = 4
) -> RsDecodeEngine:
    """Build (or fetch the cached) RS engine for one code.

    Shares the MUSE backend ladder and its engine cache loop
    (:func:`repro.engine.cached_engine`): an explicit request for an
    unavailable backend raises :class:`BackendUnavailableError`, and
    ``auto`` resolves to the fastest rung that accepts the code.
    """
    return cached_engine(code, backend, device_bits, _RS_FACTORIES)


# ----------------------------------------------------------------------
# Shared corruption generation
# ----------------------------------------------------------------------

def rs_msed_corruption_batch(
    code: RSCode, trials: int, seed: int, k_symbols: int = 2
):
    """Encode ``trials`` random words and corrupt ``k_symbols`` each.

    Returns a ``(trials, n_symbols)`` uint32 batch of corrupted
    codewords, consumable by any backend — the RS analogue of
    :func:`repro.engine.msed_corruption_batch`, and the reason a fixed
    ``(trials, seed)`` run tallies identically on every backend.  A
    thin wrapper over chunk ``[0, trials)`` of the counter-hashed
    stream in :mod:`repro.orchestrate.corruption`, so the monolithic
    and chunked generators can never diverge.
    """
    from repro.orchestrate.corruption import rs_corruption_chunk
    from repro.orchestrate.plan import Chunk
    from repro.orchestrate.rng import derive_key

    return rs_corruption_chunk(
        code, Chunk(0, trials), derive_key(seed), k_symbols
    )


__all__ = [
    "NumpyRsEngine",
    "RsBatchResult",
    "RsDecodeEngine",
    "RS_STATUS_NAMES",
    "STATUS_CLEAN",
    "STATUS_CORRECTED",
    "STATUS_DETECTED_CONFINEMENT",
    "STATUS_DETECTED_NO_MATCH",
    "ScalarRsEngine",
    "device_confined",
    "get_rs_engine",
    "rs_msed_corruption_batch",
]
