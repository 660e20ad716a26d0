"""Erasure (known-location) decoding for MUSE codes.

The paper claims (Section IV) that the 80-bit construction "can recover
two consecutive device-failures with one bit to spare".  Our exhaustive
searches show no 15-bit multiplier separates *unknown-location* 8-bit
window errors over 80 bits — but the claim does not need one: permanent
chip failures are *identified* after the first corrected event, and a
known-location error is an **erasure**.

For an erasure confined to a contiguous bit window ``[p, p+w)`` the
error value is ``d * 2^p`` with ``d in (-2^w, 2^w)``, so the remainder
determines ``d`` uniquely whenever ``m > 2^(w+1) - 2`` (two candidate
``d`` values would differ by less than ``m``, hence collide mod ``m``
only if equal).  Every Table-I multiplier — and any 15-bit one — clears
that bar for the 8-bit window of two adjacent x4 devices, which is
exactly why the paper's "consecutive" qualifier matters: two *separated*
dead devices form a 2-D lattice of error values that a 15-bit residue
cannot disambiguate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.codec import DecodeResult, DecodeStatus, MuseCode


class ErasureWindowError(ValueError):
    """The erased symbols do not form a decodable contiguous window."""


@dataclass(frozen=True)
class ErasureWindow:
    """A contiguous erased bit range ``[offset, offset + width)``."""

    offset: int
    width: int

    @property
    def max_magnitude(self) -> int:
        return (1 << self.width) - 1


def window_for_symbols(code: MuseCode, symbols: tuple[int, ...]) -> ErasureWindow:
    """Build the contiguous erasure window covering ``symbols``.

    Raises :class:`ErasureWindowError` when the symbols' bits are not
    contiguous (e.g. two separated devices, or a shuffled layout whose
    symbols interleave) — the cases the residue genuinely cannot erase.
    """
    bits: list[int] = []
    for symbol in symbols:
        bits.extend(code.layout.symbols[symbol])
    bits.sort()
    if not bits:
        raise ErasureWindowError("no symbols to erase")
    offset, top = bits[0], bits[-1]
    if top - offset + 1 != len(bits):
        raise ErasureWindowError(
            f"erased symbols {symbols} do not form a contiguous window "
            f"(bits {offset}..{top}, {len(bits)} bits)"
        )
    return ErasureWindow(offset=offset, width=len(bits))


@dataclass
class ErasureDecoder:
    """Known-location corrector layered on a MUSE code.

    ``decode(codeword, erased_symbols)`` recovers the data when every
    corrupted bit lies in the erased symbols' (contiguous) window —
    regardless of how many bits flipped there, i.e. full multi-device
    recovery once the dead devices are known.
    """

    code: MuseCode

    def required_multiplier_floor(self, window: ErasureWindow) -> int:
        """Smallest multiplier able to erase this window: 2^(w+1) - 1."""
        return 2 * window.max_magnitude

    def _validated_window(self, erased_symbols: tuple[int, ...]) -> ErasureWindow:
        """Build the erasure window and enforce the multiplier floor."""
        window = window_for_symbols(self.code, erased_symbols)
        if self.code.m <= self.required_multiplier_floor(window):
            raise ErasureWindowError(
                f"multiplier {self.code.m} too small to erase a "
                f"{window.width}-bit window"
            )
        return window

    def decode(
        self, codeword: int, erased_symbols: tuple[int, ...]
    ) -> DecodeResult:
        code = self.code
        window = self._validated_window(erased_symbols)
        remainder = codeword % code.m
        if remainder == 0:
            return DecodeResult(
                status=DecodeStatus.CLEAN,
                data=codeword >> code.r,
                codeword=codeword,
            )
        # Solve d * 2^offset == remainder (mod m) for the centered d.
        inverse_shift = pow(1 << window.offset, -1, code.m)
        d = (remainder * inverse_shift) % code.m
        if d > code.m - d:
            d -= code.m  # pick the negative representative
        if abs(d) > window.max_magnitude:
            return DecodeResult(
                status=DecodeStatus.DETECTED,
                data=None,
                codeword=codeword,
            )
        corrected = codeword - (d << window.offset)
        if corrected < 0 or corrected >> code.n or corrected % code.m:
            return DecodeResult(
                status=DecodeStatus.DETECTED,
                data=None,
                codeword=codeword,
            )
        changed = corrected ^ codeword
        window_mask = ((1 << window.width) - 1) << window.offset
        if changed & ~window_mask:
            return DecodeResult(
                status=DecodeStatus.DETECTED,
                data=None,
                codeword=codeword,
            )
        return DecodeResult(
            status=DecodeStatus.CORRECTED,
            data=corrected >> code.r,
            codeword=corrected,
            error_value=d << window.offset,
        )

    def decode_batch(
        self,
        codewords: Sequence[int],
        erased_symbols: Sequence[tuple[int, ...]] | tuple[int, ...],
        backend: str = "auto",
    ) -> list[DecodeResult]:
        """Known-location decode of a whole batch at once.

        ``erased_symbols`` is either one symbol tuple applied to every
        word or one tuple per word.  Words are grouped by their erasure
        window and each group runs through the vectorised limb path
        (:mod:`repro.engine.erasure_numpy`) unless ``backend``
        resolves to ``scalar``, which runs the per-word loop.  Results
        are scalar-identical and returned in input order.
        """
        from repro.engine import resolve_backend

        words = list(codewords)
        if erased_symbols and isinstance(erased_symbols[0], int):
            per_word = [tuple(erased_symbols)] * len(words)
        else:
            per_word = [tuple(symbols) for symbols in erased_symbols]
            if len(per_word) != len(words):
                raise ValueError(
                    f"got {len(words)} codewords but {len(per_word)} "
                    "erasure tuples"
                )
        if resolve_backend(backend) == "scalar":
            return [
                self.decode(word, symbols)
                for word, symbols in zip(words, per_word)
            ]
        from repro.engine.erasure_numpy import erasure_decode_window_batch

        groups: dict[tuple[int, ...], list[int]] = {}
        for row, symbols in enumerate(per_word):
            groups.setdefault(symbols, []).append(row)
        results: list[DecodeResult | None] = [None] * len(words)
        for symbols, rows in groups.items():
            window = self._validated_window(symbols)
            decoded = erasure_decode_window_batch(
                self.code, [words[row] for row in rows], window
            )
            for row, result in zip(rows, decoded):
                results[row] = result
        return results
