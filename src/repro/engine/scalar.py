"""The scalar reference backend: one big-int decode per word.

This wraps the original :meth:`MuseCode.decode` /
:meth:`MuseCode.decode_without_ripple_check` loop behind the
:class:`DecodeEngine` interface.  It is the semantics oracle the numpy
and native backends are tested against.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.base import (
    BatchDecodeResult,
    DecodeEngine,
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED_NO_MATCH,
    STATUS_DETECTED_RIPPLE,
    status_of,
)


def _as_int_list(words) -> list[int]:
    """Accept a Python-int sequence or a limb batch from the numpy side."""
    if hasattr(words, "dtype"):  # (B, L) uint64 limb array
        from repro.engine.limbs import limbs_to_ints

        return limbs_to_ints(words)
    return list(words)


class ScalarBatchResult(BatchDecodeResult):
    """Batch result backed by a plain list of scalar decode results."""

    def __init__(self, code, results):
        self.code = code
        self._results = results
        self._statuses: list[int] | None = None

    @property
    def statuses(self) -> Sequence[int]:
        if self._statuses is None:
            self._statuses = [status_of(r) for r in self._results]
        return self._statuses

    def counts(self) -> tuple[int, int, int, int]:
        buckets = [0, 0, 0, 0]
        for status in self.statuses:
            buckets[status] += 1
        return tuple(buckets)

    def results(self):
        return list(self._results)


class ScalarDecodeEngine(DecodeEngine):
    """Reference backend: arbitrary-precision ints, one word at a time."""

    name = "scalar"

    def encode_batch(self, data: Sequence[int]) -> list[int]:
        encode = self.code.encode
        return [encode(word) for word in data]

    def decode_batch(self, words) -> ScalarBatchResult:
        code = self.code
        decode = code.decode if self.ripple_check else code.decode_without_ripple_check
        return ScalarBatchResult(code, [decode(w) for w in _as_int_list(words)])


# re-export for callers that classify scalar results themselves
__all__ = [
    "ScalarBatchResult",
    "ScalarDecodeEngine",
    "STATUS_CLEAN",
    "STATUS_CORRECTED",
    "STATUS_DETECTED_NO_MATCH",
    "STATUS_DETECTED_RIPPLE",
]
