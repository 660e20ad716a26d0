"""Backend-neutral decode-engine interface.

A :class:`DecodeEngine` turns one :class:`~repro.core.codec.MuseCode`
into a *batch* encoder/decoder.  Three interchangeable backends form
the ladder ``auto`` walks:

* ``scalar`` — the big-int reference path, one
  :meth:`MuseCode.decode` call per word (the oracle);
* ``numpy`` — fixed-width limb arrays with the whole Figure-4 flow
  vectorised (:mod:`repro.engine.numpy_backend`);
* ``native`` — the numpy tables driven by self-compiled C kernels
  (:mod:`repro.engine.native`), plus a fused corruption->decode->tally
  chunk kernel.

All classify every word into one of four :data:`STATUS_*` codes, which
deliberately mirror the Monte-Carlo tally buckets: the reliability
simulators consume :meth:`BatchDecodeResult.counts` directly, and the
cross-backend equivalence tests compare the per-word codes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.core.codec import DecodeResult, MuseCode

#: Per-word outcome codes (uint8-friendly, bincount-friendly).
STATUS_CLEAN = 0
STATUS_CORRECTED = 1
STATUS_DETECTED_NO_MATCH = 2
STATUS_DETECTED_RIPPLE = 3

STATUS_NAMES = ("clean", "corrected", "detected_no_match", "detected_ripple")


class BackendUnavailableError(RuntimeError):
    """The requested backend cannot run here or declines this code
    (e.g. no C compiler for ``native``, or a code wider than its
    kernels' fixed scratch)."""


def status_of(result: "DecodeResult") -> int:
    """Map one scalar :class:`DecodeResult` to its batch status code."""
    from repro.core.codec import DecodeStatus, DetectionReason

    if result.status is DecodeStatus.CLEAN:
        return STATUS_CLEAN
    if result.status is DecodeStatus.CORRECTED:
        return STATUS_CORRECTED
    if result.reason is DetectionReason.REMAINDER_NOT_FOUND:
        return STATUS_DETECTED_NO_MATCH
    return STATUS_DETECTED_RIPPLE


class BatchDecodeResult(ABC):
    """Outcome of decoding one batch of codewords.

    Cheap views (:attr:`statuses`, :meth:`counts`) never materialise
    Python integers; :meth:`results` reconstructs full per-word
    :class:`DecodeResult` objects and is intended for interop and
    tests, not hot loops.
    """

    code: "MuseCode"

    @property
    @abstractmethod
    def statuses(self) -> Sequence[int]:
        """Per-word :data:`STATUS_*` codes (list or uint8 ndarray)."""

    @abstractmethod
    def counts(self) -> tuple[int, int, int, int]:
        """``(clean, corrected, detected_no_match, detected_ripple)``."""

    @abstractmethod
    def results(self) -> list["DecodeResult"]:
        """Materialise scalar-identical :class:`DecodeResult` objects."""

    def __len__(self) -> int:
        return len(self.statuses)


class DecodeEngine(ABC):
    """One code bound to one batch-execution strategy.

    Parameters
    ----------
    code:
        The :class:`MuseCode` whose arithmetic this engine runs.
    ripple_check:
        When False the engine reproduces
        :meth:`MuseCode.decode_without_ripple_check` (the Figure-4 flow
        minus the confinement/overflow detector) — the ablation the
        frontier experiment measures.
    """

    #: ladder name of the backend ("scalar", "numpy" or "native")
    name: str

    def __init__(self, code: "MuseCode", ripple_check: bool = True):
        self.code = code
        self.ripple_check = ripple_check

    def __repr__(self) -> str:
        flavour = "" if self.ripple_check else ", no ripple check"
        return f"{type(self).__name__}({self.code.name}{flavour})"

    @abstractmethod
    def encode_batch(self, data: Sequence[int]) -> list[int]:
        """Systematically encode a batch of data words."""

    @abstractmethod
    def decode_batch(self, words) -> BatchDecodeResult:
        """Run the Figure-4 flow over a batch of received words.

        ``words`` may be a sequence of Python ints or (for the numpy
        and native backends, zero-copy) a ``(B, L)`` uint64 limb array from
        :mod:`repro.engine.limbs`.
        """
