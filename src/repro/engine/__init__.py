"""Batch decode engines behind a fixed backend ladder.

Entry points:

* :data:`BACKENDS` — the ladder, slowest rung first: ``scalar`` (the
  big-int reference), ``numpy`` (vectorised limb arrays) and ``native``
  (self-compiled C kernels, :mod:`repro.engine.cc`).  Every rung serves
  both code families and tallies byte-identically at a fixed seed.
* :func:`get_engine` — resolve a backend name ("scalar", "numpy",
  "native" or "auto") into a cached :class:`DecodeEngine` for one code;
  :func:`repro.rs.engine.get_rs_engine` is its Reed-Solomon twin.
* :func:`msed_corruption_batch` — vectorised Monte-Carlo corruption
  generation shared by all backends (:mod:`repro.engine.trials`).
* :func:`registered_backends` / :func:`available_backends` /
  :func:`native_available` — capability probes for callers that build
  CLI choices, gate features or skip tests.

``scalar`` and ``numpy`` always run; ``native`` needs a working C
compiler.  ``auto`` takes the fastest rung that is available *and*
accepts the code (native declines codes wider than its fixed kernel
scratch), so it never leaves the one corruption stream every rung
shares.  An *explicit* request for a rung that cannot run raises
:class:`BackendUnavailableError` rather than silently running
something else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro import telemetry
from repro.engine.base import (
    BackendUnavailableError,
    BatchDecodeResult,
    DecodeEngine,
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED_NO_MATCH,
    STATUS_DETECTED_RIPPLE,
    STATUS_NAMES,
    status_of,
)
from repro.engine.trials import msed_corruption_batch

if TYPE_CHECKING:
    from repro.core.codec import MuseCode

#: The backend ladder, slowest first; ``auto`` walks it from the top.
BACKENDS = ("scalar", "numpy", "native")


def registered_backends() -> tuple[str, ...]:
    """Every backend name, whether or not it can run here."""
    return BACKENDS


def native_available() -> bool:
    """True when the C kernels compiled and loaded (cc + ctypes)."""
    from repro.engine.cc import native_kernels_available

    return native_kernels_available()


def available_backends() -> tuple[str, ...]:
    """The backends that can actually run in this environment."""
    return tuple(
        name for name in BACKENDS if name != "native" or native_available()
    )


def resolve_backend(backend: str = "auto") -> str:
    """Normalise a backend request.

    ``auto`` picks the fastest available rung (native > numpy >
    scalar); an explicit name must be on the ladder (else
    ``ValueError``) *and* available (else
    :class:`BackendUnavailableError` — an explicit request never
    silently degrades).
    """
    if backend == "auto":
        return available_backends()[-1]
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if backend not in available_backends():
        raise BackendUnavailableError(
            f"{backend} backend requested but its dependencies are not "
            f"available here (available: {available_backends()})"
        )
    return backend


def cached_engine(code, backend: str, option, factories: dict):
    """The engine binding ``code`` to ``backend``, built once per code.

    Engines precompute dense lookup tables from the code, so they are
    cached on the code instance per ``(backend, option)`` — a worker
    pays table construction once per code, not once per chunk.
    ``factories`` maps each rung to its ``factory(code, option)``.

    ``auto`` walks the available rungs from the fastest down and keeps
    the first whose factory accepts the code; a rung that declines
    (raises :class:`BackendUnavailableError`) is skipped, and the pick
    is cached under ``"auto"`` so the decline is paid once.  ``auto``
    shares its engine with the explicit request for the same rung.
    """
    if backend != "auto":
        backend = resolve_backend(backend)
    cache = code.__dict__.setdefault("_engine_cache", {})
    engine = cache.get((backend, option))
    if engine is None:
        names = reversed(available_backends()) if backend == "auto" else (backend,)
        for name in names:
            engine = cache.get((name, option))
            if engine is None:
                try:
                    # Table construction: the classic hidden startup
                    # cost, made a visible span.
                    with telemetry.span("engine_build", backend=name):
                        engine = factories[name](code, option)
                except BackendUnavailableError:
                    if backend != "auto":
                        raise  # an explicit request must not degrade
                    continue  # this rung declines the code: next one down
                cache[(name, option)] = engine
            break
        cache[(backend, option)] = engine
    telemetry.counter("engine.resolve", backend=engine.name)
    return engine


def _scalar_factory(code, ripple_check=True):
    from repro.engine.scalar import ScalarDecodeEngine

    return ScalarDecodeEngine(code, ripple_check)


def _numpy_factory(code, ripple_check=True):
    from repro.engine.numpy_backend import NumpyDecodeEngine

    return NumpyDecodeEngine(code, ripple_check)


def _native_factory(code, ripple_check=True):
    from repro.engine.native import NativeDecodeEngine

    return NativeDecodeEngine(code, ripple_check)


_FACTORIES: dict[str, Callable[..., DecodeEngine]] = {
    "scalar": _scalar_factory,
    "numpy": _numpy_factory,
    "native": _native_factory,
}


def get_engine(
    code: "MuseCode", backend: str = "auto", ripple_check: bool = True
) -> DecodeEngine:
    """Build (or fetch the cached) engine binding ``code`` to a backend.

    Cached per ``(backend, ripple_check)`` on the code instance; see
    :func:`cached_engine` for how ``auto`` picks its rung.
    """
    return cached_engine(code, backend, ripple_check, _FACTORIES)


__all__ = [
    "BACKENDS",
    "BackendUnavailableError",
    "BatchDecodeResult",
    "DecodeEngine",
    "STATUS_CLEAN",
    "STATUS_CORRECTED",
    "STATUS_DETECTED_NO_MATCH",
    "STATUS_DETECTED_RIPPLE",
    "STATUS_NAMES",
    "available_backends",
    "cached_engine",
    "get_engine",
    "msed_corruption_batch",
    "native_available",
    "registered_backends",
    "resolve_backend",
    "status_of",
]
