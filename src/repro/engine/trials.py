"""Bulk Monte-Carlo trial generation for the MSED studies.

The corruption stream is generated *once*, vectorised, independent of
which backend later decodes it; every backend classifies the *same*
corrupted words, which is what makes cross-backend tallies
byte-identical under a fixed seed.

Since the streaming orchestrator landed, the stream itself lives in
:mod:`repro.orchestrate.corruption` in chunk-addressable form (every
draw a counter hash of the global trial index); this module's
whole-run entry point is a thin wrapper over one full-run chunk, so
the monolithic and chunked generators can never diverge.
"""

from __future__ import annotations


def msed_corruption_batch(code, trials: int, seed: int, k_symbols: int = 2):
    """Encode ``trials`` random words and corrupt ``k_symbols`` each.

    Returns a ``(trials, limbs)`` uint64 batch of corrupted codewords,
    consumable by any :class:`~repro.engine.base.DecodeEngine` —
    exactly chunk ``[0, trials)`` of the counter-hashed stream keyed by
    ``derive_key(seed)``.
    """
    from repro.orchestrate.corruption import muse_corruption_chunk
    from repro.orchestrate.plan import Chunk
    from repro.orchestrate.rng import derive_key

    return muse_corruption_chunk(
        code, Chunk(0, trials), derive_key(seed), k_symbols
    )
