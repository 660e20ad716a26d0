"""Chunk-addressable Monte-Carlo corruption generation.

The single source of the MSED corruption streams: the encode-then-
corrupt recipe with every random draw a counter hash of the **global
trial index** (:mod:`repro.orchestrate.rng`).  Each generator is
written once for both code families; the code-family contract
(:mod:`repro.orchestrate.family`) supplies the codeword storage — uint64
limb rows for MUSE, uint32 symbol arrays for RS — and the historical
``muse_*`` / ``rs_*`` names are aliases of the one generic function.  Trial ``t`` therefore
receives the same data word, the same ``k`` corrupted symbols and the
same replacement values whether it is generated inside a monolithic
run, a 65536-trial chunk, or a 1-trial sliver on another process —
which is what makes chunk tallies a pure, split-invariant fold.  The
whole-run generators (:func:`repro.engine.msed_corruption_batch`,
:func:`repro.rs.engine.rs_msed_corruption_batch`) are thin wrappers
over the chunk forms here.

Per trial the draws are fixed-count and stream-separated:

* ``(DATA, column)`` — raw data limbs (MUSE) / data symbols (RS),
  masked to the data width (:func:`clean_chunk` stops here, which is
  how tests recover the pre-corruption words);
* ``(CHOICE, symbol)`` — one uint64 score per symbol; the corrupted
  set is the ``k`` smallest scores (distinct by construction);
* ``(VALUE, slot)`` — the replacement draw for each corrupted slot,
  reduced mod ``2^w - 1`` and stepped over the original value, so the
  replacement is never the original.  (The mod introduces a bias of
  order ``2^(w-64)`` — vanishing for the <= 16-bit symbols here.)

The batch generators here are the one stream every decode backend
consumes; the scalar :func:`clean_word` / :func:`scenario_word` replay
the same draws one trial at a time (via
:func:`repro.orchestrate.rng.trial_seed`) as the reference the batch
forms are pinned against.
"""

from __future__ import annotations

import numpy as np

from repro.orchestrate.family import family_of
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import counter_draws, derive_key, trial_seed
from repro.scenarios import scenario_stream_key

#: Stream tags keeping the three per-trial draw families independent.
STREAM_DATA = 0
STREAM_CHOICE = 1
STREAM_VALUE = 2


def _trial_counters(chunk: Chunk) -> np.ndarray:
    return np.arange(chunk.start, chunk.stop, dtype=np.uint64)


def _choose_symbols(
    key: int, trials: np.ndarray, symbol_count: int, k_symbols: int
) -> np.ndarray:
    """The ``k`` distinct corrupted symbols per trial: k smallest of
    ``symbol_count`` iid uint64 scores (per-row, so split-invariant)."""
    scores = np.empty((trials.size, symbol_count), dtype=np.uint64)
    for index in range(symbol_count):
        scores[:, index] = counter_draws(
            derive_key(key, STREAM_CHOICE, index), trials
        )
    return np.argpartition(scores, k_symbols - 1, axis=1)[:, :k_symbols]


def _replace_chosen_symbols(key: int, chosen: np.ndarray, view) -> None:
    """Overwrite every chosen symbol of ``view`` (a
    :class:`~repro.scenarios.BatchSymbolView`) with a fresh
    never-the-original value."""
    for slot in range(chosen.shape[1]):
        draws = counter_draws(derive_key(key, STREAM_VALUE, slot), view.trials)
        slot_symbols = chosen[:, slot]
        for index, width in enumerate(view.widths):
            rows = np.flatnonzero(slot_symbols == index)
            if rows.size == 0:
                continue
            original = view.read(rows, index)
            # Uniform over the 2^w - 1 values != original: reduce into a
            # range one short and step over the original.
            draw = draws[rows] % np.uint64((1 << width) - 1)
            view.write(rows, index, draw + (draw >= original).astype(np.uint64))


def _check_k(k_symbols: int, code, least: int = 1) -> None:
    symbol_count = len(family_of(code).widths(code))
    if not least <= k_symbols <= symbol_count:
        what = "splitting needs k_symbols" if least > 1 else "k_symbols must be"
        raise ValueError(
            f"{what} in [{least}, {symbol_count}], got {k_symbols}"
        )


def clean_chunk(code, chunk: Chunk, key: int):
    """Encode chunk trials of the data stream (no corruption).

    Returns the clean-codeword batch the corruption streams start from,
    in the family's batch storage (:mod:`repro.orchestrate.family`).
    """
    family = family_of(code)
    trials = _trial_counters(chunk)
    masks = family.data_masks(code)
    data = np.empty((trials.size, len(masks)), dtype=np.uint64)
    for column, mask in enumerate(masks):
        data[:, column] = counter_draws(
            derive_key(key, STREAM_DATA, column), trials
        ) & np.uint64(mask)
    return family.encode_batch(code, data)


def clean_word(code, trial: int, key: int):
    """Trial ``trial`` of the data stream as one clean codeword.

    The scalar twin of :func:`clean_chunk`: the same DATA draws, encoded
    through the code itself (a big int for MUSE, a symbol list for RS).
    """
    family = family_of(code)
    return family.encode_word(
        code,
        [
            trial_seed(derive_key(key, STREAM_DATA, column), trial) & mask
            for column, mask in enumerate(family.data_masks(code))
        ],
    )


def _msed_words(code, chunk: Chunk, key: int, k_symbols: int, replaced: int):
    """Clean chunk words with the first ``replaced`` of each trial's
    ``k`` chosen symbols overwritten; returns ``(words, chosen)``."""
    family = family_of(code)
    trials = _trial_counters(chunk)
    words = clean_chunk(code, chunk, key)
    view = family.batch_view(code, words, trials)
    chosen = _choose_symbols(key, trials, len(view.widths), k_symbols)
    _replace_chosen_symbols(key, chosen[:, :replaced], view)
    return words, chosen


def corruption_chunk(code, chunk: Chunk, key: int, k_symbols: int = 2):
    """Generate chunk trials of the MSED corruption stream.

    Returns the corrupted codeword batch — ``(chunk.size, limbs)``
    uint64 for MUSE, ``(chunk.size, n_symbols)`` uint32 for RS —
    consumable by any decode engine of the code's family.  ``key`` is
    :func:`repro.orchestrate.rng.derive_key` of the run's master seed.
    """
    _check_k(k_symbols, code)
    return _msed_words(code, chunk, key, k_symbols, k_symbols)[0]


def split_chunk(code, chunk: Chunk, key: int, k_symbols: int = 2):
    """Generate chunk trials of the *prefix* corruption stream.

    The importance-splitting front half of :func:`corruption_chunk`:
    the same clean words, the same ``k`` chosen symbols, and the same
    replacement values for the first ``k - 1`` of them — but the last
    chosen symbol is left intact and its index returned instead, so the
    splitting estimator can branch over *every* value it could take.

    Returns ``(words, last_symbols)``: the prefix-corrupted batch and
    the per-trial held-out symbol index (int64).  Because the CHOICE
    and VALUE streams are shared with the full generator, the prefix
    distribution here is exactly the full stream's marginal over
    everything but the final draw.
    """
    _check_k(k_symbols, code, least=2)
    words, chosen = _msed_words(code, chunk, key, k_symbols, k_symbols - 1)
    return words, chosen[:, k_symbols - 1].astype(np.int64)


# ----------------------------------------------------------------------
# Scenario drivers (repro.scenarios)
# ----------------------------------------------------------------------
#
# A registered scenario supplies corrupt_batch/corrupt_word callables
# over symbol views; the generators below bind those views to the code
# family's storage.  The clean words stay on the base key's DATA stream
# — shared across scenarios — while every corruption draw comes from
# the per-scenario stream key, so the scalar and batch paths of one
# scenario are byte-identical and two scenarios never share a
# corruption stream.


def scenario_chunk(scenario, code, chunk: Chunk, key: int, k_symbols: int = 2):
    """Generate chunk trials of ``scenario``'s corruption stream.

    Returns the corrupted batch in the family's storage; the built-in
    ``"msed"`` scenario is the :func:`corruption_chunk` stream
    (identical words, fused-kernel compatible).
    """
    _check_k(k_symbols, code)
    if scenario.corrupt_batch is None:
        return _msed_words(code, chunk, key, k_symbols, k_symbols)[0]
    words = clean_chunk(code, chunk, key)
    view = family_of(code).batch_view(code, words, _trial_counters(chunk))
    scenario.corrupt_batch(
        scenario_stream_key(key, scenario.name), view, k_symbols
    )
    return words


def scenario_word(scenario, code, trial: int, key: int, k_symbols: int = 2):
    """One corrupted word of ``scenario`` — the scalar reference.

    Byte-identical to row ``trial - chunk.start`` of any
    :func:`scenario_chunk` covering ``trial`` (pinned by the scenario
    test matrix).
    """
    if scenario.corrupt_word is None:
        raise ValueError(
            f"scenario {scenario.name!r} has no scalar reference stream "
            f"(its batch stream has no word-at-a-time twin)"
        )
    _check_k(k_symbols, code)
    view, corrupted = family_of(code).word_view(
        code, clean_word(code, trial, key), trial
    )
    scenario.corrupt_word(
        scenario_stream_key(key, scenario.name), view, k_symbols
    )
    return corrupted()


# The historical per-family names: aliases of the one generic body.
muse_clean_chunk = rs_clean_chunk = clean_chunk
muse_clean_word = rs_clean_word = clean_word
muse_corruption_chunk = rs_corruption_chunk = corruption_chunk
muse_split_chunk = rs_split_chunk = split_chunk
muse_scenario_chunk = rs_scenario_chunk = scenario_chunk
muse_scenario_word = rs_scenario_word = scenario_word
