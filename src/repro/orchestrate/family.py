"""The code-family contract: how each code family stores a codeword.

The Monte-Carlo layers — corruption streams, simulators, the
importance-splitting estimator and their worker specs — are written
once, over this contract; :func:`family_of` picks the instance for a
code.  Two families exist:

* :data:`MUSE` — a codeword is a big int, batched as ``(B, limbs)``
  uint64 limb rows; symbols are bit sets of the code's
  :class:`~repro.core.symbols.SymbolLayout`;
* :data:`RS` — a codeword is a list of symbols, batched as
  ``(B, n_symbols)`` uint32 arrays; symbol ``i`` is column ``i``.

A family supplies the DATA columns of the clean stream and their
encoder, the symbol widths, editable symbol views of a batch or word
(:class:`~repro.scenarios.BatchSymbolView` /
:class:`~repro.scenarios.WordSymbolView`), the decode engine under the
family's decode policy, and the signature two codes must share to
tally identically.  Nothing above this module branches on the family.
"""

from __future__ import annotations

import numpy as np

from repro.core.codec import MuseCode
from repro.engine import get_engine
from repro.engine.limbs import LIMB_BITS, limb_count
from repro.engine.numpy_backend import extract_symbol_batch, insert_symbol_batch
from repro.rs.engine import get_rs_engine
from repro.rs.reed_solomon import RSCode
from repro.scenarios import BatchSymbolView, WordSymbolView

__all__ = ["CodeFamily", "MUSE", "RS", "family_of"]


class CodeFamily:
    """One code family's codeword storage, encoder and decode policy.

    ``name`` is the short family name; ``policy`` names the runner
    field holding the family's decode policy.  Every method takes the
    code first:

    * ``widths(code)`` — the bit width of every symbol, in symbol order;
    * ``data_masks(code)`` — one mask per DATA-stream column of the
      clean data word;
    * ``encode_batch(code, data)`` / ``encode_word(code, columns)`` —
      encode masked DATA draws, given as a ``(B, columns)`` uint64
      batch or as one word's column list;
    * ``batch_view(code, words, trials=None)`` — a batch as an editable
      :class:`~repro.scenarios.BatchSymbolView` (writes land in place);
    * ``word_view(code, word, trial)`` — one word as a
      :class:`~repro.scenarios.WordSymbolView`, plus a getter returning
      the edited word;
    * ``engine(code, backend, policy)`` — the decode engine under the
      decode policy ``policy``;
    * ``signature(code)`` — what must match for two codes to tally
      identically.
    """

    name: str
    policy: str


class _MuseFamily(CodeFamily):
    name = "muse"
    policy = "ripple_check"

    def widths(self, code):
        return tuple(len(symbol) for symbol in code.layout.symbols)

    def data_masks(self, code):
        mask = (1 << code.k) - 1
        return tuple(
            (mask >> (LIMB_BITS * limb)) & ((1 << LIMB_BITS) - 1)
            for limb in range(limb_count(code.n))
        )

    def encode_batch(self, code, data):
        return get_engine(code, "numpy").encode_limbs(data)

    def encode_word(self, code, columns):
        return code.encode(
            sum(limb << (LIMB_BITS * index) for index, limb in enumerate(columns))
        )

    def batch_view(self, code, words, trials=None):
        layout = code.layout
        return BatchSymbolView(
            trials=trials,
            widths=self.widths(code),
            read=lambda rows, index: extract_symbol_batch(
                words[rows], layout, index
            ),
            write=lambda rows, index, values: insert_symbol_batch(
                words, layout, index, values, rows
            ),
        )

    def word_view(self, code, word, trial):
        layout = code.layout
        state = [word]
        view = WordSymbolView(
            trial=trial,
            widths=self.widths(code),
            get=lambda index: layout.extract_symbol(state[0], index),
            put=lambda index, value: state.__setitem__(
                0, layout.insert_symbol(state[0], index, int(value))
            ),
        )
        return view, lambda: state[0]

    def engine(self, code, backend, policy):
        return get_engine(code, backend, ripple_check=policy)

    def signature(self, code):
        return (code.n, code.m, code.layout.symbols)


class _RsFamily(CodeFamily):
    name = "rs"
    policy = "device_bits"

    def widths(self, code):
        return tuple(code.symbol_widths)

    def data_masks(self, code):
        return tuple(
            (1 << width) - 1 for width in code.symbol_widths[: code.data_symbols]
        )

    def encode_batch(self, code, data):
        return get_rs_engine(code, "numpy").encode_arrays(data.astype(np.uint32))

    def encode_word(self, code, columns):
        return list(code.encode(columns))

    def batch_view(self, code, words, trials=None):
        def write(rows, index, values):
            words[rows, index] = values.astype(np.uint32)

        return BatchSymbolView(
            trials=trials,
            widths=self.widths(code),
            read=lambda rows, index: words[rows, index].astype(np.uint64),
            write=write,
        )

    def word_view(self, code, word, trial):
        word = list(word)
        view = WordSymbolView(
            trial=trial,
            widths=self.widths(code),
            get=word.__getitem__,
            put=lambda index, value: word.__setitem__(index, int(value)),
        )
        return view, lambda: word

    def engine(self, code, backend, policy):
        return get_rs_engine(code, backend, device_bits=policy)

    def signature(self, code):
        return (code.symbol_bits, code.data_symbols, code.partial_bits)


MUSE = _MuseFamily()
RS = _RsFamily()


def family_of(code) -> CodeFamily:
    """The family storing ``code``'s codewords."""
    if isinstance(code, MuseCode):
        return MUSE
    if isinstance(code, RSCode):
        return RS
    raise TypeError(f"no code family for {type(code).__name__} codes")
