"""Persistent tally checkpoints: a self-healing append-only journal.

The journal records one line per completed :class:`ChunkTask` —
``(group, chunk range, chunk tally, spec fingerprint)`` — under a
header naming the run's stream ``key``.  Per-*chunk* tallies (not just
a folded total per group) are what make resume exact under **any**
batch structure: an adaptive run submits rounds of chunk ranges, a
resumed coordinator replays the same deterministic rounds, and every
chunk the journal already holds is answered from disk while the rest
recompute — the fold is the same integer sums either way, so the
resumed tally (and every adaptive stopping decision derived from it)
is byte-identical to an uninterrupted run.  A chunk plan that
*doesn't* match the journal (different ``chunk_size``) simply misses
and recomputes — still correct, just unsaved work.

Durability model (version 2):

* every line carries a CRC32 of its own payload, and every append is
  fsync'd (:func:`repro.orchestrate.persist.durable_append`) — O(1)
  per record, unlike the version-1 whole-file rewrite;
* appends are not atomic, so a crash (or an injected ``journal``
  chaos fault) can tear the final line — and **only** the final line,
  because the fsync orders everything before it;
* on load, the journal keeps the longest valid prefix of records.  A
  damaged file is **salvaged**, not fatal: the original is quarantined
  as a ``.corrupt`` sidecar, the valid prefix is rewritten atomically,
  and a resumed run re-simulates only the chunks the tear lost
  (:attr:`CheckpointJournal.salvage` reports what happened).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

# CORRUPT_SUFFIX, SalvageReport and spec_fingerprint are shared with
# the result cache and the campaign runner; they stay importable here.
from repro.orchestrate.persist import (
    CORRUPT_SUFFIX,
    SalvageReport,
    decode_crc_line,
    durable_append,
    encode_crc_line,
    quarantine,
    read_crc_lines,
    salvage_crc_prefix,
)
from repro.orchestrate.plan import Chunk
from repro.orchestrate.worker import spec_fingerprint
from repro.reliability.metrics import MsedTally

JOURNAL_VERSION = 2
JOURNAL_NAME = "checkpoint.jsonl"

_TALLY_FIELDS = (
    "trials",
    "detected_no_match",
    "detected_confinement",
    "miscorrected",
    "silent",
)


def _group_key(group: Any) -> str:
    """A stable string key for a task group (JSON round-trippable)."""
    return json.dumps(group, sort_keys=True)


# The CRC'd-line codec lives in :mod:`repro.orchestrate.persist` (it is
# shared with the result cache and the telemetry event log).
_decode_line = decode_crc_line


class CheckpointJournal:
    """All completed chunks of one run, persisted as CRC'd JSON lines.

    In memory: ``(group key, start, size) -> MsedTally``.  On disk: a
    header line plus one appended line per record.  Every
    :meth:`record` is durable (fsync'd) before it returns, so a hard
    kill loses at most the record in flight.

    ``chaos`` (a :class:`repro.distribute.chaos.FaultPlan`) injects the
    ``journal`` fault class: a scheduled append writes a torn line and
    the journal goes silent afterwards, exactly as a crash mid-append
    would leave the file.
    """

    def __init__(self, path: str | Path, key: int, chaos: Any | None = None):
        self.path = Path(path)
        self.key = key
        self.chaos = chaos
        self.salvage: SalvageReport | None = None
        self._entries: dict[tuple[str, int, int], MsedTally] = {}
        self._fingerprints: dict[str, str] = {}
        self._header_written = False
        self._torn = False  # a chaos journal fault fired: play dead

    # -- construction ---------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str | Path,
        key: int,
        resume: bool = False,
        chaos: Any | None = None,
    ) -> "CheckpointJournal":
        """Start (or resume) the journal under ``directory``.

        A fresh run refuses to clobber an existing journal — passing
        ``resume=True`` is the explicit opt-in that loads it instead.
        A resumed journal must match this run's stream ``key`` (seed):
        folding chunks of a different stream would silently corrupt the
        tally.  A damaged journal salvages its valid prefix rather than
        refusing (see the module docstring).  Resuming a directory with
        no journal yet starts empty.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        journal = cls(directory / JOURNAL_NAME, key, chaos=chaos)
        if journal.path.exists():
            if not resume:
                raise FileExistsError(
                    f"{journal.path} already holds a checkpoint journal; "
                    f"pass resume=True (--resume) to continue it, or remove "
                    f"the directory to start over"
                )
            journal._load()
        return journal

    def _load(self) -> None:
        lines = read_crc_lines(self.path)
        header = decode_crc_line(lines[0]) if lines else None
        if header is None or "version" not in header:
            self._refuse_legacy_or_quarantine(lines)
            return
        if header.get("version") != JOURNAL_VERSION:
            raise ValueError(
                f"checkpoint journal {self.path} has version "
                f"{header.get('version')!r}, expected {JOURNAL_VERSION}"
            )
        if header.get("key") != self.key:
            raise ValueError(
                f"checkpoint journal {self.path} belongs to stream key "
                f"{header.get('key')} but this run uses key {self.key} "
                f"(different --seed?); refusing to mix streams"
            )
        self._header_written = True
        self.salvage = salvage_crc_prefix(self.path, lines, self._adopt)

    def _adopt(self, record: dict) -> bool:
        """Fold one decoded record into memory; ``False`` if malformed
        or inconsistent (treated as damage by the loader)."""
        try:
            group_key = record["group"]
            start = record["start"]
            size = record["size"]
            spec = record["spec"]
            counts = record["counts"]
            tally = MsedTally(**{name: counts[name] for name in _TALLY_FIELDS})
        except (KeyError, TypeError):
            return False
        if not isinstance(group_key, str) or not isinstance(spec, str):
            return False
        known = self._fingerprints.get(group_key)
        if known is not None and known != spec:
            return False
        self._fingerprints[group_key] = spec
        self._entries[(group_key, start, size)] = tally
        return True

    def _refuse_legacy_or_quarantine(self, lines: list[bytes]) -> None:
        """First line isn't a valid v2 header: either a legacy v1
        whole-document journal (refuse with the version story) or
        damage so early nothing is salvageable (quarantine, start
        empty)."""
        try:
            legacy = json.loads(b"\n".join(lines))
        except (ValueError, UnicodeDecodeError):
            legacy = None
        if isinstance(legacy, dict) and "version" in legacy:
            raise ValueError(
                f"checkpoint journal {self.path} has version "
                f"{legacy.get('version')!r}, expected {JOURNAL_VERSION}"
            )
        self.salvage = quarantine(
            self.path, [self._header_line().rstrip(b"\n")], len(lines)
        )
        self._header_written = True

    def _header_line(self) -> bytes:
        return encode_crc_line({"version": JOURNAL_VERSION, "key": self.key})

    # -- queries --------------------------------------------------------

    def lookup(
        self, group: Any, chunk: Chunk, fingerprint: str
    ) -> MsedTally | None:
        """The journalled tally for one chunk, or ``None`` (a *copy*:
        callers fold it into mutable accumulators)."""
        group_key = _group_key(group)
        self._check_fingerprint(group_key, fingerprint)
        held = self._entries.get((group_key, chunk.start, chunk.size))
        if held is None:
            return None
        return MsedTally().merge(held)

    def _check_fingerprint(self, group_key: str, fingerprint: str) -> None:
        known = self._fingerprints.get(group_key)
        if known is not None and known != fingerprint:
            raise ValueError(
                f"checkpoint journal {self.path} recorded group {group_key} "
                f"for a different simulator configuration\n"
                f"  journal: {known}\n"
                f"  this run: {fingerprint}\n"
                f"resume with the original settings or start a fresh "
                f"checkpoint directory"
            )

    def __len__(self) -> int:
        return len(self._entries)

    def folded(self) -> dict[str, dict]:
        """Per-group folded totals (+ chunk counts) of everything held —
        what the partial-results report publishes."""
        out: dict[str, dict] = {}
        for (group_key, _start, _size), tally in sorted(self._entries.items()):
            entry = out.setdefault(
                group_key, {"chunks": 0, **dict.fromkeys(_TALLY_FIELDS, 0)}
            )
            entry["chunks"] += 1
            for name in _TALLY_FIELDS:
                entry[name] += getattr(tally, name)
        return out

    # -- updates --------------------------------------------------------

    def record(
        self, group: Any, chunk: Chunk, tally: MsedTally, fingerprint: str
    ) -> None:
        """Journal one completed chunk, durably, before returning."""
        group_key = _group_key(group)
        self._check_fingerprint(group_key, fingerprint)
        self._fingerprints[group_key] = fingerprint
        held = MsedTally().merge(tally)
        self._entries[(group_key, chunk.start, chunk.size)] = held
        if self._torn:
            # A chaos journal fault already "crashed" the journal: the
            # run continues, but disk state stays frozen at the tear.
            return
        line = encode_crc_line(
            {
                "group": group_key,
                "start": chunk.start,
                "size": chunk.size,
                "spec": fingerprint,
                "counts": {
                    name: getattr(held, name) for name in _TALLY_FIELDS
                },
            }
        )
        if self.chaos is not None and self.chaos.should("journal"):
            # Tear this record mid-line — what a crash between write
            # and fsync leaves — and go silent.
            line = line[: max(1, len(line) * 2 // 3)].rstrip(b"\n")
            self._torn = True
        if not self._header_written and not self.path.exists():
            line = self._header_line() + line
        durable_append(self.path, line)
        self._header_written = True

    def flush(self) -> None:
        """Nothing to do — every :meth:`record` is already on disk.
        Kept so a run flushes the journal and the result cache alike
        at its barriers."""
