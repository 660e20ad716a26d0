"""Crash-safe file writes: temp file + atomic rename.

A sweep summary or a checkpoint journal is only useful if it can never
be observed half-written: a reader (or a resumed run) that loads a
truncated JSON would crash — or worse, silently resume from garbage.
POSIX gives the needed primitive for free: ``os.replace`` atomically
swaps a fully-written sibling temp file into place, so any concurrent
or subsequent reader sees either the old complete file or the new
complete file, never a prefix.

The temp file lives in the *same directory* as the target (rename is
only atomic within a filesystem) and is fsync'd before the swap, so a
crash between write and rename leaves the target untouched.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Quarantine suffix for a damaged append-only file (it sits next to
#: the healed rewrite so the evidence survives for post-mortems).
CORRUPT_SUFFIX = ".corrupt"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` so readers never see a partial file."""
    path = Path(path)
    fd, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        # The target is untouched; don't leave the temp file behind.
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def atomic_write_json(path: str | Path, payload: Any, indent: int = 2) -> None:
    """Serialise ``payload`` first, then atomically write it.

    Serialising before opening anything means even a non-JSON-able
    payload can never disturb an existing file at ``path``.
    """
    text = json.dumps(payload, indent=indent) + "\n"
    atomic_write_text(path, text)


def encode_crc_line(record: dict) -> bytes:
    """One append-only line: ``record`` plus a CRC32 of its canonical form.

    The CRC is computed over the compact, key-sorted JSON encoding of
    the record *without* the ``crc`` field, then stored alongside it —
    so :func:`decode_crc_line` can re-canonicalise and verify without
    caring about field order or whitespace on disk.
    """
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode())
    return (
        json.dumps(
            {**record, "crc": crc}, sort_keys=True, separators=(",", ":")
        ).encode()
        + b"\n"
    )


def decode_crc_line(line: bytes) -> dict | None:
    """Parse + CRC-verify one line; ``None`` if torn or corrupt."""
    try:
        record = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or "crc" not in record:
        return None
    crc = record.pop("crc")
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(body.encode()) != crc:
        return None
    return record


def durable_append(path: str | Path, data: bytes) -> None:
    """Append ``data`` to ``path`` and fsync before returning.

    Appends are **not** atomic the way :func:`atomic_write_text` is: a
    crash mid-append can leave a torn tail.  Callers must therefore be
    able to recognise and discard a damaged suffix on load — the
    checkpoint journal does this with per-record CRCs
    (:mod:`repro.distribute.checkpoint`).  What the fsync buys is
    ordering: once this returns, every *previous* record is on disk,
    so at most the final in-flight record can ever be torn.
    """
    with open(path, "ab") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


@dataclass(frozen=True)
class SalvageReport:
    """What healing a damaged append-only file kept and dropped."""

    records_kept: int
    lines_dropped: int
    corrupt_path: Path


def read_crc_lines(path: str | Path) -> list[bytes]:
    """The lines of a CRC'd append-only file.

    A well-formed final newline ends the last line instead of starting
    an empty one; interior blank lines stay, so they count as damage.
    """
    lines = Path(path).read_bytes().split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    return lines


def salvage_crc_prefix(
    path: str | Path, lines: list[bytes], adopt: Callable[[dict], bool]
) -> SalvageReport | None:
    """Adopt the valid record prefix of a CRC'd file, healing the rest.

    ``lines[0]`` is the file's header, already validated by the caller.
    Every later line is CRC-checked and handed to ``adopt`` in order;
    the first one that is torn, corrupt, or refused (``adopt`` returns
    ``False``) ends the prefix.  If that drops anything, the file is
    healed by :func:`quarantine` before anything can be appended after
    the damage.  Returns ``None`` when the file was intact.
    """
    kept = 1
    for line in lines[1:]:
        record = decode_crc_line(line)
        if record is None or not adopt(record):
            break
        kept += 1
    if kept == len(lines):
        return None
    return quarantine(path, lines[:kept], dropped=len(lines) - kept)


def quarantine(
    path: str | Path, keep: list[bytes], dropped: int
) -> SalvageReport:
    """Move a damaged file aside as a ``.corrupt`` sidecar and
    atomically rewrite ``keep`` (its header, then its valid records) in
    its place, so later appends land on a well-formed file."""
    path = Path(path)
    corrupt_path = path.with_name(path.name + CORRUPT_SUFFIX)
    os.replace(path, corrupt_path)
    atomic_write_text(path, b"".join(line + b"\n" for line in keep).decode())
    return SalvageReport(
        records_kept=len(keep) - 1,
        lines_dropped=dropped,
        corrupt_path=corrupt_path,
    )
