"""Checksummed append-only JSONL logs: one line codec, one segment claim.

The verdict store (:mod:`repro.verify.store`), the checkpoint journal
(:mod:`repro.verify.journal`) and the heartbeat spool
(:mod:`repro.obs.stream`) all write the same kind of file: one JSON
record per line, each carrying a truncated SHA-256 of its own payload,
appended by exactly one writer that claimed the file with
``O_CREAT|O_EXCL``.  This module is that shared primitive; each log keeps
its own damage policy (the store quarantines, the journal drops lines,
the spool tails from byte offsets).

Line format::

    {"c": "<16 hex>", <payload without its opening brace>

where ``payload = json.dumps(record, sort_keys=True)`` and the checksum
is the first 16 hex digits of SHA-256 over exactly that text.  Every
record key sorts after ``"c"``, so the line is also what
``json.dumps(record | {"c": checksum}, sort_keys=True)`` prints -- the
format every log has used since it was introduced.  :func:`decode`
verifies the checksum over the raw payload bytes of the line, so a
reader never re-serializes a record, and it accepts only the exact bytes
a writer produces: a re-spaced or re-ordered line fails the checksum.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import IO, Optional, Tuple

_PREFIX = '{"c": "'
#: Offset of the payload text after the checksum: ``{"c": "<16 hex>", ``.
_BODY = len(_PREFIX) + 16 + len('", ')


def _line_checksum(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def encode(record: dict) -> str:
    """One checksummed line for ``record`` (no trailing newline).

    Refuses a record whose keys do not all sort after ``"c"`` (or that
    has none): the checksum field must come first for the line to be
    verifiable without re-encoding.
    """
    if not record or not all(
        isinstance(key, str) and key > "c" for key in record
    ):
        raise ValueError(
            "log record keys must all sort after 'c': "
            f"{sorted(map(str, record))}"
        )
    payload = json.dumps(record, sort_keys=True)
    return f'{_PREFIX}{_line_checksum(payload)}", {payload[1:]}'


def decode(line: str) -> Optional[dict]:
    """The record of one complete line, or None when it fails integrity
    (wrong prefix, checksum mismatch, torn or unparsable payload)."""
    if not line.startswith(_PREFIX) or line[_BODY - 3 : _BODY] != '", ':
        return None
    payload = "{" + line[_BODY:]
    if line[len(_PREFIX) : _BODY - 3] != _line_checksum(payload):
        return None
    try:
        return json.loads(payload)
    except ValueError:
        return None


def append(fh: IO[str], record: dict) -> None:
    """Write one record line to ``fh`` and flush it."""
    fh.write(encode(record) + "\n")
    fh.flush()


def claim(
    prefix: str, suffix: str = "", start: int = 0
) -> Tuple[IO[str], int]:
    """Exclusively create the first free ``f"{prefix}{n}{suffix}"`` for
    ``n >= start``; returns the open text handle and ``n``.

    ``O_CREAT|O_EXCL`` makes the claim atomic, so any number of processes
    can claim files in one directory without locking and no two ever
    share one.
    """
    for seq in range(start, start + 10_000):
        try:
            fd = os.open(
                f"{prefix}{seq}{suffix}",
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                0o644,
            )
        except FileExistsError:
            continue
        return os.fdopen(fd, "w", encoding="utf-8"), seq
    raise OSError(f"no free log file slot for {prefix}<n>{suffix}")
