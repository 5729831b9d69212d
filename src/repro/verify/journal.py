"""Checkpoint journal: crash-tolerant resume for interrupted sweeps.

A Definition-2 sweep is a pure function of its inputs, so any prefix of
its work can be replayed from a log instead of recomputed.  The journal
is an append-only JSONL file:

* line 1 is a ``meta`` record carrying a **signature** -- a content hash
  of everything the sweep's output depends on (program fingerprints,
  policy names, the hardware config, the seed lists, the DRF0 mode).
  ``jobs`` is deliberately excluded: a sweep journaled under ``--jobs 4``
  resumes correctly under ``--jobs 1`` because the engine's output is
  independent of parallelism;
* each subsequent line records one completed unit of work -- a hardware
  run (keyed by *cell index* and *seed position*, so duplicate seed
  values cannot collide), a DRF0 program verdict, or an SC-membership
  judgment -- and is flushed as soon as the unit completes.

Every line carries a truncated SHA-256 checksum of its own payload, in
the line format of :mod:`repro.log` (shared with the verdict store and
the heartbeat spool).  A process killed mid-write leaves a partial last
line; loading is **tolerant**: unparsable or checksum-failing lines are
dropped (counted), never fatal, so a resumed sweep recomputes exactly the
units that did not make it to disk.  A journal whose signature does not
match the requested sweep is refused -- resuming someone else's
checkpoint would splice wrong results into the output.

Continuation segments: a resuming writer never appends to the base file.
A SIGKILLed predecessor usually leaves a torn final line, and ``open(...,
"a")`` would weld the first new record onto that partial line --
corrupting *both* records (the torn one was already unrecoverable; the
new one is collateral).  Instead each writer that continues an existing
journal claims a fresh ``<path>.seg-N`` sibling with ``O_CREAT|O_EXCL``
(so two daemons resuming the same campaign can never interleave writes
in one file) and appends there; :meth:`CheckpointJournal.load` merges the
base file and every segment in claim order.  Segment records win over
base records for the same unit key -- they are strictly newer -- though
for a pure sweep both carry identical values anyway.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, IO, List, Optional, Sequence, Tuple

from repro import log
from repro.core.execution import Result
from repro.obs.tracer import OBS_CLOCK, now_us


class JournalError(RuntimeError):
    """The journal cannot be used for this sweep (missing / mismatched)."""


def segment_paths(path: str) -> List[str]:
    """Existing ``<path>.seg-N`` continuation segments, in claim order."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    prefix = os.path.basename(path) + ".seg-"
    found: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        if not name.startswith(prefix):
            continue
        suffix = name[len(prefix):]
        if suffix.isdigit():
            found.append((int(suffix), os.path.join(directory, name)))
    return [p for _, p in sorted(found)]


def journal_files(path: str) -> List[str]:
    """Every file belonging to the journal at ``path`` (base + segments),
    existing ones only -- the unit retention GC deletes exactly these."""
    files = [path] if os.path.exists(path) else []
    files.extend(segment_paths(path))
    return files


def encode_result(result: Result) -> dict:
    return {
        "reads": [list(reads) for reads in result.reads],
        "mem": [list(pair) for pair in result.final_memory],
    }


def decode_result(data: dict) -> Result:
    return Result(
        reads=tuple(map(tuple, data["reads"])),
        final_memory=tuple(map(tuple, data["mem"])),
    )


def sweep_signature(
    program_fingerprints: Sequence[str],
    policy_names: Sequence[str],
    config_repr: str,
    seeds: Sequence[int],
    drf0_seeds: Sequence[int],
    exhaustive_drf0: bool,
    check_51_conditions: bool,
) -> str:
    """Content hash of a sweep's output-determining inputs."""
    h = hashlib.sha256()
    h.update(
        repr(
            (
                tuple(program_fingerprints),
                tuple(policy_names),
                config_repr,
                tuple(seeds),
                tuple(drf0_seeds),
                bool(exhaustive_drf0),
                bool(check_51_conditions),
            )
        ).encode()
    )
    return h.hexdigest()


@dataclass
class JournalState:
    """Everything recovered from a journal file."""

    signature: Optional[str] = None
    #: (cell_index, seed_position) -> encoded RunSummary dict.
    runs: Dict[Tuple[int, int], dict] = field(default_factory=dict)
    #: program index -> DRF0 verdict.
    drf0: Dict[int, bool] = field(default_factory=dict)
    #: (program fingerprint, Result) -> SC verdict.
    judgments: Dict[Tuple[str, Result], bool] = field(default_factory=dict)
    #: Lines dropped by the tolerant loader (truncated tail, corruption).
    dropped_lines: int = 0

    @property
    def units(self) -> int:
        """Completed work units recovered."""
        return len(self.runs) + len(self.drf0) + len(self.judgments)


class CheckpointJournal:
    """Append-only JSONL work log for one sweep invocation."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[IO[str]] = None
        self.records_written = 0

    # -- loading -----------------------------------------------------------

    @staticmethod
    def load(path: str) -> JournalState:
        """Tolerantly parse ``path`` and its continuation segments
        (missing file = empty state)."""
        state = JournalState()
        for part in [path] + segment_paths(path):
            if not os.path.exists(part):
                continue
            with open(part, "r", encoding="utf-8") as fh:
                CheckpointJournal._absorb(state, fh)
        return state

    @staticmethod
    def _absorb(state: JournalState, fh: IO[str]) -> None:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = log.decode(line)
                if record is None:
                    raise ValueError("checksum mismatch")
                kind = record["kind"]
                if kind == "meta":
                    state.signature = record["signature"]
                elif kind == "run":
                    state.runs[(record["cell"], record["pos"])] = (
                        record["summary"]
                    )
                elif kind == "drf0":
                    state.drf0[record["index"]] = record["verdict"]
                elif kind == "judge":
                    result = decode_result(record["result"])
                    state.judgments[(record["fp"], result)] = (
                        record["verdict"]
                    )
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except (ValueError, KeyError, TypeError):
                state.dropped_lines += 1

    # -- writing -----------------------------------------------------------

    def open(self, signature: str, fresh: bool = False) -> None:
        """Open for writing; write the meta line when starting fresh.

        Continuing an existing journal claims a new ``.seg-N`` sibling
        (O_CREAT|O_EXCL) instead of appending to the base file -- see the
        module docstring for why appending after a SIGKILL corrupts the
        first new record.
        """
        if fresh:
            for stale in segment_paths(self.path):
                os.unlink(stale)
        write_meta = fresh or not os.path.exists(self.path)
        if write_meta:
            self._fh = open(self.path, "w", encoding="utf-8")
        else:
            self._fh, _ = log.claim(f"{self.path}.seg-", start=1)
        if write_meta:
            # ts_us/clock stamp the journal onto the shared obs timebase
            # (comparable with heartbeat and snapshot timestamps); the
            # loader reads by key, so older journals without them load.
            self._write(
                {
                    "kind": "meta",
                    "signature": signature,
                    "ts_us": now_us(),
                    "clock": OBS_CLOCK,
                }
            )

    def _write(self, record: dict) -> None:
        assert self._fh is not None, "journal not open"
        log.append(self._fh, record)
        self.records_written += 1

    def record_run(self, cell_index: int, pos: int, summary: dict) -> None:
        """Journal one completed hardware run (encoded RunSummary)."""
        self._write(
            {"kind": "run", "cell": cell_index, "pos": pos, "summary": summary}
        )

    def record_drf0(self, index: int, verdict: bool) -> None:
        """Journal one DRF0 program verdict."""
        self._write({"kind": "drf0", "index": index, "verdict": bool(verdict)})

    def record_judgment(
        self, fingerprint: str, result: Result, verdict: bool
    ) -> None:
        """Journal one SC-membership judgment."""
        self._write(
            {
                "kind": "judge",
                "fp": fingerprint,
                "result": encode_result(result),
                "verdict": bool(verdict),
            }
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
