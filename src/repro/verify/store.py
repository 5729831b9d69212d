"""Persistent content-addressed verdict store: cross-run, cross-worker reuse.

The Definition-2 contract check is the hot path of every sweep, fuzz and
chaos run, and its verdicts are pure functions of program *content*: an
SC-membership judgment depends only on (program, result), a DRF0 verdict
only on (program, mode), a hardware run summary only on (program, policy,
config, seed).  The in-memory caches (:mod:`repro.verify.cache`) already
exploit that within one process; this module makes the verdict universe
survive the process.

On-disk layout (one directory, the CLI's ``--cache-dir``)::

    <cache_dir>/
        seg-<pid>-<n>.jsonl     append-only segments, one per writer
        quarantine/             segments that failed integrity checks

Each segment is JSONL.  Line 1 is a header naming the store format and the
**semantics version** -- a stamp over the oracle semantics (bump
:data:`SEMANTICS_VERSION` whenever the SC enumerator, the DRF0 checker, or
the hardware simulator changes observable behavior); a segment written
under a different semantics version is *stale* and silently skipped, so a
semantics change means a cold start, never a wrong warm verdict.  Every
subsequent line is one record -- an SC verdict, a DRF0 verdict, a run
summary, a cost observation, or a serialized program (kept so ``repro
cache audit`` can re-judge stored verdicts offline) -- in the checksummed
line format of :mod:`repro.log`, shared with the checkpoint journal and
the heartbeat spool.

Integrity discipline (matching ``verify/cache.py`` / ``verify/journal.py``):

* a checksum-failing or unparsable **tail** line is a torn write (the
  writer was killed mid-append): dropped and counted, the segment stays;
* a bad line **before** the tail is real corruption: the surviving records
  are salvaged for this load, and the segment file is moved to
  ``quarantine/`` so the damage is never trusted again;
* a segment whose header is missing or unreadable is quarantined whole --
  without a trusted semantics stamp none of its verdicts are safe.

Concurrency: every writer appends to its **own** ``O_CREAT|O_EXCL``
segment, so any number of processes may flush into one cache directory
with no locking; readers see each record exactly once because loading
deduplicates by content key.  :meth:`VerdictStore.compact` folds all
live segments (and drops stale/duplicate records) into a single fresh
segment -- run it from the ``repro cache compact`` subcommand, not while
a sweep is writing.

Cost records make the store a scheduler input as well as a memo: each
flush of a sweep cell records the observed wall time, run count and
explored-state count under a ``(program fingerprint, policy)`` cell key,
and the engine sorts the next sweep's dispatch longest-expected-first
with finer chunking for expensive cells (tail-latency control on skewed
grids).  Costs are advisory -- they never change any output, only the
order work is issued in.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import log
from repro.core.contract import is_sc_result
from repro.core.execution import Result
from repro.core.types import Condition
from repro.machine import isa
from repro.machine.program import Program, ThreadCode
from repro.verify.cache import program_fingerprint
from repro.verify.journal import decode_result, encode_result

#: Bump when any oracle the stored verdicts depend on changes observable
#: behavior: the guided SC-membership search, the DRF0 checkers, the
#: hardware simulator, or the Result encoding.  A mismatch is a cold
#: start -- stale segments are skipped, never reinterpreted.
#: ``d2-oracle-2``: the directory sends invalidations in sorted sharer
#: order, so stored run summaries no longer depend on the hash seed.
SEMANTICS_VERSION = "d2-oracle-2"

#: On-disk segment layout version (header schema + record schemas).
#: Format 2 keys run summaries ``<run cell key>:<seed>`` (see
#: :func:`run_cell_key`); format-1 segments are stale.
STORE_FORMAT = 2

_SEGMENT_PREFIX = "seg-"
_QUARANTINE_DIR = "quarantine"


class StoreError(RuntimeError):
    """The store directory cannot be used (not a directory, unwritable)."""


# ----------------------------------------------------------------------
# Program serialization (for offline audit)
# ----------------------------------------------------------------------


def encode_instruction(instr: isa.Instruction) -> list:
    """JSON-safe [class name, field dict] form of one instruction."""
    fields = {}
    for f in dataclasses.fields(instr):
        value = getattr(instr, f.name)
        if isinstance(value, enum.Enum):
            value = ["__enum__", type(value).__name__, value.name]
        fields[f.name] = value
    return [type(instr).__name__, fields]


def decode_instruction(data: list) -> isa.Instruction:
    name, fields = data
    cls = getattr(isa, name, None)
    if cls is None or not (
        isinstance(cls, type) and issubclass(cls, isa.Instruction)
    ):
        raise ValueError(f"unknown instruction class {name!r}")
    decoded = {}
    for key, value in fields.items():
        if isinstance(value, list) and value and value[0] == "__enum__":
            _, enum_name, member = value
            if enum_name != "Condition":
                raise ValueError(f"unknown enum {enum_name!r}")
            value = Condition[member]
        decoded[key] = value
    return cls(**decoded)


def encode_program(program: Program) -> dict:
    """Content-complete JSON form of a program (display name excluded,
    exactly like :func:`program_fingerprint`)."""
    return {
        "threads": [
            {
                "instrs": [
                    encode_instruction(i) for i in code.instructions
                ],
                "labels": sorted(code.labels.items()),
            }
            for code in program.threads
        ],
        "mem": sorted(program.initial_memory.items()),
    }


def decode_program(data: dict, name: str = "stored-program") -> Program:
    threads = tuple(
        ThreadCode(
            tuple(decode_instruction(i) for i in thread["instrs"]),
            {label: index for label, index in thread["labels"]},
        )
        for thread in data["threads"]
    )
    memory = {loc: value for loc, value in data["mem"]}
    return Program(threads, memory, name)


# ----------------------------------------------------------------------
# Content keys
# ----------------------------------------------------------------------


def run_cell_key(
    fingerprint: str, policy_name: str, config: object, check_51: bool
) -> str:
    """Content key shared by every hardware run of one sweep cell.

    A run is a pure function of (program, policy, config, seed, and
    ``check_51``, which adds condition-violation strings to the summary).
    Hashing the config with its seed set to 0 leaves the seed out, so a
    sweep hashes once per cell and keys each run ``f"{cell}:{seed}"``
    (:func:`run_key`).  ``config`` is a
    :class:`~repro.sim.system.SystemConfig`.
    """
    identity = (
        fingerprint, policy_name, repr(config.with_seed(0)), bool(check_51)
    )
    return hashlib.sha256(repr(identity).encode()).hexdigest()[:40]


def run_key(cell: str, seed: int) -> str:
    """Content key of one hardware run summary: its cell's
    :func:`run_cell_key` and the seed."""
    return f"{cell}:{seed}"


def cell_key(fingerprint: str, policy_name: str) -> str:
    """Cost-record key for one (program, policy) sweep cell."""
    return f"{fingerprint[:40]}:{policy_name}"


def drf0_mode_to_json(mode: object) -> object:
    """The DRF0 cache's mode token -> JSON ("exhaustive" | ["sampled", [...]])."""
    if mode == "exhaustive":
        return "exhaustive"
    tag, seeds = mode
    return [tag, list(seeds)]


def drf0_mode_from_json(data: object) -> object:
    if data == "exhaustive":
        return "exhaustive"
    tag, seeds = data
    if tag != "sampled":
        raise ValueError(f"unknown drf0 mode {tag!r}")
    return (tag, tuple(int(s) for s in seeds))


# ----------------------------------------------------------------------
# Loaded state + counters
# ----------------------------------------------------------------------


@dataclass
class CellCost:
    """Accumulated observed cost of one (program, policy) sweep cell."""

    runs: int = 0
    wall_us: int = 0
    states: int = 0

    @property
    def us_per_run(self) -> float:
        """Expected wall microseconds per hardware seed (the scheduling
        signal; 0.0 when the cell has never been observed)."""
        return self.wall_us / self.runs if self.runs else 0.0


@dataclass
class StoreStats:
    """Counters for one store's lifetime in this process.

    Load-side counters describe what was found on disk; flush-side
    counters describe what this process added.  ``runs_reused`` is
    bumped by the engine each time a sweep position is filled from a
    stored run summary instead of a hardware run.
    """

    segments_loaded: int = 0
    stale_segments: int = 0
    quarantined_segments: int = 0
    dropped_lines: int = 0
    loaded_sc: int = 0
    loaded_drf0: int = 0
    loaded_runs: int = 0
    loaded_costs: int = 0
    loaded_programs: int = 0
    flushed_sc: int = 0
    flushed_drf0: int = 0
    flushed_runs: int = 0
    flushed_costs: int = 0
    flushed_programs: int = 0
    duplicate_flushes_skipped: int = 0
    runs_reused: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }


@dataclass
class StoreState:
    """Everything recovered from a cache directory's live segments."""

    #: (program fingerprint, Result) -> SC verdict.
    sc: Dict[Tuple[str, Result], bool] = field(default_factory=dict)
    #: (program fingerprint, mode token) -> DRF0 verdict.
    drf0: Dict[Tuple[str, object], bool] = field(default_factory=dict)
    #: run_key -> encoded RunSummary dict.
    runs: Dict[str, dict] = field(default_factory=dict)
    #: cell_key -> accumulated cost.
    costs: Dict[str, CellCost] = field(default_factory=dict)
    #: program fingerprint -> decoded Program (for audit).
    programs: Dict[str, Program] = field(default_factory=dict)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class VerdictStore:
    """One cache directory of verdict segments.

    The instance is both a reader (:meth:`load` / :meth:`warm`) and an
    appending writer (the ``record_*`` methods, which lazily create this
    process's own segment).  All ``record_*`` calls deduplicate against
    the loaded state, so re-flushing a warm cache writes nothing.
    """

    def __init__(
        self, cache_dir: str, semantics: str = SEMANTICS_VERSION
    ) -> None:
        self.cache_dir = cache_dir
        self.semantics = semantics
        self.stats = StoreStats()
        self._state: Optional[StoreState] = None
        self._fh = None
        os.makedirs(cache_dir, exist_ok=True)
        if not os.path.isdir(cache_dir):  # pragma: no cover - race only
            raise StoreError(f"{cache_dir!r} is not a directory")

    # -- loading -----------------------------------------------------------

    def _segment_paths(self) -> List[str]:
        return sorted(
            os.path.join(self.cache_dir, name)
            for name in os.listdir(self.cache_dir)
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(".jsonl")
        )

    def _quarantine(self, path: str) -> None:
        """Move a damaged segment out of the live set (never delete --
        the bytes may matter for forensics)."""
        qdir = os.path.join(self.cache_dir, _QUARANTINE_DIR)
        os.makedirs(qdir, exist_ok=True)
        base = os.path.basename(path)
        target = os.path.join(qdir, base)
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = os.path.join(qdir, f"{base}.{suffix}")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - unwritable dir: drop in place
            pass
        self.stats.quarantined_segments += 1

    def _absorb(self, record: dict, state: StoreState) -> None:
        """Fold one body record into ``state`` (raises on schema drift --
        the caller treats that as a corrupt line)."""
        kind = record["kind"]
        if kind == "sc":
            key = (record["fp"], decode_result(record["result"]))
            if key not in state.sc:
                self.stats.loaded_sc += 1
            state.sc[key] = bool(record["v"])
        elif kind == "drf0":
            key = (record["fp"], drf0_mode_from_json(record["mode"]))
            if key not in state.drf0:
                self.stats.loaded_drf0 += 1
            state.drf0[key] = bool(record["v"])
        elif kind == "run":
            if record["k"] not in state.runs:
                self.stats.loaded_runs += 1
            state.runs[record["k"]] = record["s"]
        elif kind == "cost":
            cost = state.costs.setdefault(record["cell"], CellCost())
            cost.runs += int(record["n"])
            cost.wall_us += int(record["us"])
            cost.states += int(record["st"])
            self.stats.loaded_costs += 1
        elif kind == "prog":
            if record["fp"] not in state.programs:
                state.programs[record["fp"]] = decode_program(
                    record["p"], name=f"stored-{record['fp'][:12]}"
                )
                self.stats.loaded_programs += 1
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    def load(self) -> StoreState:
        """Parse every live segment into a fresh :class:`StoreState`.

        Tolerant by design: torn tails are dropped, damaged segments are
        salvaged then quarantined, stale-semantics segments are skipped.
        An empty or missing directory is simply an empty state.
        """
        state = StoreState()
        for path in self._segment_paths():
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    lines = [ln for ln in fh.read().splitlines() if ln.strip()]
            except OSError:
                self._quarantine(path)
                continue
            if not lines:
                continue  # freshly created by a concurrent writer
            header = log.decode(lines[0])
            if (
                header is None
                or header.get("kind") != "meta"
                or "semantics" not in header
            ):
                self._quarantine(path)
                continue
            if (
                header["semantics"] != self.semantics
                or header.get("format") != STORE_FORMAT
            ):
                self.stats.stale_segments += 1
                continue
            damaged = False
            for index, line in enumerate(lines[1:], start=1):
                record = log.decode(line)
                if record is not None:
                    try:
                        self._absorb(record, state)
                        continue
                    except (ValueError, KeyError, TypeError):
                        pass  # well-checksummed but unusable: corruption
                self.stats.dropped_lines += 1
                if index != len(lines) - 1:
                    damaged = True  # corruption before the tail
            if damaged:
                self._quarantine(path)
            self.stats.segments_loaded += 1
        self._state = state
        return state

    def warm(self) -> StoreState:
        """The loaded state, loading on first call."""
        if self._state is None:
            self.load()
        assert self._state is not None
        return self._state

    # -- writing -----------------------------------------------------------

    def _open_segment(self):
        if self._fh is None:
            self._fh, _ = log.claim(
                os.path.join(
                    self.cache_dir, f"{_SEGMENT_PREFIX}{os.getpid()}-"
                ),
                ".jsonl",
            )
            log.append(
                self._fh,
                {
                    "kind": "meta",
                    "format": STORE_FORMAT,
                    "semantics": self.semantics,
                },
            )
        return self._fh

    def _append(self, record: dict) -> None:
        log.append(self._open_segment(), record)

    def record_sc(
        self,
        fingerprint: str,
        result: Result,
        verdict: bool,
        program: Optional[Program] = None,
    ) -> None:
        """Persist one SC-membership verdict (and, once per fingerprint,
        the program body so the entry stays auditable offline)."""
        state = self.warm()
        if program is not None:
            self.record_program(fingerprint, program)
        if state.sc.get((fingerprint, result)) == bool(verdict):
            self.stats.duplicate_flushes_skipped += 1
            return
        state.sc[(fingerprint, result)] = bool(verdict)
        self._append(
            {
                "kind": "sc",
                "fp": fingerprint,
                "result": encode_result(result),
                "v": bool(verdict),
            }
        )
        self.stats.flushed_sc += 1

    def record_drf0(
        self,
        fingerprint: str,
        mode: object,
        verdict: bool,
        program: Optional[Program] = None,
    ) -> None:
        """Persist one DRF0 verdict under the cache's mode token."""
        state = self.warm()
        if program is not None:
            self.record_program(fingerprint, program)
        if state.drf0.get((fingerprint, mode)) == bool(verdict):
            self.stats.duplicate_flushes_skipped += 1
            return
        state.drf0[(fingerprint, mode)] = bool(verdict)
        self._append(
            {
                "kind": "drf0",
                "fp": fingerprint,
                "mode": drf0_mode_to_json(mode),
                "v": bool(verdict),
            }
        )
        self.stats.flushed_drf0 += 1

    def record_run(self, key: str, summary: dict) -> None:
        """Persist one encoded hardware-run summary under its content key."""
        state = self.warm()
        if key in state.runs:
            self.stats.duplicate_flushes_skipped += 1
            return
        state.runs[key] = summary
        self._append({"kind": "run", "k": key, "s": summary})
        self.stats.flushed_runs += 1

    def record_cost(
        self, cell: str, runs: int, wall_us: int, states: int = 0
    ) -> None:
        """Append one cost observation for a sweep cell (accumulative --
        records merge by summation at load time)."""
        if runs <= 0 and wall_us <= 0 and states <= 0:
            return
        state = self.warm()
        cost = state.costs.setdefault(cell, CellCost())
        cost.runs += runs
        cost.wall_us += wall_us
        cost.states += states
        self._append(
            {
                "kind": "cost",
                "cell": cell,
                "n": int(runs),
                "us": int(wall_us),
                "st": int(states),
            }
        )
        self.stats.flushed_costs += 1

    def record_program(self, fingerprint: str, program: Program) -> None:
        """Persist a program body once per fingerprint (audit support)."""
        state = self.warm()
        if fingerprint in state.programs:
            return
        state.programs[fingerprint] = program
        self._append(
            {"kind": "prog", "fp": fingerprint, "p": encode_program(program)}
        )
        self.stats.flushed_programs += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- maintenance -------------------------------------------------------

    def compact(self) -> Tuple[int, int]:
        """Fold all live segments into one; returns (segments_before,
        records_after).  Stale-semantics and duplicate records are
        dropped; quarantined files are untouched.  Not safe to run
        concurrently with writers (CLI maintenance, not a sweep path).
        """
        self.close()
        old_paths = self._segment_paths()
        live = self.load()  # re-read from disk; also re-quarantines
        old_paths = [p for p in old_paths if os.path.exists(p)]
        # Re-record the live state through the ordinary writers, which
        # deduplicate against an emptied state: one record per entry.
        self._state = StoreState()
        self._open_segment()
        for fingerprint, program in live.programs.items():
            self.record_program(fingerprint, program)
        for (fingerprint, result), verdict in live.sc.items():
            self.record_sc(fingerprint, result, verdict)
        for (fingerprint, mode), verdict in live.drf0.items():
            self.record_drf0(fingerprint, mode, verdict)
        for key, summary in live.runs.items():
            self.record_run(key, summary)
        for cell, cost in live.costs.items():
            self.record_cost(cell, cost.runs, cost.wall_us, cost.states)
        records = (
            len(live.programs) + len(live.sc) + len(live.drf0)
            + len(live.runs) + len(live.costs)
        )
        self.close()
        for path in old_paths:
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - concurrent removal
                pass
        return len(old_paths), records

    def audit(
        self,
        sample: Optional[int] = None,
        oracle: Callable[[Program, Result], bool] = is_sc_result,
    ) -> "AuditReport":
        """Re-judge stored verdicts against the live oracle.

        SC entries are re-derived with ``oracle``; DRF0 entries with the
        exhaustive/sampled Definition-3 checkers.  Entries whose program
        body is missing (an older segment, a quarantined ``prog`` line)
        are counted unauditable, not failed.  ``sample`` bounds the total
        number of entries re-judged, chosen deterministically (evenly
        strided over the sorted key space) so repeated audits check the
        same entries.
        """
        from repro.core.drf0 import check_program, check_program_sampled

        state = self.warm()
        report = AuditReport()

        sc_keys = sorted(
            state.sc, key=lambda k: (k[0], repr(k[1]))
        )
        drf0_keys = sorted(
            state.drf0, key=lambda k: (k[0], repr(k[1]))
        )
        if sample is not None and sample >= 0:
            sc_budget = min(len(sc_keys), sample)
            drf0_budget = min(len(drf0_keys), max(0, sample - sc_budget))
            sc_keys = _stride_sample(sc_keys, sc_budget)
            drf0_keys = _stride_sample(drf0_keys, drf0_budget)

        for fingerprint, result in sc_keys:
            program = state.programs.get(fingerprint)
            if program is None:
                report.unauditable += 1
                continue
            report.checked += 1
            if oracle(program, result) != state.sc[(fingerprint, result)]:
                report.disagreements.append(
                    f"sc {fingerprint[:12]}.../{result}"
                )
        for fingerprint, mode in drf0_keys:
            program = state.programs.get(fingerprint)
            if program is None:
                report.unauditable += 1
                continue
            report.checked += 1
            if mode == "exhaustive":
                fresh = check_program(program).obeys
            else:
                fresh = check_program_sampled(program, seeds=mode[1]).obeys
            if fresh != state.drf0[(fingerprint, mode)]:
                report.disagreements.append(
                    f"drf0 {fingerprint[:12]}.../{mode}"
                )
        return report

    def summary(self) -> Dict[str, object]:
        """Stats for ``repro cache stats`` (loads if not yet loaded)."""
        state = self.warm()
        paths = self._segment_paths()
        return {
            "cache_dir": self.cache_dir,
            "semantics": self.semantics,
            "format": STORE_FORMAT,
            "segments": len(paths),
            "bytes": sum(os.path.getsize(p) for p in paths),
            "sc_verdicts": len(state.sc),
            "drf0_verdicts": len(state.drf0),
            "run_summaries": len(state.runs),
            "cost_cells": len(state.costs),
            "programs": len(state.programs),
            "stale_segments": self.stats.stale_segments,
            "quarantined_segments": self.stats.quarantined_segments,
            "dropped_lines": self.stats.dropped_lines,
        }


def _stride_sample(keys: list, budget: int) -> list:
    """Deterministic evenly-strided sample of ``budget`` keys."""
    if budget <= 0:
        return []
    if budget >= len(keys):
        return keys
    stride = len(keys) / budget
    return [keys[int(i * stride)] for i in range(budget)]


@dataclass
class AuditReport:
    """Outcome of :meth:`VerdictStore.audit`."""

    checked: int = 0
    unauditable: int = 0
    disagreements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def store_program_fingerprint(program: Program) -> str:
    """Re-export of :func:`repro.verify.cache.program_fingerprint` (the
    store and the caches must always key by the same hash)."""
    return program_fingerprint(program)
