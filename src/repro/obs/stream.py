"""Cross-process metric streaming: the heartbeat spool.

Long campaigns fan work out across forked worker processes, and until
now the parent learned nothing about a worker between task dispatch and
task completion -- a ten-minute ``sweep --jobs 8`` was a black box.
This module is the streaming channel that opens it up:

* each worker (verification-engine pool worker, parallel-exploration
  shard worker, or the parent itself on the serial path) appends
  periodic **heartbeat records** -- monotonic timestamp, current task,
  cumulative work counters, RSS -- to its *own* spool file;
* the parent **tails** every spool incrementally and folds the records
  into live aggregates (:class:`StreamFold`), which the progress engine
  turns into completion %, ETA, and worker-health rows.

The spool is a :mod:`repro.log` file, like the verdict store's segments:
every writer claims ``hb-<pid>-<n>.jsonl`` with ``O_CREAT | O_EXCL`` so
no two processes ever share a file, every line carries a truncated
SHA-256 checksum of its exact payload text, and the reader
tolerates a torn tail (a record cut mid-write by a crash or a racing
read simply stays unread until its newline lands; a checksum-failing
complete line is dropped and counted).  All timestamps are
:func:`repro.obs.tracer.now_us` -- see :data:`~repro.obs.tracer.OBS_CLOCK`.

Activation is campaign-scoped and fork-friendly: the parent publishes
the spool directory in a module global (:func:`publish`) *before* any
fork, so workers inherit it by address-space copy and lazily open their
writer on first beat.  With nothing published, every hook in the hot
paths is a single ``is None`` check -- the disabled-telemetry overhead
the E16 benchmark gates at <= 1%.

Record kinds (one JSON object per line, ``"c"`` = checksum field, first):

* ``meta``  -- spool header: format version, clock id, pid, role;
* ``beat``  -- periodic liveness/throughput sample with *cumulative*
  per-worker counters (latest beat per worker wins in the fold);
* ``task``  -- one completed engine task's counter *deltas*, tagged
  with its dispatch key and generation (crash-resubmit attempt number);
  the fold sums these **exactly once per key** (first generation
  delivered wins), so aggregate hit rates stay truthful when fault
  injection makes the same task complete twice;
* ``stall`` -- a worker-side failure carrying the liveness watchdog's
  stall-cause diagnosis, surfaced in the status snapshot instead of
  only inside an exception.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro import log
from repro.obs.tracer import OBS_CLOCK, now_us

#: Spool format version, stamped into every spool's meta header.
STREAM_FORMAT = 1

#: Default seconds between heartbeat records per worker.
DEFAULT_HEARTBEAT_INTERVAL = 0.25


def rss_kb() -> int:
    """Resident set size of this process in KiB (stdlib-only).

    Reads ``/proc/self/status`` where available, falls back to
    ``resource.getrusage`` peak RSS (already KiB on Linux), and returns
    0 where neither exists -- a heartbeat must never fail over a metric.
    """
    try:
        with open("/proc/self/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return 0


class HeartbeatWriter:
    """One process's append-only, checksummed heartbeat spool.

    The spool file is claimed with ``O_CREAT | O_EXCL`` (lock-free: no
    two writers ever share a file) and opened lazily on the first
    record, so merely *holding* a writer costs nothing.  ``beat`` is
    rate-limited by ``interval`` seconds; ``task_done`` and ``stall``
    always write (they are exactly-once events, not samples).
    """

    def __init__(
        self,
        spool_dir: str,
        role: str = "worker",
        interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ) -> None:
        self.spool_dir = spool_dir
        self.role = role
        self.interval_us = max(0, int(interval * 1e6))
        self.pid = os.getpid()
        self.worker_id = f"{role}-{self.pid}"
        #: Cumulative work counters carried by every beat.
        self.totals: Dict[str, int] = {}
        self.beats_written = 0
        self.records_written = 0
        self._fh = None
        self._last_beat_us = 0
        self._seq = 0

    def _open(self) -> None:
        os.makedirs(self.spool_dir, exist_ok=True)
        # Slots only move forward within a writer's lifetime (never back
        # to a pruned-and-freed number): a reader keys offsets by path,
        # so reusing a deleted slot would leave its new records beyond a
        # stale offset, unread forever.  A taken slot belongs to a
        # previous incarnation of this pid.
        self._fh, seq = log.claim(
            os.path.join(self.spool_dir, f"hb-{self.pid}-"),
            ".jsonl",
            start=self._seq,
        )
        self._seq = seq + 1
        self._emit(
            {
                "kind": "meta",
                "format": STREAM_FORMAT,
                "clock": OBS_CLOCK,
                "ts": now_us(),
                "pid": self.pid,
                "worker": self.worker_id,
                "role": self.role,
            }
        )

    def _emit(self, record: dict) -> None:
        if self._fh is None:
            self._open()
        log.append(self._fh, record)
        self.records_written += 1

    def add(self, **deltas: int) -> None:
        """Accumulate work counters into this worker's cumulative totals."""
        totals = self.totals
        for key, value in deltas.items():
            totals[key] = totals.get(key, 0) + value

    def beat(
        self, task: Optional[str] = None, gen: int = 0, force: bool = False
    ) -> bool:
        """Append a heartbeat if ``interval`` has elapsed (or ``force``)."""
        now = now_us()
        if not force and now - self._last_beat_us < self.interval_us:
            return False
        self._last_beat_us = now
        self._emit(
            {
                "kind": "beat",
                "ts": now,
                "worker": self.worker_id,
                "pid": self.pid,
                "role": self.role,
                "task": task,
                "gen": gen,
                "counters": dict(self.totals),
                "rss_kb": rss_kb(),
            }
        )
        self.beats_written += 1
        return True

    def task_done(self, key: str, gen: int, counters: Dict[str, int]) -> None:
        """Append one completed task's counter deltas.

        ``key`` identifies the dispatch slot (``"<batch>:<index>"``) and
        ``gen`` the resubmission attempt; the fold keeps the first record
        per key so crash-resubmitted duplicates never double-count.
        """
        self._emit(
            {
                "kind": "task",
                "ts": now_us(),
                "worker": self.worker_id,
                "key": key,
                "gen": int(gen),
                "counters": dict(counters),
            }
        )

    def stall(self, diagnosis: str, task: Optional[str] = None) -> None:
        """Append a worker-side failure with its stall-cause diagnosis."""
        self._emit(
            {
                "kind": "stall",
                "ts": now_us(),
                "worker": self.worker_id,
                "task": task,
                "diagnosis": str(diagnosis)[:4000],
            }
        )

    def rotate(self) -> None:
        """Close the current spool slot; the next record claims a fresh
        one.  Long-lived daemon workers rotate between campaigns so the
        retention GC (:func:`prune_spool_dir`) can reclaim closed slots
        without ever racing a live file handle."""
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def prune_spool_dir(
    spool_dir: str,
    keep_per_pid: int = 2,
    live_pids: Optional[set] = None,
) -> int:
    """Retention GC over a heartbeat spool directory; returns files removed.

    Spool slots accumulate forever on a long-lived daemon (every worker
    replacement and every :meth:`HeartbeatWriter.rotate` claims a new
    ``hb-<pid>-<n>.jsonl``).  This keeps the newest ``keep_per_pid``
    slots per pid and deletes the rest; when ``live_pids`` is given,
    *every* slot of a pid not in it is deleted (the process is gone, its
    telemetry has been folded).  Writers never re-use a freed slot
    number (see :meth:`HeartbeatWriter._open`), so deletion cannot
    corrupt a reader's offset map -- pair with
    :meth:`SpoolReader.forget_missing` to keep that map bounded too.
    """
    try:
        names = os.listdir(spool_dir)
    except OSError:
        return 0
    by_pid: Dict[int, List[tuple]] = {}
    for name in names:
        if not (name.startswith("hb-") and name.endswith(".jsonl")):
            continue
        parts = name[3:-6].split("-")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            continue
        pid, seq = int(parts[0]), int(parts[1])
        by_pid.setdefault(pid, []).append((seq, name))
    removed = 0
    for pid, slots in by_pid.items():
        slots.sort()
        if live_pids is not None and pid not in live_pids:
            doomed = slots
        else:
            doomed = slots[: max(0, len(slots) - max(0, keep_per_pid))]
        for _seq, name in doomed:
            try:
                os.unlink(os.path.join(spool_dir, name))
                removed += 1
            except OSError:
                pass
    return removed


# ----------------------------------------------------------------------
# Campaign-scoped activation (published pre-fork, inherited by workers)
# ----------------------------------------------------------------------


class _ActiveStream:
    __slots__ = ("spool_dir", "interval", "owner_pid", "monitor")

    def __init__(self, spool_dir, interval, monitor):
        self.spool_dir = spool_dir
        self.interval = interval
        self.owner_pid = os.getpid()
        self.monitor = monitor


#: The live campaign's stream config; ``None`` = telemetry off (the
#: single check every instrumented hot path pays when disabled).
_ACTIVE: Optional[_ActiveStream] = None

#: This process's lazily created writer (per-pid: forks re-create it).
_WRITER: Optional[HeartbeatWriter] = None


def publish(spool_dir: str, interval: float, monitor=None) -> None:
    """Activate streaming: called by the campaign monitor *before* any
    fork so every worker inherits the spool location by address-space
    copy.  ``monitor`` (parent-side only) receives :func:`parent_poll`."""
    global _ACTIVE
    _ACTIVE = _ActiveStream(spool_dir, interval, monitor)


def unpublish() -> None:
    """Deactivate streaming and close this process's writer, if any."""
    global _ACTIVE, _WRITER
    _ACTIVE = None
    if _WRITER is not None:
        _WRITER.close()
        _WRITER = None


def active_spool_dir() -> Optional[str]:
    active = _ACTIVE
    return active.spool_dir if active is not None else None


def worker_writer(role: str = "worker") -> Optional[HeartbeatWriter]:
    """This process's heartbeat writer, or ``None`` when streaming is off.

    Lazily (re)created per pid: a forked worker inherits the parent's
    ``_WRITER`` object but must never share its spool file, so a pid
    mismatch opens a fresh one (the inherited handle is simply unused).
    """
    global _WRITER
    active = _ACTIVE
    if active is None:
        return None
    writer = _WRITER
    if (
        writer is None
        or writer.pid != os.getpid()
        or writer.spool_dir != active.spool_dir
    ):
        writer = _WRITER = HeartbeatWriter(
            active.spool_dir, role=role, interval=active.interval
        )
    return writer


def parent_poll() -> None:
    """Give the campaign monitor a chance to tail spools and refresh the
    status snapshot.  No-op in workers (only the publishing process owns
    the monitor) and when streaming is off; the monitor rate-limits its
    own writes, so call sites may invoke this freely in dispatch loops."""
    active = _ACTIVE
    if (
        active is not None
        and active.monitor is not None
        and active.owner_pid == os.getpid()
    ):
        active.monitor.poll()


# ----------------------------------------------------------------------
# Reader side (parent only)
# ----------------------------------------------------------------------


class SpoolReader:
    """Incremental tail over every spool file in a directory.

    Keeps a byte offset per file; each :meth:`poll` reads only what is
    new, returns the complete checksum-valid records, and leaves a torn
    tail (no trailing newline yet) for the next poll.  Files may appear
    at any time (workers fork mid-campaign) and may be written
    concurrently -- the per-writer-file discipline means a reader never
    races anything except the in-progress last line.
    """

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self._offsets: Dict[str, int] = {}
        self.records_read = 0
        self.dropped_lines = 0

    @property
    def spools_seen(self) -> int:
        return len(self._offsets)

    def forget_missing(self) -> int:
        """Drop offsets for spool files that no longer exist (pruned by
        the retention GC); returns how many were forgotten.  Keeps a
        daemon-lifetime reader's offset map bounded."""
        gone = [p for p in self._offsets if not os.path.exists(p)]
        for path in gone:
            del self._offsets[path]
        return len(gone)

    def poll(self) -> List[dict]:
        records: List[dict] = []
        try:
            names = sorted(os.listdir(self.spool_dir))
        except OSError:
            return records
        for name in names:
            if not (name.startswith("hb-") and name.endswith(".jsonl")):
                continue
            path = os.path.join(self.spool_dir, name)
            offset = self._offsets.setdefault(path, 0)
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    data = handle.read()
            except OSError:
                continue
            if not data:
                continue
            end = data.rfind(b"\n")
            if end < 0:
                continue  # only a torn tail so far; retry next poll
            self._offsets[path] = offset + end + 1
            for line in data[:end].split(b"\n"):
                if not line.strip():
                    continue
                try:
                    record = log.decode(line.decode("utf-8"))
                except UnicodeDecodeError:
                    record = None
                if record is None or "kind" not in record:
                    self.dropped_lines += 1
                else:
                    self.records_read += 1
                    records.append(record)
        return records


class WorkerView:
    """The fold's latest knowledge of one worker process."""

    __slots__ = (
        "worker", "pid", "role", "last_ts", "task", "gen", "counters",
        "rss_kb", "beats",
    )

    def __init__(self, worker: str, pid: int, role: str) -> None:
        self.worker = worker
        self.pid = pid
        self.role = role
        self.last_ts = 0
        self.task: Optional[str] = None
        self.gen = 0
        self.counters: Dict[str, int] = {}
        self.rss_kb = 0
        self.beats = 0


#: How many recent stall diagnoses the fold retains for the snapshot.
_MAX_STALLS = 20


class StreamFold:
    """Folds spool records into live aggregates.

    Two aggregation disciplines coexist:

    * **beats** carry cumulative per-worker counters; the fold keeps the
      latest per worker (:attr:`workers`) -- a liveness/throughput view
      where a resubmitted task's work legitimately shows up twice
      (both workers really did burn the cycles);
    * **task** records carry per-task deltas keyed by dispatch slot; the
      fold sums the *first* record per key into :attr:`totals` and
      counts later generations in :attr:`duplicates_skipped` -- the
      truthful exactly-once aggregate that ``metrics_snapshot`` hit
      rates are built on even under crash-resubmission.
    """

    def __init__(self) -> None:
        self.workers: Dict[str, WorkerView] = {}
        self.totals: Dict[str, int] = {}
        self.stalls: List[dict] = []
        self.duplicates_skipped = 0
        self.beats = 0
        self.tasks = 0
        self._task_gens: Dict[str, int] = {}

    def _view(self, record: dict) -> WorkerView:
        worker = str(record.get("worker", "?"))
        view = self.workers.get(worker)
        if view is None:
            view = self.workers[worker] = WorkerView(
                worker,
                int(record.get("pid", 0) or 0),
                str(record.get("role", "worker")),
            )
        return view

    def absorb(self, records: List[dict]) -> None:
        for record in records:
            kind = record.get("kind")
            if kind == "meta":
                view = self._view(record)
                view.last_ts = max(view.last_ts, int(record.get("ts", 0)))
            elif kind == "beat":
                view = self._view(record)
                view.last_ts = max(view.last_ts, int(record.get("ts", 0)))
                view.task = record.get("task")
                view.gen = int(record.get("gen", 0) or 0)
                counters = record.get("counters")
                if isinstance(counters, dict):
                    view.counters = counters
                view.rss_kb = int(record.get("rss_kb", 0) or 0)
                view.beats += 1
                self.beats += 1
            elif kind == "task":
                key = str(record.get("key"))
                gen = int(record.get("gen", 0) or 0)
                if key in self._task_gens:
                    self.duplicates_skipped += 1
                    continue
                self._task_gens[key] = gen
                self.tasks += 1
                counters = record.get("counters")
                if isinstance(counters, dict):
                    for name, value in counters.items():
                        if isinstance(value, (int, float)):
                            self.totals[name] = (
                                self.totals.get(name, 0) + int(value)
                            )
            elif kind == "stall":
                self.stalls.append(
                    {
                        "ts": int(record.get("ts", 0)),
                        "worker": record.get("worker"),
                        "task": record.get("task"),
                        "diagnosis": record.get("diagnosis", ""),
                    }
                )
                del self.stalls[:-_MAX_STALLS]

    def worker_rows(self, now: int, silent_after_us: int) -> List[dict]:
        """Per-worker health rows, silent-first then by id.

        A worker whose last heartbeat is older than ``silent_after_us``
        is marked ``silent`` -- the early-warning health signal that
        fires *before* any task timeout does.
        """
        rows = []
        for view in self.workers.values():
            silent_us = max(0, now - view.last_ts) if view.last_ts else 0
            rows.append(
                {
                    "id": view.worker,
                    "pid": view.pid,
                    "role": view.role,
                    "last_ts_us": view.last_ts,
                    "silent_s": round(silent_us / 1e6, 3),
                    "state": (
                        "silent" if silent_us > silent_after_us else "ok"
                    ),
                    "task": view.task,
                    "gen": view.gen,
                    "rss_kb": view.rss_kb,
                    "counters": dict(sorted(view.counters.items())),
                }
            )
        rows.sort(key=lambda r: (r["state"] != "silent", r["id"]))
        return rows

    def states_total(self) -> int:
        """Deduped explored-state total across all completed tasks."""
        return int(self.totals.get("states", 0))
