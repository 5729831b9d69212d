"""Parallel contract-verification engine.

The evidence behind Definition 2 is a sweep: run every (program, policy)
pair across many nondeterminism seeds, then judge each distinct observed
result against the exact guided SC-membership oracle.  Both halves are
embarrassingly parallel and highly redundant, so :class:`VerificationEngine`
does two things:

* **fan-out** -- hardware runs, DRF0 program verdicts, SC-membership
  judgments, and whole fuzz seeds are dispatched to a ``multiprocessing``
  pool as chunked tasks;
* **memoization** -- oracle verdicts land in content-keyed caches
  (:mod:`repro.verify.cache`), so a result observed under five policies and
  forty seeds is judged once, and a program swept twice is DRF0-checked
  once.

Determinism contract: for the same inputs, every engine entry point returns
output *bit-for-bit identical* to its serial counterpart in
:mod:`repro.verify.sweeps` / :mod:`repro.verify.fuzz`, regardless of
``jobs``.  The engine achieves this by keeping workers pure (they only map
task -> value) and doing every fold in the parent, in the serial code's
iteration order; floating-point accumulations (``mean_cycles``) therefore
sum in the identical order too.

Worker plumbing: tasks are dispatched to a ``fork``-context pool, and the
per-call task context (programs, policy factories, configs) is published in
a module global *before* the fork so children inherit it by address-space
copy.  Only small index tuples cross the task queue and only plain result
records come back -- policy factories (often lambdas) are never pickled.
On platforms without ``fork`` the engine transparently degrades to the
in-process path (still memoized, still identical output).

Pooled dispatch is completion-driven and pipelined: each worker has one
task queued behind the one it is running (``2 x jobs`` leases in flight),
and the parent wakes the moment a result lands instead of polling, so a
worker never idles while the parent folds.

Resilience (this layer's hardening, all preserving the bit-for-bit
contract because tasks are pure -- re-executing one yields the identical
value):

* **per-task timeouts** -- a task that *executes* for more than
  ``task_timeout`` seconds is abandoned and resubmitted (the straggler's
  late result, if any, is discarded); a lease queued behind a busy
  worker is not charged until it enters the executing window;
* **worker-crash detection** -- the pool's worker PID set is polled; when
  a worker dies (segfault, OOM kill), every in-flight task is resubmitted
  (duplicates are harmless, first completion wins);
* **bounded retry with backoff** -- each task is retried at most
  ``max_task_retries`` times with exponential backoff and deterministic
  jitter; failure charges are deduplicated by (task, lease generation)
  through :class:`~repro.verify.leases.TaskBoard`, so one incident seen
  twice (a timeout *and* the wedged worker's later death) burns one unit
  of retry budget, not two;
* **graceful serial degradation** -- a task that exhausts its retries is
  executed in the parent process, which always terminates the sweep with
  the correct output (just without parallelism for that task);
* **clean interrupt** -- workers ignore SIGINT (the parent owns the
  Ctrl-C); on any exception the pool is terminated and joined before the
  exception propagates, so no forked children are orphaned;
* **checkpoint journal** -- ``definition2_sweep`` can log every completed
  work unit to a :class:`~repro.verify.journal.CheckpointJournal` and
  resume after a kill, recomputing only unjournaled units;
* **cache quarantine** -- verdict-cache entries that fail their integrity
  checksum are evicted and recomputed instead of aborting the sweep.

Persistence (``store`` / ``cache_dir``): with a
:class:`~repro.verify.store.VerdictStore` attached, the engine is warm
across processes and across runs, three ways:

* **warm start** -- the store's segments are loaded into the in-memory
  verdict caches at construction, *before* any fork, so every worker
  inherits the whole known verdict universe by address-space copy;
  sweep cells whose run summaries are stored are not re-run at all;
* **cross-worker sharing** -- workers return newly computed verdicts
  (with their cost metadata) alongside task results; the parent merges
  them into the shared caches as each task lands and flushes them to
  disk immediately, so a verdict computed once is on disk before the
  sweep ends (and available to every later engine in the same process
  or any concurrent process flushing into the same directory);
* **cost-aware scheduling** -- stored per-cell cost observations (wall
  time, run count, explored states) sort the next sweep's dispatch
  longest-expected-first with finer chunking for expensive cells,
  cutting tail latency on skewed grids.  Scheduling never changes any
  output -- the parent folds results in serial order regardless.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.contract import is_sc_result
from repro.core.drf0 import check_program, check_program_sampled
from repro.core.engine_state import ExplorerStats
from repro.core.parallel import ShardStats
from repro.core.execution import Result
from repro.machine.generator import GeneratorConfig
from repro.machine.program import Program
from repro.obs import stream as obs_stream
from repro.obs.tracer import now_us as _obs_now_us
from repro.sim.system import SystemConfig, run_on_hardware
from repro.verify.cache import (
    DRF0VerdictCache,
    SCVerdictCache,
    program_fingerprint,
)
from repro.verify.conditions import check_conditions
from repro.verify.diff import (
    DiffReport,
    DiffSeedOutcome,
    diff_one_seed,
    merge_diff_outcomes,
    minimize_disagreement,
)
from repro.verify.fuzz import FuzzReport, SeedOutcome, fuzz_one_seed, merge_outcomes
from repro.verify.journal import (
    CheckpointJournal,
    JournalError,
    decode_result,
    encode_result,
    sweep_signature,
)
from repro.verify.leases import DEGRADE, BackoffPolicy, TaskBoard
from repro.verify.store import VerdictStore, cell_key, run_cell_key, run_key
from repro.verify.sweeps import (
    Definition2Evidence,
    SweepReport,
    evidence_row,
)


@dataclass(frozen=True)
class Failpoint:
    """A test-only fault injected into task execution (chaos testing).

    ``task_kind`` selects which tasks may fire it (``"*"`` = any); ``mode``
    is ``"crash"`` (the worker dies with ``os._exit``), ``"hang"`` (the
    worker sleeps past any reasonable timeout), or ``"error"`` (the task
    raises).  The failpoint fires **once** across all processes -- the
    first task to claim ``token_path`` (atomic ``O_CREAT|O_EXCL``) fires,
    everyone else proceeds normally.  Crash/hang/error all fire only in
    forked workers: the parent process must survive to observe recovery.
    """

    task_kind: str
    mode: str
    token_path: str


class InjectedTaskError(RuntimeError):
    """Raised by an ``error``-mode failpoint (test plumbing)."""


def _maybe_fire_failpoint(failpoint: Failpoint) -> None:
    if multiprocessing.parent_process() is None:
        return  # only forked workers fire; the parent must survive
    try:
        fd = os.open(
            failpoint.token_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
        )
    except FileExistsError:
        return  # already fired elsewhere
    os.close(fd)
    if failpoint.mode == "crash":
        os._exit(17)
    if failpoint.mode == "hang":
        time.sleep(3600)
        return
    raise InjectedTaskError(f"injected {failpoint.mode} failpoint")


@dataclass(frozen=True)
class RunSummary:
    """The picklable essentials of one hardware run.

    Workers return these instead of full :class:`~repro.sim.system.MachineRun`
    objects: the raw access trace is only needed for the Section-5.1
    monitor, which runs *inside* the worker and is reduced here to its
    violation strings.
    """

    seed: int
    policy_name: str
    result: Result
    cycles: int
    stall_cycles: int
    condition_violations: Tuple[str, ...] = ()


def _encode_summary(summary: RunSummary) -> dict:
    """JSON-safe form of a RunSummary for the checkpoint journal."""
    return {
        "seed": summary.seed,
        "policy": summary.policy_name,
        "result": encode_result(summary.result),
        "cycles": summary.cycles,
        "stalls": summary.stall_cycles,
        "viol": list(summary.condition_violations),
    }


def _decode_summary(data: dict) -> RunSummary:
    return RunSummary(
        seed=data["seed"],
        policy_name=data["policy"],
        result=decode_result(data["result"]),
        cycles=data["cycles"],
        stall_cycles=data["stalls"],
        condition_violations=tuple(data["viol"]),
    )


@dataclass(frozen=True)
class _SweepCell:
    """One (program, policy, config) sweep cell.

    Lives only in the parent and in fork-inherited worker memory; the
    policy factory is never pickled.
    """

    program: Program
    policy_factory: Callable[[], object]
    config: SystemConfig
    check_51_conditions: bool = False


@dataclass
class _TaskContext:
    """Everything a worker needs, inherited via fork (never pickled)."""

    cells: Tuple[_SweepCell, ...] = ()
    programs: Tuple[Program, ...] = ()
    exhaustive_drf0: bool = False
    drf0_seeds: Tuple[int, ...] = ()
    generator: Optional[GeneratorConfig] = None
    fuzz_hardware_seeds: Tuple[int, ...] = ()
    check_cross_enumerators: bool = True
    diff_hardware_seeds: Tuple[int, ...] = ()
    failpoints: Tuple[Failpoint, ...] = ()


#: Published by the parent immediately before forking the pool; workers
#: read it, the parent restores the previous value afterwards.
_TASK_CONTEXT: Optional[_TaskContext] = None

#: Worker-process-local memo for fuzz SC judgments (workers cannot share
#: the parent cache object; each at least never re-judges its own repeats).
_WORKER_SC_MEMO: Dict[Tuple[str, Result], bool] = {}

#: Worker-process-local memo for exhaustive DRF0 program verdicts, used by
#: the differential campaign (same fork-warmed lifecycle as the SC memo).
_WORKER_DRF0_MEMO: Dict[str, bool] = {}


def _run_one(cell: _SweepCell, seed: int) -> RunSummary:
    policy = cell.policy_factory()
    run = run_on_hardware(cell.program, policy, cell.config.with_seed(seed))
    violations: Tuple[str, ...] = ()
    if cell.check_51_conditions:
        report = check_conditions(
            run, drf1_optimized=getattr(policy, "drf1_optimized", False)
        )
        if not report.ok:
            violations = tuple(
                f"seed {seed} {cond}: {m}"
                for cond, messages in report.violations.items()
                for m in messages
            )
    return RunSummary(
        seed=seed,
        policy_name=policy.name,
        result=run.result,
        cycles=run.cycles,
        stall_cycles=run.total_stall_cycles,
        condition_violations=violations,
    )


@dataclass
class NewVerdict:
    """One SC judgment a fuzz task computed (was not in its memo).

    Shipped back to the parent so sibling workers' work is merged into
    the shared caches and flushed to the persistent store: content key,
    verdict, the program body (kept so the stored entry is auditable),
    and the explorer cost of deriving it.
    """

    fingerprint: str
    result: Result
    verdict: bool
    program: Program
    states: int = 0


def _fuzz_task(seed: int, ctx: "_TaskContext"):
    """One fuzz seed with a counting, recording memoized judge.

    Returns ``(outcome, new_verdicts, (hits, misses))``.  The memo is
    the worker-process-local ``_WORKER_SC_MEMO`` -- warmed from the
    parent's cache before the fork -- and the hit/miss delta is the
    worker's own truth, reported back so the parent's aggregate stats
    stay accurate under ``--jobs > 1``.
    """
    new_verdicts: List[NewVerdict] = []
    hits = misses = 0

    def judge(program: Program, result: Result) -> bool:
        nonlocal hits, misses
        key = (program_fingerprint(program), result)
        verdict = _WORKER_SC_MEMO.get(key)
        if verdict is None:
            misses += 1
            stats = ExplorerStats()
            verdict = is_sc_result(program, result, stats=stats)
            _WORKER_SC_MEMO[key] = verdict
            new_verdicts.append(
                NewVerdict(key[0], result, verdict, program, stats.states)
            )
        else:
            hits += 1
        return verdict

    outcome = fuzz_one_seed(
        seed,
        ctx.generator,
        ctx.fuzz_hardware_seeds,
        ctx.check_cross_enumerators,
        judge=judge,
    )
    return outcome, new_verdicts, (hits, misses)


def _diff_task(seed: int, ctx: "_TaskContext"):
    """One differential-campaign seed with a memoized DRF0 judge.

    Returns ``(outcome, new_drf0_verdicts, (hits, misses))`` where each
    new verdict is ``(fingerprint, verdict, program)``.  The memo is the
    fork-warmed worker-local ``_WORKER_DRF0_MEMO``; fresh verdicts ride
    back so the parent merges them into the shared cache and the
    persistent store.
    """
    new_verdicts: List[Tuple[str, bool, Program]] = []
    hits = misses = 0

    def drf0_judge(program: Program) -> bool:
        nonlocal hits, misses
        fingerprint = program_fingerprint(program)
        verdict = _WORKER_DRF0_MEMO.get(fingerprint)
        if verdict is None:
            misses += 1
            verdict = check_program(program).obeys
            _WORKER_DRF0_MEMO[fingerprint] = verdict
            new_verdicts.append((fingerprint, verdict, program))
        else:
            hits += 1
        return verdict

    outcome = diff_one_seed(
        seed,
        ctx.generator,
        ctx.diff_hardware_seeds,
        drf0_judge=drf0_judge,
    )
    return outcome, new_verdicts, (hits, misses)


def _worker_init() -> None:
    """Pool-worker initializer: the parent owns Ctrl-C.

    Without this, a terminal SIGINT reaches every pool worker too; they
    die mid-task and the parent's cleanup races their corpses.  Workers
    ignore SIGINT and rely on the parent's terminate/join.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _task_label(task: tuple) -> str:
    """Short human-readable task id for heartbeat records."""
    kind = task[0]
    if kind == "run":
        return f"run:cell{task[1]}x{len(task[2])}"
    if kind == "judge":
        return f"judge:cell{task[1]}"
    if kind == "drf0":
        return f"drf0:prog{task[1]}"
    if kind == "fuzz":
        return f"fuzz:seed{task[1]}"
    if kind == "diff":
        return f"diff:seed{task[1]}"
    return str(kind)


def _execute_task(task: tuple, tag: Optional[tuple] = None):
    """Worker dispatch: map one task tuple to its (picklable) value.

    ``tag`` is the telemetry identity ``(batch, index, generation)`` of
    this dispatch: when a campaign monitor has published a heartbeat
    spool, the worker emits a liveness beat on entry, periodic beats
    while chewing through a run chunk, and an exactly-once ``task``
    record (keyed ``batch:index`` with the resubmission generation) on
    completion so the parent's fold can dedupe crash-resubmitted work.
    With telemetry off, ``writer`` is ``None`` and every hook below is a
    single comparison.
    """
    ctx = _TASK_CONTEXT
    assert ctx is not None, "task executed outside an engine session"
    kind = task[0]
    writer = obs_stream.worker_writer()
    gen = tag[2] if tag is not None else 0
    label = _task_label(task) if writer is not None else None
    if writer is not None:
        writer.beat(task=label, gen=gen)
    try:
        for failpoint in ctx.failpoints:
            if failpoint.task_kind in ("*", kind):
                _maybe_fire_failpoint(failpoint)
        if kind == "run":
            _, cell_index, seeds = task
            cell = ctx.cells[cell_index]
            value: object
            if writer is None:
                value = [_run_one(cell, seed) for seed in seeds]
            else:
                summaries = []
                for seed in seeds:
                    summaries.append(_run_one(cell, seed))
                    writer.add(runs=1)
                    writer.beat(task=label, gen=gen)
                value = summaries
            deltas = {"runs": len(seeds)}
        elif kind == "judge":
            _, cell_index, result = task
            stats = ExplorerStats()
            verdict = is_sc_result(
                ctx.cells[cell_index].program, result, stats=stats
            )
            value = (verdict, stats)
            deltas = {"judges": 1, "states": stats.states}
        elif kind == "drf0":
            _, program_index = task
            program = ctx.programs[program_index]
            if ctx.exhaustive_drf0:
                report = check_program(program)
            else:
                report = check_program_sampled(program, seeds=ctx.drf0_seeds)
            value = (report.obeys, report.stats)
            deltas = {
                "drf0": 1,
                "states": report.stats.states if report.stats else 0,
            }
        elif kind == "fuzz":
            _, seed = task
            value = _fuzz_task(seed, ctx)
            _outcome, new_verdicts, (hits, misses) = value
            deltas = {
                "fuzz_seeds": 1,
                "sc_hits": hits,
                "sc_misses": misses,
                "states": sum(new.states for new in new_verdicts),
            }
        elif kind == "diff":
            _, seed = task
            value = _diff_task(seed, ctx)
            diff_outcome, _new_drf0, (hits, misses) = value
            deltas = {
                "diff_seeds": 1,
                "drf0_hits": hits,
                "drf0_misses": misses,
                "runs": diff_outcome.hardware_runs,
            }
        else:
            raise ValueError(f"unknown task kind {kind!r}")
    except Exception as exc:
        if writer is not None:
            diagnose = getattr(exc, "diagnosis", None)
            diagnosis = (
                diagnose() if callable(diagnose)
                else f"{type(exc).__name__}: {exc}"
            )
            writer.stall(diagnosis, task=label)
            writer.beat(task=label, gen=gen, force=True)
        raise
    if writer is not None:
        if kind != "run":  # run counters already accumulated per seed
            writer.add(**deltas)
        if tag is not None:
            writer.task_done(f"{tag[0]}:{tag[1]}", gen, deltas)
        writer.beat(task=label, gen=gen)
    return value


def _now_us() -> int:
    """Wall-clock microseconds -- the shared obs clock, so engine trace
    spans are directly comparable with heartbeat and snapshot stamps."""
    return _obs_now_us()


#: Sentinel marking a task slot whose value has not been produced yet.
_UNSET = object()

#: In-flight leases per pool worker: the one it is running plus one
#: queued behind it, so a worker starts its next task without waiting
#: for the parent to fold the last result.
_LEASES_PER_WORKER = 2

#: Longest the pooled dispatch loop waits for a landing before it checks
#: timeouts and worker deaths anyway (seconds).
_WAKE_TICK = 0.02

#: Process-wide telemetry batch counter: every :meth:`_Session.map` call
#: gets a fresh batch id so ``batch:index`` task keys are unique across
#: all engines sharing one campaign monitor (chaos runs several).
_TELEMETRY_BATCH = itertools.count(1)


def _balanced_chunks(items: Sequence, size: int) -> List[tuple]:
    """Split ``items`` into chunks of at most ``size``, balanced.

    Naive fixed-stride slicing leaves a pathological straggler: 251 seeds
    at size 8 yields 31 full chunks and a 3-seed tail, so one worker idles
    while another finishes a near-empty task.  Instead the remainder is
    spread across the chunks -- sizes differ by at most one, with the
    larger chunks first -- and concatenating the chunks still reproduces
    ``items`` in order, so every fold downstream is unchanged.
    """
    n_chunks = max(1, -(-len(items) // size))
    base, rem = divmod(len(items), n_chunks)
    chunks: List[tuple] = []
    start = 0
    for index in range(n_chunks):
        width = base + (1 if index < rem else 0)
        chunks.append(tuple(items[start : start + width]))
        start += width
    return chunks


def _fork_pool(processes: int):
    """A fork pool whose worker-handler thread wakes only when needed.

    The stock handler also wakes whenever a result waits unread in the
    pool's outqueue, and spins until the result thread has read it: about
    25 wakeups per result, ~0.12 s of the parent's CPU in a one-second
    two-worker fuzz campaign, taken from the cores the workers run on.
    ``_get_sentinels`` (CPython's list of what the handler waits on, next
    to the worker sentinels) drops that outqueue.  The handler's real jobs
    stay event-driven: a worker death wakes it through the worker
    sentinels; an emptied task cache, ``close`` and ``terminate`` through
    the pool's change notifier.

    ``multiprocessing.pool`` is imported here, as ``Pool()`` itself does:
    at module level it would add its imports to every CLI start.
    """
    import multiprocessing.pool

    class _ForkPool(multiprocessing.pool.Pool):
        def _get_sentinels(self):
            return [self._change_notifier._reader]

    return _ForkPool(
        processes,
        initializer=_worker_init,
        context=multiprocessing.get_context("fork"),
    )


class _Session:
    """One engine call's dispatch surface: a pool, or the calling process."""

    def __init__(
        self,
        pool,
        engine: Optional["VerificationEngine"] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._pool = pool
        self._engine = engine
        #: Time source for lease timeouts, backoff and ``task_seconds``.
        self._clock = clock
        self._worker_pids: Set[int] = self._pool_pids()
        #: Async handles abandoned without a result (crashed or timed-out
        #: workers).  Each leaves a permanent entry in the pool's result
        #: cache, and ``Pool.close``+``join`` waits for that cache to
        #: drain -- so a session with abandoned handles must be torn down
        #: with ``terminate`` instead.
        self.abandoned_handles = 0
        #: Wall seconds per task of the last :meth:`map` call, task-order
        #: aligned (pooled tasks: from the final attempt's entry into the
        #: executing window to the parent folding its result -- a
        #: scheduling signal, not a benchmark).  Feeds the store's cost
        #: records.
        self.task_seconds: List[float] = []

    def _pool_pids(self) -> Set[int]:
        workers = getattr(self._pool, "_pool", None) or ()
        return {worker.pid for worker in workers}

    def map(
        self,
        tasks: Sequence[tuple],
        on_result: Optional[Callable[[int, tuple, object], None]] = None,
    ) -> list:
        """Evaluate tasks, returning values in task order.

        ``on_result(index, task, value)`` fires once per task as its value
        lands (checkpoint journaling hook); completion order is arbitrary
        under a pool, but the returned list is always in task order.
        """
        if not tasks:
            return []
        engine = self._engine
        observed = engine is not None and (
            engine.tracer.enabled or engine.metrics is not None
        )
        start = _now_us() if observed else 0
        self.task_seconds = [0.0] * len(tasks)
        if self._pool is None:
            batch = next(_TELEMETRY_BATCH)
            values = []
            for index, task in enumerate(tasks):
                task_start = time.perf_counter()
                value = _execute_task(task, (batch, index, 0))
                seconds = time.perf_counter() - task_start
                self.task_seconds[index] = seconds
                if on_result is not None:
                    on_result(index, task, value)
                if engine is not None:
                    engine._task_landed(task, seconds)
                obs_stream.parent_poll()
                values.append(value)
        else:
            values = self._map_resilient(tasks, on_result)
        if observed:
            counts: Dict[str, int] = {}
            for task in tasks:
                counts[task[0]] = counts.get(task[0], 0) + 1
            if engine.metrics is not None:
                for kind, n in counts.items():
                    engine.metrics.counter(f"engine.tasks.{kind}").inc(n)
            if engine.tracer.enabled:
                engine.tracer.span(
                    "engine", "map", "engine", start, _now_us(),
                    args={"tasks": len(tasks), **counts},
                )
        return values

    def _map_resilient(
        self,
        tasks: Sequence[tuple],
        on_result: Optional[Callable[[int, tuple, object], None]],
    ) -> list:
        """Pooled evaluation that survives slow, crashed, and lying workers.

        Dispatch is completion-driven and pipelined.  Up to
        :data:`_LEASES_PER_WORKER` x ``jobs`` leases are in flight, so
        each worker has a task queued behind the one it is running and
        never idles while the parent folds a result.  The pool serves
        its queue FIFO, so the oldest ``jobs`` in-flight leases are the
        executing ones: a lease's timeout and cost clock start only when
        it enters that window (a per-task timeout measures execution, not
        queueing).  The pool's result thread appends each landing to a
        queue and sets an event the loop waits on, so a result is folded
        as soon as it lands; the wait is bounded by :data:`_WAKE_TICK` so
        timeouts and worker deaths are still noticed.

        Lease bookkeeping -- generations, retry budgets, exponential
        backoff, and the exactly-once failure dedupe -- lives in
        :class:`~repro.verify.leases.TaskBoard`; this loop only moves
        leases.  A task is resubmitted when it times out, when its
        worker raises, or when a pool worker dies *unattributed* while
        it is in flight (the board's crash credits attribute a worker
        death to an already-handled timeout, so one wedged worker does
        not charge a task twice -- once at timeout, once when the corpse
        is noticed).  The late result of an abandoned lease is
        discarded.  A task that exhausts ``max_task_retries``
        resubmissions is executed in the parent: the sweep always
        terminates with the exact serial output.
        """
        engine = self._engine
        timeout = engine.task_timeout if engine is not None else None
        max_retries = engine.max_task_retries if engine is not None else 2
        backoff = engine.retry_backoff if engine is not None else 0.05
        jobs = engine.jobs if engine is not None else (os.cpu_count() or 1)
        counters = engine.resilience if engine is not None else {}
        clock = self._clock

        board = TaskBoard(
            len(tasks),
            max_retries=max_retries,
            backoff=BackoffPolicy(base=backoff),
            counters=counters,
        )
        results: List[object] = [_UNSET] * len(tasks)
        #: index -> [lease generation, window-entry time or None], in
        #: submission order; the first ``jobs`` entries are executing.
        inflight: Dict[int, list] = {}
        #: (index, generation, succeeded, value), appended by the pool's
        #: result thread; drained only by this loop.
        landed: deque = deque()
        wake = threading.Event()
        batch = next(_TELEMETRY_BATCH)

        def land(index: int, gen: int, ok: bool, value: object) -> None:
            landed.append((index, gen, ok, value))
            wake.set()

        def promote(now: float) -> None:
            for entry in itertools.islice(inflight.values(), jobs):
                if entry[1] is None:
                    entry[1] = now

        def finish(
            index: int, value: object, seconds: float = 0.0
        ) -> None:
            results[index] = value
            self.task_seconds[index] = seconds
            if on_result is not None:
                on_result(index, tasks[index], value)
            if engine is not None:
                engine._task_landed(tasks[index], seconds)

        def run_serial(index: int, attempt: int) -> None:
            serial_start = time.perf_counter()
            value = _execute_task(tasks[index], (batch, index, attempt))
            board.complete(index, attempt)
            finish(index, value, time.perf_counter() - serial_start)

        def dispose(index: int, gen: int, kind: str) -> None:
            if board.fail(index, gen, kind, clock()) == DEGRADE:
                run_serial(index, board.attempts.get(index, 0))

        window = _LEASES_PER_WORKER * jobs
        while not board.finished:
            now = clock()
            while len(inflight) < window:
                lease = board.grant(now)
                if lease is None:
                    break
                index, gen = lease.task, lease.gen
                # tag attempt numbering matches the serial path: first
                # attempt is 0, so the lease generation shifts by one.
                tag = (batch, index, gen - 1)
                try:
                    self._pool.apply_async(
                        _execute_task,
                        (tasks[index], tag),
                        callback=functools.partial(land, index, gen, True),
                        error_callback=functools.partial(
                            land, index, gen, False
                        ),
                    )
                except Exception:
                    # The pool itself is unusable; finish in-process.
                    board.bump("degraded_to_serial")
                    run_serial(index, gen - 1)
                    continue
                inflight[index] = [gen, None]
            promote(now)
            if not inflight:
                if board.finished:
                    break
                not_before = board.next_not_before()
                if not_before is None:
                    # Defensive: nothing queued, nothing in flight, yet
                    # unfinished tasks remain.  Finish them in-process
                    # rather than spinning.
                    for index in range(len(tasks)):
                        if not board.is_done(index):
                            board.bump("degraded_to_serial")
                            run_serial(index, board.attempts.get(index, 0))
                    continue
                # Every queued task is still backing off; sleep toward
                # the earliest deadline (bounded, so Ctrl-C stays snappy).
                time.sleep(min(max(not_before - clock(), 0), 0.05))
                continue

            # Clear before draining: a landing after the drain re-sets
            # the event, so the next wait returns at once.
            wake.wait(_WAKE_TICK)
            wake.clear()
            obs_stream.parent_poll()
            now = clock()

            pids = self._pool_pids()
            deaths = len(self._worker_pids - pids) if pids else 0
            if pids:
                self._worker_pids = pids

            while landed:
                index, gen, ok, value = landed.popleft()
                entry = inflight.get(index)
                if entry is None or entry[0] != gen:
                    continue  # an abandoned lease's late result
                del inflight[index]
                started = entry[1] if entry[1] is not None else now
                promote(now)
                if not ok:
                    dispose(index, gen, "task_errors")
                elif board.complete(index, gen):
                    finish(index, value, now - started)

            if timeout is not None:
                running = list(itertools.islice(inflight.items(), jobs))
                for index, (gen, started) in running:
                    if started is not None and now - started > timeout:
                        del inflight[index]
                        self.abandoned_handles += 1
                        # The worker holding this lease is presumed
                        # wedged: its eventual death is this same incident.
                        board.bank_crash_credit()
                        dispose(index, gen, "task_timeouts")
                promote(now)

            if deaths:
                board.bump("worker_crashes", deaths)
                if board.consume_crash_credits(deaths) > 0:
                    # Unattributed deaths: some worker died holding an
                    # unknown, un-timed-out task; resubmit every in-flight
                    # lease (purity makes duplicates safe, the board's
                    # (task, gen) dedupe makes the charges exactly-once).
                    for index in list(inflight):
                        gen, _started = inflight.pop(index)
                        self.abandoned_handles += 1
                        dispose(index, gen, "")
        return results


class VerificationEngine:
    """Chunked, memoized, deterministic parallel sweep runner.

    Args:
        jobs: Worker processes.  ``1`` (the default) runs in-process;
            ``0`` or ``None`` means one per CPU.  Parallel dispatch needs
            the ``fork`` start method (POSIX); elsewhere the engine runs
            in-process regardless of ``jobs``.
        explore_jobs: Intra-cell parallelism for oracle explorations
            (:mod:`repro.core.parallel`).  ``1`` (default) keeps every
            guided SC-membership search serial; ``> 1`` (or ``0`` = one
            per CPU) shards expensive searches across a fork pool of
            compiled engines.  Sharded judgments always run in the
            *parent* process (pool workers are daemonic and cannot
            fork): with ``jobs == 1`` every judge task shards, with a
            worker pool only cells whose stored cost exceeds twice the
            grid median are pulled out of the pool and sharded
            (cost-aware straggler splitting).
        seed_chunk: Seeds per hardware-run task.  Default: sized so each
            worker sees about four tasks per cell (amortizes task overhead
            while still load-balancing).
        sc_cache / drf0_cache: Verdict caches; pass shared instances to
            memoize across engine calls (both benchmarks do).
        tracer: Optional :class:`~repro.obs.tracer.Tracer` receiving
            parent-side dispatch spans (timestamps are wall-clock
            microseconds -- workers are separate processes and are not
            traced).
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            accumulating task counts; :meth:`metrics_snapshot` adds cache
            and explorer counters on demand.
        task_timeout: Seconds before an in-flight pooled task is abandoned
            and resubmitted (None = wait forever, the pre-hardening
            behavior).
        max_task_retries: Resubmissions per task (timeout, crash, or
            error) before the task is executed in the parent process.
        retry_backoff: Base seconds of exponential backoff between
            resubmissions of the same task (jittered deterministically;
            see :class:`~repro.verify.leases.BackoffPolicy`).
        failpoints: Test-only :class:`Failpoint` injections, fired inside
            workers (chaos tests for the resilience machinery).
        store: Persistent :class:`~repro.verify.store.VerdictStore`; its
            segments are loaded into the verdict caches at construction
            (warm start, inherited by every forked worker) and every new
            verdict / run summary / cost observation is flushed back as
            it is computed.
        cache_dir: Convenience: build a :class:`VerdictStore` on this
            directory (ignored when ``store`` is given).
        monitor: Optional
            :class:`~repro.obs.progress.CampaignMonitor`.  The engine
            registers its plan (cells x seeds, store-costed) with the
            first monitor that grants :meth:`~repro.obs.progress.
            CampaignMonitor.claim_plan`, ticks completion as tasks land,
            and exposes its live resilience counters; workers stream
            heartbeats through the monitor's published spool.  Telemetry
            never touches results -- outputs stay bit-identical.
        dispatcher: Optional external dispatch backend (the campaign
            daemon's worker fleet); see the attribute docstring.  When
            set, ``jobs`` only sizes chunking -- no pool is forked.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        explore_jobs: int = 1,
        seed_chunk: Optional[int] = None,
        sc_cache: Optional[SCVerdictCache] = None,
        drf0_cache: Optional[DRF0VerdictCache] = None,
        tracer=None,
        metrics=None,
        task_timeout: Optional[float] = None,
        max_task_retries: int = 2,
        retry_backoff: float = 0.05,
        failpoints: Sequence[Failpoint] = (),
        store: Optional[VerdictStore] = None,
        cache_dir: Optional[str] = None,
        monitor=None,
        dispatcher=None,
    ) -> None:
        if not jobs:
            jobs = os.cpu_count() or 1
        self.jobs = max(1, int(jobs))
        self.explore_jobs = explore_jobs
        #: Aggregate sharding counters from every intra-cell parallel
        #: exploration this engine ran (``engine.explore.*`` in
        #: :meth:`metrics_snapshot`).
        self.shard_stats = ShardStats()
        self.seed_chunk = seed_chunk
        self.task_timeout = task_timeout
        self.max_task_retries = max(0, int(max_task_retries))
        self.retry_backoff = retry_backoff
        self.failpoints = tuple(failpoints)
        #: Resilience counters: tasks_retried, task_timeouts, task_errors,
        #: worker_crashes, degraded_to_serial (absent until first event).
        self.resilience: Dict[str, int] = {}
        self.sc_cache = sc_cache if sc_cache is not None else SCVerdictCache()
        self.drf0_cache = (
            drf0_cache if drf0_cache is not None else DRF0VerdictCache()
        )
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer
        self.metrics = metrics
        self.monitor = monitor
        #: Optional external dispatch backend (the campaign daemon's
        #: supervised worker fleet).  An object with
        #: ``session(context, engine)`` returning a `_Session`-shaped
        #: object (``map``, ``task_seconds``, ``abandoned_handles``,
        #: optional ``close()``).  When set, the engine never creates a
        #: pool of its own: the same fold/journal/store path runs over
        #: the external executor, preserving bit-identity for free.
        self.dispatcher = dispatcher
        #: Whether *this* engine owns the monitor's campaign plan (the
        #: first engine to claim it does; chaos' helper engines share a
        #: monitor and only heartbeat).
        self._owns_plan = False
        if monitor is not None:
            monitor.attach_resilience(self.resilience)
        #: Aggregate exploration counters from every oracle task this
        #: engine dispatched (guided SC-membership searches and exhaustive
        #: DRF0 verdicts).  Cache hits add nothing -- the counters measure
        #: work actually done, which is what the benchmarks report.
        self.explorer_stats = ExplorerStats()
        if store is None and cache_dir is not None:
            store = VerdictStore(cache_dir)
        self.store = store
        if self.store is not None:
            self._warm_from_store()

    def _warm_from_store(self) -> None:
        """Load every stored verdict into the in-memory caches.

        Runs at construction, before any fork, so workers inherit the
        warm caches by address-space copy.  Stored run summaries stay in
        the store's state and are consumed per sweep cell.
        """
        state = self.store.warm()
        for (fingerprint, result), verdict in state.sc.items():
            self.sc_cache.store_by_fingerprint(
                fingerprint,
                result,
                verdict,
                program=state.programs.get(fingerprint),
            )
        for (fingerprint, mode), verdict in state.drf0.items():
            self.drf0_cache.store_by_key(fingerprint, mode, verdict)

    # ------------------------------------------------------------------
    # Dispatch plumbing
    # ------------------------------------------------------------------

    @property
    def can_fork(self) -> bool:
        """Whether a worker pool is actually available on this platform."""
        return "fork" in multiprocessing.get_all_start_methods()

    def _task_landed(self, task: tuple, seconds: float = 0.0) -> None:
        """Progress tick: one task's value just folded into the parent.

        Fires exactly once per task slot (the session's ``finish`` path
        guards duplicates), so monitor completion counts stay truthful
        under crash resubmission.  Only the plan-owning engine ticks
        units; every engine polls so the status file stays fresh.
        """
        monitor = self.monitor
        if monitor is None:
            return
        if self._owns_plan:
            kind = task[0]
            if kind == "run":
                monitor.unit_done(task[1], len(task[2]))
                monitor.observe_cell_us(task[1], seconds * 1e6)
            elif kind == "drf0":
                monitor.extra_done("drf0")
            elif kind == "judge":
                monitor.extra_done("judge")
            elif kind == "fuzz":
                monitor.unit_done(0, 1)
            elif kind == "diff":
                monitor.unit_done(0, 1)
        monitor.poll()

    @contextmanager
    def _session(self, context: _TaskContext):
        global _TASK_CONTEXT
        previous = _TASK_CONTEXT
        if self.failpoints and not context.failpoints:
            context.failpoints = self.failpoints
        # Published even on the dispatcher path: serial degradation runs
        # tasks in *this* process through the same `_execute_task`.
        _TASK_CONTEXT = context
        if self.dispatcher is not None:
            session = self.dispatcher.session(context, self)
            try:
                yield session
            finally:
                _TASK_CONTEXT = previous
                close = getattr(session, "close", None)
                if close is not None:
                    close()
            return
        pool = None
        session_start = _now_us() if self.tracer.enabled else 0
        session = None
        try:
            if self.jobs > 1 and self.can_fork:
                pool = _fork_pool(self.jobs)
            session = _Session(pool, self)
            yield session
        except BaseException:
            if pool is not None:
                pool.terminate()  # don't drain queued work after a failure
                pool.join()
                pool = None
            raise
        finally:
            pooled = pool is not None
            if pool is not None:
                if session is not None and session.abandoned_handles:
                    # Abandoned handles never resolve, so close+join would
                    # wait forever on the pool's result cache; every task
                    # value is already in hand, so hard-stop the workers.
                    pool.terminate()
                else:
                    pool.close()
                pool.join()
            _TASK_CONTEXT = previous
            if self.tracer.enabled:
                self.tracer.span(
                    "engine", "session", "engine", session_start, _now_us(),
                    args={"jobs": self.jobs, "pool": pooled},
                )

    def _seed_chunks(self, seeds: Sequence[int]) -> List[Tuple[int, ...]]:
        if not seeds:
            return []
        size = self.seed_chunk or max(1, -(-len(seeds) // (self.jobs * 4)))
        return _balanced_chunks(seeds, size)

    def _position_chunks(
        self, positions: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        """Chunk arbitrary seed *positions* (the resume path runs only the
        positions a journal is missing, which need not be contiguous)."""
        if not positions:
            return []
        size = self.seed_chunk or max(
            1, -(-len(positions) // (self.jobs * 4))
        )
        return _balanced_chunks(positions, size)

    # ------------------------------------------------------------------
    # Persistent-store plumbing (all no-ops without a store)
    # ------------------------------------------------------------------

    def _cell_identities(
        self, cells: Sequence[_SweepCell]
    ) -> Optional[List[Tuple[str, str]]]:
        """(program fingerprint, policy name) per cell -- the store's
        content identity of a sweep cell.  None without a store (the
        policy instantiation it costs is only paid on the store path)."""
        if self.store is None:
            return None
        return [
            (
                program_fingerprint(cell.program),
                cell.policy_factory().name,
            )
            for cell in cells
        ]

    def _fill_from_store(
        self,
        cells: Sequence[_SweepCell],
        seeds: Sequence[int],
        per_cell: List[List[Optional[RunSummary]]],
        identities: Optional[List[Tuple[str, str]]],
    ) -> List[str]:
        """Fill sweep positions from stored run summaries.

        Returns every cell's :func:`run_cell_key` (none without a store),
        so newly computed summaries can be flushed under
        ``run_key(run_cell_keys[cell_index], seed)``.
        """
        if identities is None:
            return []
        state = self.store.warm()
        run_cell_keys = []
        for cell_index, cell in enumerate(cells):
            fingerprint, policy_name = identities[cell_index]
            run_cell = run_cell_key(
                fingerprint,
                policy_name,
                cell.config,
                cell.check_51_conditions,
            )
            run_cell_keys.append(run_cell)
            summaries = per_cell[cell_index]
            for pos, seed in enumerate(seeds):
                if summaries[pos] is not None:
                    continue
                stored = state.runs.get(run_key(run_cell, seed))
                if stored is None:
                    continue
                try:
                    summaries[pos] = _decode_summary(stored)
                except (KeyError, TypeError):
                    continue  # malformed payload: recompute this run
                self.store.stats.runs_reused += 1
        return run_cell_keys

    def _plan_run_tasks(
        self,
        cells: Sequence[_SweepCell],
        seeds: Sequence[int],
        per_cell: Sequence[Sequence[Optional[RunSummary]]],
        identities: Optional[List[Tuple[str, str]]],
    ) -> Tuple[List[tuple], List[Tuple[int, Tuple[int, ...]]]]:
        """Chunked run tasks for every unfilled sweep position.

        Without a store this reproduces the original deterministic plan
        (cell order, uniform chunks).  With one, cells are dispatched
        longest-expected-first using stored cost observations, and cells
        costing more than twice the median per seed get half-size chunks
        -- stragglers start early and load-balance finely, cutting tail
        latency on skewed grids.  Only *issue order* changes; the fold
        order (and so every output) is identical either way.
        """
        expected_us: List[float] = []
        median_us = 0.0
        if identities is not None:
            state = self.store.warm()
            for fingerprint, policy_name in identities:
                cost = state.costs.get(cell_key(fingerprint, policy_name))
                expected_us.append(cost.us_per_run if cost else 0.0)
            known = sorted(us for us in expected_us if us > 0)
            if known:
                median_us = known[len(known) // 2]
        entries: List[Tuple[float, int, Tuple[int, ...]]] = []
        for cell_index in range(len(cells)):
            missing = [
                pos
                for pos in range(len(seeds))
                if per_cell[cell_index][pos] is None
            ]
            if not missing:
                continue
            size = self.seed_chunk or max(
                1, -(-len(missing) // (self.jobs * 4))
            )
            cell_us = expected_us[cell_index] if identities else 0.0
            if median_us and cell_us > 2 * median_us:
                size = max(1, size // 2)
            for chunk in _balanced_chunks(missing, size):
                entries.append((cell_us * len(chunk), cell_index, chunk))
        if identities is not None:
            entries.sort(key=lambda e: (-e[0], e[1], e[2][0]))
        tasks: List[tuple] = []
        positions: List[Tuple[int, Tuple[int, ...]]] = []
        for _, cell_index, chunk in entries:
            tasks.append(
                ("run", cell_index, tuple(seeds[pos] for pos in chunk))
            )
            positions.append((cell_index, chunk))
        return tasks, positions

    def _flush_run_costs(
        self,
        session: _Session,
        task_positions: Sequence[Tuple[int, Tuple[int, ...]]],
        identities: Optional[List[Tuple[str, str]]],
        offset: int = 0,
    ) -> None:
        """Record observed per-cell hardware-run cost into the store.

        ``offset`` skips leading non-run tasks in ``session.task_seconds``
        (the definition2 map front-loads DRF0 tasks)."""
        if identities is None or not task_positions:
            return
        acc: Dict[int, Tuple[int, int]] = {}
        for (cell_index, chunk), seconds in zip(
            task_positions, session.task_seconds[offset:]
        ):
            runs, wall_us = acc.get(cell_index, (0, 0))
            acc[cell_index] = (
                runs + len(chunk),
                wall_us + int(seconds * 1_000_000),
            )
        for cell_index, (runs, wall_us) in sorted(acc.items()):
            fingerprint, policy_name = identities[cell_index]
            self.store.record_cost(
                cell_key(fingerprint, policy_name), runs, wall_us
            )

    def _run_cells(
        self,
        session: _Session,
        cells: Sequence[_SweepCell],
        seeds: Sequence[int],
    ) -> List[List[RunSummary]]:
        """All hardware runs for ``cells`` x ``seeds``, seed-ordered per cell."""
        chunks = self._seed_chunks(seeds)
        tasks = [
            ("run", cell_index, chunk)
            for cell_index in range(len(cells))
            for chunk in chunks
        ]
        values = session.map(tasks)
        per_cell: List[List[RunSummary]] = [[] for _ in cells]
        for (_, cell_index, _chunk), summaries in zip(tasks, values):
            per_cell[cell_index].extend(summaries)
        return per_cell

    def _shard_cell_indices(
        self,
        cells: Sequence[_SweepCell],
        identities: Optional[List[Tuple[str, str]]],
    ) -> frozenset:
        """Which cells' judge tasks should run as sharded explorations.

        Sharding happens in the parent process (pool workers are daemonic
        and cannot fork grandchildren), so it competes with the run pool
        for cores.  Without a pool (``jobs == 1``) every judge shards --
        sharding is the only parallelism available.  With a pool, only
        cells whose stored cost record exceeds twice the grid median are
        pulled out: those are the stragglers whose single judge task
        would dominate the tail, and splitting them beats queueing them.
        """
        if self.explore_jobs == 1:
            return frozenset()
        from repro.core import parallel

        if (
            parallel.resolve_jobs(self.explore_jobs) <= 1
            or not parallel.can_fork()
        ):
            return frozenset()
        if self.jobs == 1 or not self.can_fork:
            return frozenset(range(len(cells)))
        if self.store is None or identities is None:
            return frozenset()
        state = self.store.warm()
        expected = []
        for fingerprint, policy_name in identities:
            cost = state.costs.get(cell_key(fingerprint, policy_name))
            expected.append(cost.us_per_run if cost else 0.0)
        known = sorted(us for us in expected if us > 0)
        if not known:
            return frozenset()
        median_us = known[len(known) // 2]
        return frozenset(
            index
            for index, us in enumerate(expected)
            if us > 2 * median_us
        )

    def _judge_sharded(
        self, program: Program, result: Result
    ) -> Tuple[bool, ExplorerStats]:
        """One parent-side sharded SC-membership judgment.

        Mirrors the ``judge`` task body but fans the guided search out
        across a fork pool of compiled engines with an early-exit
        broadcast on the first hit.  The verdict is bit-identical to the
        serial search's (membership is existence, and every shard hit is
        re-validated by replay).
        """
        from repro.core import parallel

        stats = ExplorerStats()
        if len(result.reads) != program.num_procs or set(
            dict(result.final_memory)
        ) != set(program.initial_memory):
            return is_sc_result(program, result, stats=stats), stats
        expected_reads = [tuple(values) for values in result.reads]
        expected_memory = tuple(sorted(result.final_memory))
        shard_failpoints = tuple(
            failpoint
            for failpoint in self.failpoints
            if failpoint.task_kind in ("shard", "coordinator", "*")
        )
        verdict = parallel.parallel_is_sc_result(
            program,
            expected_reads,
            expected_memory,
            2_000_000,
            parallel.resolve_jobs(self.explore_jobs),
            stats=stats,
            failpoints=shard_failpoints,
            shard_stats=self.shard_stats,
        )
        return verdict, stats

    def _judge_new_results(
        self,
        session: _Session,
        cells: Sequence[_SweepCell],
        per_cell: Sequence[Sequence[RunSummary]],
        journal: Optional[CheckpointJournal] = None,
        identities: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        """Judge every not-yet-cached distinct result, once, possibly in
        parallel, and file the verdicts in :attr:`sc_cache`.

        With a store attached, each verdict is merged into the shared
        cache and flushed to disk *as it lands* (crash tolerance: a
        judgment computed is a judgment persisted), and the judging cost
        is attributed to the observing cell's cost record.
        """
        pending: List[Tuple[int, Result]] = []
        claimed: Set[Tuple[str, Result]] = set()
        for cell_index, summaries in enumerate(per_cell):
            program = cells[cell_index].program
            for summary in summaries:
                key = self.sc_cache.key(program, summary.result)
                if key in claimed:
                    continue
                claimed.add(key)
                if (
                    self.sc_cache.lookup_or_quarantine(program, summary.result)
                    is None
                ):
                    pending.append((cell_index, summary.result))

        # Cost-aware routing: straggler cells are judged parent-side as
        # sharded explorations, everything else goes through the pool.
        # Pooled entries stay a *prefix* of ``pending`` so every index in
        # the on_result callback and the zips below is unchanged.
        shard_cells = self._shard_cell_indices(cells, identities)
        sharded: List[Tuple[int, Result]] = []
        if shard_cells:
            pooled = [
                entry for entry in pending if entry[0] not in shard_cells
            ]
            sharded = [entry for entry in pending if entry[0] in shard_cells]
            pending = pooled + sharded

        on_result = None
        if self.store is not None:
            def on_result(index: int, task: tuple, value: object) -> None:
                cell_index, result = pending[index]
                verdict, _stats = value
                program = cells[cell_index].program
                fingerprint = program_fingerprint(program)
                self.sc_cache.store_by_fingerprint(
                    fingerprint, result, verdict, program=program
                )
                self.store.record_sc(
                    fingerprint, result, verdict, program=program
                )

        if self._owns_plan and pending:
            self.monitor.add_extra("judge", len(pending))

        pooled_count = len(pending) - len(sharded)
        values = session.map(
            [
                ("judge", cell_index, result)
                for cell_index, result in pending[:pooled_count]
            ],
            on_result=on_result,
        )
        task_seconds = list(session.task_seconds)
        for cell_index, result in sharded:
            shard_start = time.perf_counter()
            value = self._judge_sharded(cells[cell_index].program, result)
            seconds = time.perf_counter() - shard_start
            task_seconds.append(seconds)
            values.append(value)
            if on_result is not None:
                on_result(
                    len(values) - 1, ("judge", cell_index, result), value
                )
            # Sharded judges bypass the session, so tick progress here.
            self._task_landed(("judge", cell_index, result), seconds)
        for (cell_index, result), (verdict, stats) in zip(pending, values):
            self.explorer_stats.merge(stats)
            program = cells[cell_index].program
            self.sc_cache.store(program, result, verdict)
            if journal is not None:
                journal.record_judgment(
                    program_fingerprint(program), result, verdict
                )
        if self.store is not None and identities is not None and pending:
            acc: Dict[int, Tuple[int, int]] = {}
            for (cell_index, _result), seconds, (_verdict, stats) in zip(
                pending, task_seconds, values
            ):
                wall_us, states = acc.get(cell_index, (0, 0))
                acc[cell_index] = (
                    wall_us + int(seconds * 1_000_000),
                    states + (stats.states if stats is not None else 0),
                )
            for cell_index, (wall_us, states) in sorted(acc.items()):
                fingerprint, policy_name = identities[cell_index]
                self.store.record_cost(
                    cell_key(fingerprint, policy_name),
                    runs=0,
                    wall_us=wall_us,
                    states=states,
                )

    def _assemble_sweep(
        self,
        cell: _SweepCell,
        seeds: Sequence[int],
        summaries: Sequence[RunSummary],
    ) -> SweepReport:
        """Fold one cell's summaries exactly as the serial sweep would."""
        seen: Set[Result] = set()
        non_sc: List[Result] = []
        condition_problems: List[str] = []
        cycles: List[int] = []
        for summary in summaries:
            cycles.append(summary.cycles)
            condition_problems.extend(summary.condition_violations)
            if summary.result in seen:
                continue
            seen.add(summary.result)
            if not self.sc_cache.judge(
                cell.program, summary.result, quarantine=True
            ):
                non_sc.append(summary.result)
        if summaries:
            policy_name = summaries[0].policy_name
        else:
            policy_name = cell.policy_factory().name
        return SweepReport(
            program=cell.program,
            policy_name=policy_name,
            seeds_run=len(seeds),
            distinct_results=len(seen),
            non_sc_results=non_sc,
            condition_violations=condition_problems,
            mean_cycles=sum(cycles) / len(cycles) if cycles else 0.0,
        )

    # ------------------------------------------------------------------
    # Entry points (mirror the serial API)
    # ------------------------------------------------------------------

    def hardware_summaries(
        self,
        program: Program,
        policy_factory: Callable[[], object],
        config: Optional[SystemConfig] = None,
        seeds: Sequence[int] = range(20),
        check_51_conditions: bool = False,
    ) -> List[RunSummary]:
        """Raw per-seed run summaries (no SC judging) -- the timing path
        the performance benchmarks fan out."""
        config = config or SystemConfig()
        seeds = list(seeds)
        cell = _SweepCell(program, policy_factory, config, check_51_conditions)
        if self.monitor is not None and self.monitor.claim_plan():
            self._owns_plan = True
            self.monitor.plan([(program.name, len(seeds), 0.0)])
        with self._session(_TaskContext(cells=(cell,))) as session:
            return self._run_cells(session, [cell], seeds)[0]

    def contract_sweep(
        self,
        program: Program,
        policy_factory: Callable[[], object],
        config: Optional[SystemConfig] = None,
        seeds: Sequence[int] = range(20),
        check_51_conditions: bool = False,
    ) -> SweepReport:
        """Parallel :func:`repro.verify.sweeps.contract_sweep`."""
        config = config or SystemConfig()
        seeds = list(seeds)
        cell = _SweepCell(program, policy_factory, config, check_51_conditions)
        cells = [cell]
        identities = self._cell_identities(cells)
        per_cell: List[List[Optional[RunSummary]]] = [[None] * len(seeds)]
        run_cell_keys = self._fill_from_store(
            cells, seeds, per_cell, identities
        )
        if self.monitor is not None and self.monitor.claim_plan():
            self._owns_plan = True
            self.monitor.plan([(program.name, len(seeds), 0.0)])
            filled = sum(1 for summary in per_cell[0] if summary is not None)
            if filled:
                self.monitor.prefill(0, filled)
        with self._session(_TaskContext(cells=(cell,))) as session:
            tasks, positions = self._plan_run_tasks(
                cells, seeds, per_cell, identities
            )

            on_result = None
            if self.store is not None:
                def on_result(index: int, task: tuple, value) -> None:
                    cell_index, chunk = positions[index]
                    for pos, summary in zip(chunk, value):
                        self.store.record_run(
                            run_key(run_cell_keys[cell_index], seeds[pos]),
                            _encode_summary(summary),
                        )

            values = session.map(tasks, on_result=on_result)
            for (cell_index, chunk), summaries in zip(positions, values):
                for pos, summary in zip(chunk, summaries):
                    per_cell[cell_index][pos] = summary
            self._flush_run_costs(session, positions, identities)
            self._judge_new_results(
                session, cells, per_cell, identities=identities
            )
        return self._assemble_sweep(cell, seeds, per_cell[0])

    def definition2_sweep(
        self,
        programs: Iterable[Program],
        policy_factories: Dict[str, Callable[[], object]],
        config: Optional[SystemConfig] = None,
        seeds: Sequence[int] = range(20),
        drf0_seeds: Sequence[int] = range(30),
        exhaustive_drf0: bool = False,
        check_51_conditions: bool = False,
        journal_path: Optional[str] = None,
        resume: bool = False,
    ) -> Definition2Evidence:
        """Parallel :func:`repro.verify.sweeps.definition2_sweep`.

        With ``journal_path``, every completed unit of work (hardware run,
        DRF0 verdict, SC judgment) is appended to a checkpoint journal as
        it lands; with ``resume`` the journal is loaded first and only the
        units it is missing are recomputed.  The output is bit-identical
        either way -- the journal changes how results are *obtained*, never
        what they are.  Resuming against a journal whose signature does not
        match this sweep's inputs raises :class:`JournalError`.
        """
        config = config or SystemConfig()
        programs = list(programs)
        seeds = list(seeds)
        drf0_tuple = tuple(drf0_seeds)
        cells = [
            _SweepCell(program, factory, config, check_51_conditions)
            for program in programs
            for factory in policy_factories.values()
        ]

        journal: Optional[CheckpointJournal] = None
        journaled_runs: Dict[Tuple[int, int], RunSummary] = {}
        if journal_path is not None:
            signature = sweep_signature(
                [program_fingerprint(p) for p in programs],
                tuple(policy_factories),
                repr(config),
                seeds,
                drf0_tuple,
                exhaustive_drf0,
                check_51_conditions,
            )
            if resume:
                state = CheckpointJournal.load(journal_path)
                if state.signature is None:
                    raise JournalError(
                        f"cannot resume: no usable journal at {journal_path}"
                    )
                if state.signature != signature:
                    raise JournalError(
                        "journal signature does not match this sweep's "
                        "inputs (different programs, policies, config, or "
                        "seeds) -- refusing to splice foreign results"
                    )
                fp_to_program = {
                    program_fingerprint(p): p for p in programs
                }
                for (fp, result), verdict in state.judgments.items():
                    program = fp_to_program.get(fp)
                    if program is not None:
                        self.sc_cache.store(program, result, verdict)
                for index, verdict in state.drf0.items():
                    if 0 <= index < len(programs):
                        self.drf0_cache.store(
                            programs[index],
                            exhaustive_drf0,
                            drf0_tuple,
                            verdict,
                        )
                for (cell_index, pos), summary in state.runs.items():
                    if 0 <= cell_index < len(cells) and 0 <= pos < len(seeds):
                        try:
                            journaled_runs[(cell_index, pos)] = (
                                _decode_summary(summary)
                            )
                        except (KeyError, TypeError):
                            pass  # malformed payload: recompute this unit
                self.resilience["journal_units_reused"] = (
                    self.resilience.get("journal_units_reused", 0)
                    + state.units
                )
            journal = CheckpointJournal(journal_path)
            journal.open(signature, fresh=not resume)

        identities = self._cell_identities(cells)
        if self.monitor is not None and self.monitor.claim_plan():
            self._owns_plan = True
            policy_names = [
                name for _ in programs for name in policy_factories
            ]
            expected = [0.0] * len(cells)
            if identities is not None:
                state = self.store.warm()
                for index, (fingerprint, policy_name) in enumerate(
                    identities
                ):
                    cost = state.costs.get(
                        cell_key(fingerprint, policy_name)
                    )
                    if cost:
                        expected[index] = cost.us_per_run
            self.monitor.plan(
                [
                    (
                        f"{cell.program.name}/{policy_names[index]}",
                        len(seeds),
                        expected[index],
                    )
                    for index, cell in enumerate(cells)
                ]
            )
        drf0_mode: object = (
            "exhaustive" if exhaustive_drf0 else ("sampled", drf0_tuple)
        )
        context = _TaskContext(
            cells=tuple(cells),
            programs=tuple(programs),
            exhaustive_drf0=exhaustive_drf0,
            drf0_seeds=drf0_tuple,
        )
        try:
            with self._session(context) as session:
                drf0_pending = [
                    index
                    for index, program in enumerate(programs)
                    if self.drf0_cache.lookup_or_quarantine(
                        program, exhaustive_drf0, drf0_tuple
                    )
                    is None
                ]
                per_cell: List[List[Optional[RunSummary]]] = [
                    [None] * len(seeds) for _ in cells
                ]
                for (cell_index, pos), summary in journaled_runs.items():
                    per_cell[cell_index][pos] = summary
                run_cell_keys = self._fill_from_store(
                    cells, seeds, per_cell, identities
                )
                if self._owns_plan:
                    for cell_index in range(len(cells)):
                        filled = sum(
                            1
                            for summary in per_cell[cell_index]
                            if summary is not None
                        )
                        if filled:
                            self.monitor.prefill(cell_index, filled)
                    self.monitor.add_extra("drf0", len(drf0_pending))
                    self.monitor.poll(force=True)
                run_tasks, task_positions = self._plan_run_tasks(
                    cells, seeds, per_cell, identities
                )
                drf0_tasks = [("drf0", index) for index in drf0_pending]

                def on_result(index: int, task: tuple, value: object) -> None:
                    if task[0] == "drf0":
                        verdict = value[0]
                        if journal is not None:
                            journal.record_drf0(task[1], verdict)
                        if self.store is not None:
                            program = programs[task[1]]
                            self.store.record_drf0(
                                program_fingerprint(program),
                                drf0_mode,
                                verdict,
                                program=program,
                            )
                        return
                    cell_index, chunk = task_positions[
                        index - len(drf0_tasks)
                    ]
                    for pos, summary in zip(chunk, value):
                        encoded = _encode_summary(summary)
                        if journal is not None:
                            journal.record_run(cell_index, pos, encoded)
                        if self.store is not None:
                            self.store.record_run(
                                run_key(run_cell_keys[cell_index], seeds[pos]),
                                encoded,
                            )

                values = session.map(
                    drf0_tasks + run_tasks,
                    on_result=(
                        on_result
                        if journal is not None or self.store is not None
                        else None
                    ),
                )
                for index, (verdict, stats) in zip(
                    drf0_pending, values[: len(drf0_tasks)]
                ):
                    if stats is not None:
                        self.explorer_stats.merge(stats)
                    self.drf0_cache.store(
                        programs[index], exhaustive_drf0, drf0_tuple, verdict
                    )
                for (cell_index, chunk), summaries in zip(
                    task_positions, values[len(drf0_tasks) :]
                ):
                    for pos, summary in zip(chunk, summaries):
                        per_cell[cell_index][pos] = summary
                self._flush_run_costs(
                    session, task_positions, identities,
                    offset=len(drf0_tasks),
                )
                self._judge_new_results(
                    session, cells, per_cell, journal=journal,
                    identities=identities,
                )
        finally:
            if journal is not None:
                journal.close()

        evidence = Definition2Evidence()
        cell_index = 0
        for program in programs:
            drf0 = self.drf0_cache.lookup(program, exhaustive_drf0, drf0_tuple)
            assert drf0 is not None
            for name in policy_factories:
                report = self._assemble_sweep(
                    cells[cell_index], seeds, per_cell[cell_index]
                )
                evidence.rows.append(evidence_row(program, drf0, name, report))
                cell_index += 1
        return evidence

    def fuzz(
        self,
        seeds: Sequence[int],
        generator: Optional[GeneratorConfig] = None,
        hardware_seeds: Sequence[int] = range(3),
        check_cross_enumerators: bool = True,
    ) -> FuzzReport:
        """Parallel :func:`repro.verify.fuzz.fuzz` (one task per seed).

        The worker-local SC memo is warmed from the engine's cache (and
        therefore from the persistent store) *before* the fork; newly
        computed verdicts ride back with each task's outcome and are
        merged into the shared cache -- and flushed to the store -- as
        they land, with the memo's hit/miss deltas folded into the
        parent's :class:`~repro.verify.cache.CacheStats` so parallel
        campaigns report true hit rates.
        """
        seeds = list(seeds)
        context = _TaskContext(
            generator=generator,
            fuzz_hardware_seeds=tuple(hardware_seeds),
            check_cross_enumerators=check_cross_enumerators,
        )
        if self.monitor is not None and self.monitor.claim_plan():
            self._owns_plan = True
            self.monitor.plan([("fuzz", len(seeds), 0.0)])
        # Reset the (module-global, fork-inherited) worker memo to exactly
        # what this engine's cache knows: leftovers from an earlier
        # campaign in this process would turn misses into hits and make
        # the reported hit rate depend on unrelated history.
        _WORKER_SC_MEMO.clear()
        for fingerprint, result, verdict in self.sc_cache.entries():
            _WORKER_SC_MEMO[(fingerprint, result)] = verdict

        def on_result(index: int, task: tuple, value) -> None:
            _outcome, new_verdicts, (hits, misses) = value
            self.sc_cache.stats.add(hits=hits, misses=misses)
            for new in new_verdicts:
                # Merge sibling workers' judgments into the shared cache
                # (and the parent's own serial-path memo) mid-run...
                _WORKER_SC_MEMO.setdefault(
                    (new.fingerprint, new.result), new.verdict
                )
                self.sc_cache.store_by_fingerprint(
                    new.fingerprint, new.result, new.verdict,
                    program=new.program,
                )
                self.explorer_stats.states += new.states
                # ... and persist them immediately (duplicates from
                # sibling workers deduplicate at the store).
                if self.store is not None:
                    self.store.record_sc(
                        new.fingerprint, new.result, new.verdict,
                        program=new.program,
                    )

        with self._session(context) as session:
            values = session.map(
                [("fuzz", seed) for seed in seeds], on_result=on_result
            )
        outcomes: List[SeedOutcome] = [value[0] for value in values]
        return merge_outcomes(outcomes)

    def diff_campaign(
        self,
        seeds: Sequence[int],
        generator: Optional[GeneratorConfig] = None,
        hardware_seeds: Sequence[int] = range(2),
        minimize: bool = True,
    ) -> DiffReport:
        """Parallel :func:`repro.verify.diff.diff_campaign` (one task per
        seed): the axiomatic solver differentially checked against the
        legacy enumerator, the operational explorers, and the hardware
        simulator over the generated-program corpus.

        The expensive shared sub-question -- each program's operational
        DRF0 verdict -- is memoized exactly like fuzz's SC judgments: the
        worker-local memo is warmed from the engine's cache (and hence
        the persistent store) before the fork, new verdicts ride back
        with each outcome and are flushed to the store as they land.
        Disagreements are auto-minimized in the parent (serial,
        deterministic) after the fold.
        """
        seeds = list(seeds)
        context = _TaskContext(
            generator=generator,
            diff_hardware_seeds=tuple(hardware_seeds),
        )
        if self.monitor is not None and self.monitor.claim_plan():
            self._owns_plan = True
            self.monitor.plan([("diff", len(seeds), 0.0)])
        _WORKER_DRF0_MEMO.clear()
        for fingerprint, mode, verdict in self.drf0_cache.entries():
            if mode == "exhaustive":
                _WORKER_DRF0_MEMO[fingerprint] = verdict

        def on_result(index: int, task: tuple, value) -> None:
            _outcome, new_verdicts, (hits, misses) = value
            self.drf0_cache.stats.add(hits=hits, misses=misses)
            for fingerprint, verdict, program in new_verdicts:
                _WORKER_DRF0_MEMO.setdefault(fingerprint, verdict)
                self.drf0_cache.store_by_key(
                    fingerprint, "exhaustive", verdict
                )
                if self.store is not None:
                    self.store.record_drf0(
                        fingerprint, "exhaustive", verdict, program=program
                    )

        with self._session(context) as session:
            values = session.map(
                [("diff", seed) for seed in seeds], on_result=on_result
            )
        outcomes: List[DiffSeedOutcome] = [value[0] for value in values]
        report = merge_diff_outcomes(outcomes)
        if minimize:
            for disagreement in report.disagreements:
                minimize_disagreement(
                    disagreement, generator, hardware_seeds
                )
        return report

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def metrics_snapshot(self, registry=None):
        """Fold the engine's counters into a metrics registry.

        Includes everything the engine tracks: dispatched task counts (if
        a registry was attached at construction they are already there),
        verdict-cache hit/miss counters, the persistent store's
        load/flush/reuse counters (when a store is attached), the
        aggregate explorer counters from oracle tasks, and the
        intra-cell sharding counters (``engine.explore.*``: shard
        balance, steal traffic, cancel latency).
        """
        from repro.obs.metrics import (
            MetricsRegistry,
            explorer_metrics,
            shard_metrics,
            store_metrics,
            stream_metrics,
        )

        registry = registry if registry is not None else (
            self.metrics if self.metrics is not None else MetricsRegistry()
        )
        registry.counter("engine.jobs").value = self.jobs
        for name, cache in (
            ("sc_cache", self.sc_cache),
            ("drf0_cache", self.drf0_cache),
        ):
            registry.counter(f"engine.{name}.hits").value = cache.stats.hits
            registry.counter(f"engine.{name}.misses").value = cache.stats.misses
            registry.counter(f"engine.{name}.quarantined").value = (
                cache.stats.quarantined
            )
        for name, count in sorted(self.resilience.items()):
            registry.counter(f"engine.resilience.{name}").value = count
        if self.store is not None:
            store_metrics(self.store.stats, registry, prefix="engine.store")
        explorer_metrics(
            self.explorer_stats, registry, prefix="engine.explorer"
        )
        shard_metrics(self.shard_stats, registry, prefix="engine.explore")
        if self.monitor is not None:
            stream_metrics(
                self.monitor.fold,
                reader=self.monitor.reader,
                registry=registry,
                prefix="engine.stream",
            )
        # A service dispatcher (the daemon's supervised fleet) exposes a
        # flat counters dict: lease reclamations, retry/backoff charges,
        # breaker transitions, worker crash/replace events.
        counters = getattr(self.dispatcher, "counters", None)
        if counters:
            for name, count in sorted(counters.items()):
                registry.counter(f"engine.service.{name}").value = count
        return registry
