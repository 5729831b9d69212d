"""Deterministic tests for the engine's pooled dispatch loop.

``_Session._map_resilient`` is driven here by a fake pool instead of a
forked one.  The fake owns simulated time: every read of the session's
clock advances it one tick, and each task occupies its worker for a
fixed number of ticks.  ``jobs`` fake workers serve one FIFO queue, as
``multiprocessing.Pool`` does, and completions fire the session's
callbacks.  Nothing below depends on how fast the host is.
"""

import os
import sys
import threading
import time
from collections import Counter, deque

import pytest

from repro.hw import SCPolicy
from repro.litmus.catalog import by_name
from repro.sim.system import SystemConfig
from repro.verify import VerificationEngine
from repro.verify import engine as engine_mod
from repro.verify.engine import _Session, _SweepCell, _TaskContext

SEEDS = range(8)


class _FakeWorker:
    def __init__(self, pid: int) -> None:
        self.pid = pid


class FakePool:
    """``jobs`` workers on a FIFO queue, in simulated time.

    ``duration(task_index, attempt)`` gives a job's run time in ticks.
    ``crash_job`` names the n-th started job (0-based) whose worker dies
    just before that job would finish: the job is lost and a fresh worker
    with a new pid takes the dead one's place, as a real pool does.
    """

    def __init__(self, jobs, duration, crash_job=None):
        self._pool = [_FakeWorker(1000 + i) for i in range(jobs)]
        self._duration = duration
        self._crash_job = crash_job
        self._next_pid = 1000 + jobs
        self.now = 0
        self.queue = deque()
        #: worker slot -> (job, finish tick, job number)
        self.running = {}
        self.started = 0
        self.outstanding = 0
        self.max_outstanding = 0
        #: task index -> times a worker ran it to completion
        self.executions = Counter()

    def apply_async(self, func, args, callback, error_callback):
        task_index = args[1][1]
        attempt = args[1][2]
        self.queue.append((func, args, callback, error_callback, task_index, attempt))
        self.outstanding += 1
        self.max_outstanding = max(self.max_outstanding, self.outstanding)
        self._start_idle_workers()

    def clock(self) -> float:
        self.now += 1
        for slot in sorted(self.running):
            job, finish, number = self.running[slot]
            if finish > self.now:
                continue
            del self.running[slot]
            self.outstanding -= 1
            if number == self._crash_job:
                self._pool[slot] = _FakeWorker(self._next_pid)
                self._next_pid += 1
                continue
            func, args, callback, error_callback, task_index, _attempt = job
            self.executions[task_index] += 1
            try:
                value = func(*args)
            except Exception as exc:  # pragma: no cover - no failing task here
                error_callback(exc)
            else:
                callback(value)
        self._start_idle_workers()
        return float(self.now)

    def _start_idle_workers(self) -> None:
        for slot in range(len(self._pool)):
            if slot not in self.running and self.queue:
                job = self.queue.popleft()
                finish = self.now + self._duration(job[4], job[5])
                self.running[slot] = (job, finish, self.started)
                self.started += 1


@pytest.fixture
def run_tasks(monkeypatch):
    """Publish a one-cell sweep context; yield its hardware-run tasks."""
    cell = _SweepCell(
        program=by_name("SB").program,
        policy_factory=SCPolicy,
        config=SystemConfig(),
    )
    monkeypatch.setattr(engine_mod, "_TASK_CONTEXT", _TaskContext(cells=(cell,)))
    # Simulated time never waits on the host; keep the real wait short.
    monkeypatch.setattr(engine_mod, "_WAKE_TICK", 0.001)
    return [("run", 0, (seed,)) for seed in SEEDS]


def _serial(tasks):
    return _Session(None, VerificationEngine(jobs=1)).map(tasks)


def _pooled(tasks, pool, jobs, **engine_kwargs):
    engine = VerificationEngine(jobs=jobs, **engine_kwargs)
    session = _Session(pool, engine, clock=pool.clock)
    return session.map(tasks), engine, session


class TestPipelinedDispatch:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_in_flight_leases_capped_at_two_per_worker(self, run_tasks, jobs):
        pool = FakePool(jobs, duration=lambda index, attempt: 3)
        values, _engine, _session = _pooled(run_tasks, pool, jobs)
        assert values == _serial(run_tasks)
        # A task is queued behind every running one, and never more.
        assert pool.max_outstanding == 2 * jobs

    def test_results_return_in_task_order(self, run_tasks):
        # Uneven durations make tasks complete out of submission order.
        durations = [9, 2, 7, 1, 5, 3, 8, 2]
        pool = FakePool(2, duration=lambda index, attempt: durations[index])
        completions = []
        engine = VerificationEngine(jobs=2)
        session = _Session(pool, engine, clock=pool.clock)
        values = session.map(
            run_tasks, on_result=lambda index, task, value: completions.append(index)
        )
        assert completions != sorted(completions)
        assert sorted(completions) == list(range(len(run_tasks)))
        assert values == _serial(run_tasks)

    def test_queued_lease_not_charged_while_it_waits(self, run_tasks):
        # One worker, 10-tick tasks, 15-tick timeout: the second lease
        # waits 10 ticks behind the first, then runs for 10.  Charged
        # from submission it would time out; charged from the moment it
        # starts executing it must not.
        pool = FakePool(1, duration=lambda index, attempt: 10)
        values, engine, session = _pooled(
            run_tasks, pool, 1, task_timeout=15, retry_backoff=0
        )
        assert values == _serial(run_tasks)
        assert engine.resilience.get("task_timeouts", 0) == 0
        assert all(pool.executions[index] == 1 for index in range(len(run_tasks)))
        assert session.abandoned_handles == 0
        # task_seconds measures execution: about 10 ticks, never the 20
        # of queueing plus execution.
        assert max(session.task_seconds) < 15

    def test_executing_lease_still_times_out(self, run_tasks):
        # Task 2's first attempt runs for 40 ticks: it is abandoned once,
        # its retry finishes, and its late first result is discarded.
        pool = FakePool(
            2, duration=lambda index, attempt: 40 if (index, attempt) == (2, 0) else 3
        )
        values, engine, session = _pooled(
            run_tasks, pool, 2, task_timeout=15, retry_backoff=0
        )
        assert values == _serial(run_tasks)
        assert engine.resilience["task_timeouts"] == 1
        assert session.abandoned_handles == 1

    def test_crash_resubmission_yields_serial_output(self, run_tasks):
        pool = FakePool(2, duration=lambda index, attempt: 4, crash_job=3)
        values, engine, session = _pooled(run_tasks, pool, 2, retry_backoff=0)
        assert values == _serial(run_tasks)
        assert engine.resilience["worker_crashes"] == 1
        assert session.abandoned_handles >= 1
        assert "degraded_to_serial" not in engine.resilience


@pytest.mark.skipif(
    not VerificationEngine(jobs=2).can_fork, reason="fork start method unavailable"
)
class TestRealPool:
    def test_no_landing_lost_with_more_workers_than_cores(self):
        # The pool's result thread hands landings to the dispatch loop
        # through a deque and an event.  Force frequent thread switches:
        # a lost landing would leave its lease to the timeout, so a clean
        # run must show no timeout and the serial output.
        programs = [by_name(name).program for name in ("SB", "MP+sync")]
        factories = {"sc": SCPolicy}
        reference = VerificationEngine(jobs=1).definition2_sweep(
            programs, factories, seeds=range(16)
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            engine = VerificationEngine(jobs=4, seed_chunk=1, task_timeout=60)
            evidence = engine.definition2_sweep(programs, factories, seeds=range(16))
        finally:
            sys.setswitchinterval(interval)
        assert evidence.rows == reference.rows
        assert "task_timeouts" not in engine.resilience

    def test_fork_pool_respawns_crashed_worker_and_shuts_down(self):
        # The fork pool's worker handler does not wake on results; it must
        # still wake on a worker death (respawn), close and terminate.
        # The victim dies inside a task, as a crashing task does: a worker
        # killed while it holds the pool's read lock wedges any pool.
        pool = engine_mod._fork_pool(2)
        before = {worker.pid for worker in pool._pool}
        pool.apply_async(os._exit, (17,))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            pids = {worker.pid for worker in pool._pool}
            if len(pids) == 2 and pids != before:
                break
            time.sleep(0.01)
        respawned = {worker.pid for worker in pool._pool} != before
        works = respawned and pool.apply_async(abs, (-3,)).get(timeout=30) == 3
        # The lost task never resolves, so only terminate can stop it.
        _stop_within(30, pool.terminate, pool.join)
        assert respawned and works

        pool = engine_mod._fork_pool(2)
        assert pool.apply_async(abs, (-1,)).get(timeout=30) == 1
        _stop_within(30, pool.close, pool.join)
        assert not any(worker.is_alive() for worker in pool._pool)


def _stop_within(seconds, *steps):
    runner = threading.Thread(target=lambda: [step() for step in steps])
    runner.start()
    runner.join(timeout=seconds)
    assert not runner.is_alive()
