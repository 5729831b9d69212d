"""Tests for the persistent content-addressed verdict store.

The store's contract has three legs: warm runs are *byte-identical* to
cold runs (persistence must never change an answer), damaged bytes are
tolerated and quarantined (never crash, never serve a bad verdict), and
any number of processes may flush into one directory concurrently.
"""

import json
import multiprocessing
import os

import pytest

from repro import log
from repro.cli import main
from repro.hw import AdveHillPolicy, Definition1Policy
from repro.sim.system import SystemConfig
from repro.verify import SEMANTICS_VERSION, VerdictStore, VerificationEngine
from repro.verify.cache import program_fingerprint
from repro.verify.store import (
    STORE_FORMAT,
    cell_key,
    decode_program,
    encode_program,
)

from helpers import message_passing_program, store_buffer_program

FACTORIES = {"adve-hill": AdveHillPolicy, "definition1": Definition1Policy}


def programs():
    return [message_passing_program(sync=True), store_buffer_program()]


def sweep(cache_dir=None, jobs=1, seeds=6):
    engine = VerificationEngine(jobs=jobs, cache_dir=cache_dir)
    evidence = engine.definition2_sweep(
        programs(), FACTORIES, SystemConfig(), seeds=range(seeds)
    )
    if engine.store is not None:
        engine.store.close()
    return engine, evidence


def segment_paths(cache_dir):
    return sorted(
        os.path.join(cache_dir, name)
        for name in os.listdir(cache_dir)
        if name.startswith("seg-") and name.endswith(".jsonl")
    )


def reencode(record: dict) -> str:
    """A record line with a *consistent* checksum (the poisoning case)."""
    return log.encode({k: v for k, v in record.items() if k != "c"})


class TestWarmIdentity:
    """Leg one: a warm run must reproduce the cold run bit for bit."""

    def test_warm_rows_identical_and_runs_reused(self, tmp_path):
        cache = str(tmp_path / "cache")
        _, cold = sweep(cache)
        warm_engine, warm = sweep(cache)
        assert warm.rows == cold.rows
        assert warm.contract_holds == cold.contract_holds
        assert warm_engine.store.stats.runs_reused > 0
        assert warm_engine.store.stats.loaded_sc > 0
        # a second warm run flushes nothing new
        third_engine, _ = sweep(cache)
        assert third_engine.store.stats.flushed_sc == 0
        assert third_engine.store.stats.flushed_runs == 0

    def test_store_matches_storeless_run(self, tmp_path):
        _, stored = sweep(str(tmp_path / "cache"))
        _, plain = sweep(None)
        assert stored.rows == plain.rows

    def test_warm_parallel_matches_cold_serial(self, tmp_path):
        cache = str(tmp_path / "cache")
        _, cold = sweep(cache, jobs=1)
        _, warm = sweep(cache, jobs=2)
        assert warm.rows == cold.rows

    def test_cost_aware_schedule_changes_nothing(self, tmp_path):
        """Recorded costs reorder dispatch; output must not move."""
        cache = str(tmp_path / "cache")
        sweep(cache, seeds=4)
        # skew the recorded costs wildly so the planner reorders + rechunks
        store = VerdictStore(cache)
        state = store.warm()
        assert state.costs, "sweep should have recorded cell costs"
        first = sorted(state.costs)[0]
        store.record_cost(first, runs=1, wall_us=10_000_000)
        store.close()
        # widen the seed range: positions 4..11 have no stored summaries,
        # so hardware genuinely re-runs under the skewed schedule
        _, plain = sweep(None, seeds=12)
        _, rescheduled = sweep(cache, seeds=12, jobs=2)
        assert rescheduled.rows == plain.rows


class TestIntegrity:
    """Leg two: damage is tolerated, quarantined, and never served."""

    def test_torn_tail_dropped_segment_kept(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        path = segment_paths(cache)[0]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "sc", "fp": "dead', )  # killed mid-append
        store = VerdictStore(cache)
        state = store.load()
        assert store.stats.dropped_lines == 1
        assert store.stats.quarantined_segments == 0
        assert state.sc  # salvage succeeded
        assert os.path.exists(path)  # torn tail is not corruption

    def test_truncated_mid_line_tail(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        path = segment_paths(cache)[0]
        with open(path, "r", encoding="utf-8") as fh:
            data = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data[: len(data) - 40])  # cut into the last record
        store = VerdictStore(cache)
        store.load()
        assert store.stats.dropped_lines == 1
        assert store.stats.quarantined_segments == 0

    def test_midfile_corruption_quarantines_segment(self, tmp_path):
        cache = str(tmp_path / "cache")
        _, cold = sweep(cache)
        path = segment_paths(cache)[0]
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[len(lines) // 2] = lines[len(lines) // 2][:-10] + 'corrupted"'
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        store = VerdictStore(cache)
        state = store.load()  # must not raise
        assert store.stats.quarantined_segments == 1
        assert not segment_paths(cache)  # moved out of the live set
        quarantined = os.listdir(os.path.join(cache, "quarantine"))
        assert len(quarantined) == 1
        assert state.sc or state.runs  # surviving records salvaged
        # and the sweep still answers correctly from the salvaged state
        _, warm = sweep(cache)
        assert warm.rows == cold.rows

    def test_bad_header_quarantines_whole_segment(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        path = segment_paths(cache)[0]
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[0] = '{"not": "a header"}'
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        store = VerdictStore(cache)
        state = store.load()
        assert store.stats.quarantined_segments == 1
        assert not state.sc and not state.runs  # nothing trusted

    def test_consistently_poisoned_verdict_caught_by_audit(self, tmp_path):
        """A flipped verdict with a rewritten checksum survives loading
        (checksums only catch *inconsistent* damage) -- ``audit`` is the
        defense, exactly as for the in-memory caches."""
        cache = str(tmp_path / "cache")
        sweep(cache)
        path = segment_paths(cache)[0]
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        flipped = False
        for index, line in enumerate(lines):
            record = json.loads(line)
            if record.get("kind") == "sc":
                record["v"] = not record["v"]
                lines[index] = reencode(record)
                flipped = True
                break
        assert flipped
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        report = VerdictStore(cache).audit()
        assert not report.ok
        assert any(entry.startswith("sc ") for entry in report.disagreements)

    def test_semantics_version_mismatch_is_cold_start(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        store = VerdictStore(cache, semantics="d2-oracle-999")
        state = store.load()
        assert store.stats.stale_segments == 1
        assert not state.sc and not state.runs and not state.costs
        # the real version still reads its own segments
        fresh = VerdictStore(cache)
        assert fresh.load().sc

    def test_old_format_segment_skipped(self, tmp_path):
        cache = str(tmp_path / "cache")
        os.makedirs(cache)
        header = {
            "kind": "meta",
            "format": STORE_FORMAT + 1,
            "semantics": SEMANTICS_VERSION,
        }
        with open(os.path.join(cache, "seg-1-0.jsonl"), "w") as fh:
            fh.write(reencode(header) + "\n")
        store = VerdictStore(cache)
        store.load()
        assert store.stats.stale_segments == 1
        assert store.stats.quarantined_segments == 0

    def test_previous_format_segment_stale_and_compacted_away(self, tmp_path):
        """A segment of the format before the current one (format 1 keyed
        runs by a per-seed hash) is a cold start: skipped, not
        quarantined, and dropped by compaction."""
        cache = str(tmp_path / "cache")
        sweep(cache, seeds=2)
        old = os.path.join(cache, "seg-1-0.jsonl")
        header = {
            "kind": "meta",
            "format": STORE_FORMAT - 1,
            "semantics": SEMANTICS_VERSION,
        }
        run = {"kind": "run", "k": "0" * 40, "s": {"seed": 0}}
        with open(old, "w") as fh:
            fh.write(reencode(header) + "\n" + reencode(run) + "\n")
        store = VerdictStore(cache)
        state = store.load()
        assert store.stats.stale_segments == 1
        assert store.stats.quarantined_segments == 0
        assert "0" * 40 not in state.runs
        segments, _ = VerdictStore(cache).compact()
        assert segments == 2
        assert not os.path.exists(old)
        assert VerdictStore(cache).load().runs == state.runs


def _flush_one(args):
    cache, index = args
    program = (
        message_passing_program(sync=True) if index else store_buffer_program()
    )
    engine = VerificationEngine(jobs=1, cache_dir=cache)
    engine.definition2_sweep(
        [program], FACTORIES, SystemConfig(), seeds=range(4)
    )
    engine.store.close()
    return True


class TestConcurrency:
    """Leg three: many writers, one directory, no locks."""

    def test_two_processes_flush_same_cache_dir(self, tmp_path):
        cache = str(tmp_path / "cache")
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            assert all(pool.map(_flush_one, [(cache, 0), (cache, 1)]))
        store = VerdictStore(cache)
        state = store.load()
        assert store.stats.quarantined_segments == 0
        assert len(state.programs) == 2  # both writers' programs landed
        # and the merged store warms a full-grid sweep
        engine, _ = sweep(cache, seeds=4)
        assert engine.store.stats.runs_reused > 0

    def test_same_process_reopen_gets_fresh_segment(self, tmp_path):
        """The O_EXCL retry path: one pid, several writer instances."""
        cache = str(tmp_path / "cache")
        program = store_buffer_program()
        fingerprint = program_fingerprint(program)
        for index in range(3):
            store = VerdictStore(cache)
            store.warm()
            store.record_cost(cell_key(fingerprint, "x"), 1, 100 + index)
            store.close()
        assert len(segment_paths(cache)) == 3
        state = VerdictStore(cache).load()
        assert state.costs[cell_key(fingerprint, "x")].runs == 3


class TestFingerprintMemo:
    def test_memoized_on_instance(self):
        program = store_buffer_program()
        assert "_content_fingerprint" not in program.__dict__
        first = program_fingerprint(program)
        assert program.__dict__["_content_fingerprint"] == first
        assert program_fingerprint(program) == first

    def test_memo_matches_fresh_instance(self):
        assert program_fingerprint(store_buffer_program()) == (
            program_fingerprint(store_buffer_program())
        )


class TestParallelStats:
    """Worker-side cache stats must fold back into the parent."""

    def test_fuzz_jobs_reports_hits(self):
        serial = VerificationEngine(jobs=1)
        serial.fuzz(range(4))
        parallel = VerificationEngine(jobs=2)
        parallel.fuzz(range(4))
        assert parallel.sc_cache.stats.lookups > 0
        assert parallel.sc_cache.stats.hits == serial.sc_cache.stats.hits
        assert parallel.sc_cache.stats.misses == serial.sc_cache.stats.misses
        counters = parallel.metrics_snapshot().as_dict()["counters"]
        assert counters["engine.sc_cache.hits"] == (
            parallel.sc_cache.stats.hits
        )


class TestProgramCodec:
    def test_roundtrip_preserves_fingerprint(self):
        for program in programs():
            decoded = decode_program(encode_program(program))
            assert program_fingerprint(decoded) == program_fingerprint(program)
            assert decoded.threads == program.threads


class TestMaintenance:
    def test_compact_folds_segments_and_preserves_state(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        sweep(cache, seeds=8)  # second segment with partial overlap
        before = VerdictStore(cache).load()
        store = VerdictStore(cache)
        segments, records = store.compact()
        assert segments == 2
        assert records > 0
        assert len(segment_paths(cache)) == 1
        after = VerdictStore(cache).load()
        assert after.sc == before.sc
        assert after.drf0 == before.drf0
        assert after.runs == before.runs
        assert {k: vars(v) for k, v in after.costs.items()} == {
            k: vars(v) for k, v in before.costs.items()
        }

    def test_audit_clean_store_passes(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        report = VerdictStore(cache).audit()
        assert report.ok
        assert report.checked > 0
        assert report.unauditable == 0

    def test_audit_sample_is_deterministic(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        first = VerdictStore(cache).audit(sample=3)
        second = VerdictStore(cache).audit(sample=3)
        assert first.checked == second.checked == 3


class TestCacheCLI:
    def test_stats_audit_compact(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            ["sweep", "SB", "--seeds", "4", "--cache-dir", cache]
        ) in (0, 1)
        capsys.readouterr()
        assert main(["cache", "stats", cache]) == 0
        assert "sc_verdicts" in capsys.readouterr().out
        assert main(["cache", "audit", cache, "--sample", "5"]) == 0
        capsys.readouterr()
        assert main(["cache", "compact", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", cache, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["segments"] == 1
        assert summary["sc_verdicts"] > 0

    def test_audit_detects_poisoning(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["sweep", "SB", "--seeds", "4", "--cache-dir", cache])
        path = segment_paths(cache)[0]
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for index, line in enumerate(lines):
            record = json.loads(line)
            if record.get("kind") == "sc":
                record["v"] = not record["v"]
                lines[index] = reencode(record)
                break
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["cache", "audit", cache]) == 1
        capsys.readouterr()

    def test_missing_dir_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "audit", str(tmp_path / "nope")])
        assert excinfo.value.code == 2

    def test_sweep_cache_dir_identical_stdout(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["sweep", "MP", "SB", "--seeds", "4", "--cache-dir", cache]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out

    def test_fuzz_cache_dir_identical_stdout(self, tmp_path, capsys):
        """Memo hit/miss counts depend on the store, so they go to stderr;
        stdout is the same cold and warm."""
        cache = str(tmp_path / "cache")
        argv = ["fuzz", "--programs", "5", "--cache-dir", cache]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "memo" not in cold.out
        assert "SC memo:" in cold.err and "0 misses" in warm.err
