"""Tests for the shared checksummed-log line codec (:mod:`repro.log`).

The verdict store, the checkpoint journal and the heartbeat spool all
write lines through one encoder and read them through one decoder.  The
golden lines below are byte for byte what those writers produced before
they shared the codec, so existing stores, journals and spools still load;
and every reader accepts only those exact bytes.
"""

import json
import os

import pytest

from repro import log
from repro.core.execution import Result
from repro.obs.stream import SpoolReader
from repro.verify.journal import CheckpointJournal
from repro.verify.store import VerdictStore

STORE_META = {"kind": "meta", "format": 1, "semantics": "d2-oracle-2"}
STORE_META_LINE = (
    '{"c": "f91343ee91f932fa", "format": 1, "kind": "meta", '
    '"semantics": "d2-oracle-2"}'
)
STORE_SC = {
    "kind": "sc",
    "fp": "ab" * 20,
    "result": {"reads": [[0, 1], [1]], "mem": [["x", 1], ["y", 2]]},
    "v": True,
}
STORE_SC_LINE = (
    '{"c": "861b10cec0a5a4e1", "fp": "abababababababababababababababababababab", '
    '"kind": "sc", "result": {"mem": [["x", 1], ["y", 2]], '
    '"reads": [[0, 1], [1]]}, "v": true}'
)
RUN_SUMMARY = {
    "seed": 3,
    "policy": "adve-hill",
    "result": {"reads": [[1]], "mem": [["x", 1]]},
    "cycles": 40,
    "stalls": 7,
    "viol": [],
}
STORE_RUN = {"kind": "run", "k": "cd" * 20, "s": RUN_SUMMARY}
STORE_RUN_LINE = (
    '{"c": "351641370686c126", "k": "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd", '
    '"kind": "run", "s": {"cycles": 40, "policy": "adve-hill", "result": '
    '{"mem": [["x", 1]], "reads": [[1]]}, "seed": 3, "stalls": 7, "viol": []}}'
)
JOURNAL_RUN = {
    "kind": "run", "cell": 2, "pos": 5, "summary": {"seed": 5, "cycles": 9},
}
JOURNAL_RUN_LINE = (
    '{"c": "594d0c6224f8e9cd", "cell": 2, "kind": "run", "pos": 5, '
    '"summary": {"cycles": 9, "seed": 5}}'
)
SPOOL_BEAT = {
    "kind": "beat",
    "ts": 1234,
    "worker": "worker-7",
    "pid": 7,
    "role": "worker",
    "task": "run:0",
    "gen": 0,
    "counters": {"runs": 3, "states": 10},
    "rss_kb": 2048,
}
SPOOL_BEAT_LINE = (
    '{"c": "a327847023ce7bc3", "counters": {"runs": 3, "states": 10}, '
    '"gen": 0, "kind": "beat", "pid": 7, "role": "worker", "rss_kb": 2048, '
    '"task": "run:0", "ts": 1234, "worker": "worker-7"}'
)

GOLDEN = [
    (STORE_META, STORE_META_LINE),
    (STORE_SC, STORE_SC_LINE),
    (STORE_RUN, STORE_RUN_LINE),
    (JOURNAL_RUN, JOURNAL_RUN_LINE),
    (SPOOL_BEAT, SPOOL_BEAT_LINE),
]


def flipped(line: str) -> str:
    """``line`` with one payload byte changed (a digit, so still JSON)."""
    index = max(i for i, ch in enumerate(line) if ch.isdigit())
    return line[:index] + str((int(line[index]) + 1) % 10) + line[index + 1:]


def torn(line: str) -> str:
    return line[: len(line) // 2]


def respaced(line: str) -> str:
    """The same record, checksum kept, re-serialized with the checksum
    last -- what a reader that re-encodes to verify used to accept."""
    record = json.loads(line)
    record["c"] = record.pop("c")
    return json.dumps(record)


DAMAGE = [flipped, torn, respaced]


class TestCodec:
    @pytest.mark.parametrize("record,line", GOLDEN)
    def test_golden_line(self, record, line):
        assert log.encode(record) == line
        assert log.decode(line) == record

    @pytest.mark.parametrize("damage", DAMAGE)
    @pytest.mark.parametrize("record,line", GOLDEN)
    def test_damaged_line_rejected(self, record, line, damage):
        assert log.decode(damage(line)) is None

    def test_key_sorting_before_c_refused(self):
        for key in ("c", "b", "Kind", "_x", "0"):
            with pytest.raises(ValueError):
                log.encode({"kind": "meta", key: 1})
        with pytest.raises(ValueError):
            log.encode({})

    def test_claim_is_exclusive(self, tmp_path):
        prefix = str(tmp_path / "seg-")
        first, n1 = log.claim(prefix, ".jsonl")
        second, n2 = log.claim(prefix, ".jsonl")
        first.close()
        second.close()
        assert (n1, n2) == (0, 1)
        assert sorted(os.listdir(tmp_path)) == ["seg-0.jsonl", "seg-1.jsonl"]


class TestStoreReader:
    def test_writer_produces_golden_lines(self, tmp_path):
        cache = str(tmp_path / "cache")
        store = VerdictStore(cache)
        store.record_sc(
            "ab" * 20,
            Result(reads=((0, 1), (1,)), final_memory=(("x", 1), ("y", 2))),
            True,
        )
        store.record_run("cd" * 20, RUN_SUMMARY)
        store.close()
        (name,) = os.listdir(cache)
        with open(os.path.join(cache, name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[1:] == [STORE_SC_LINE, STORE_RUN_LINE]

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_damaged_line_dropped_and_quarantined(self, tmp_path, damage):
        cache = str(tmp_path / "cache")
        store = VerdictStore(cache)
        store.record_run("cd" * 20, RUN_SUMMARY)
        store.close()
        (name,) = os.listdir(cache)
        path = os.path.join(cache, name)
        with open(path, encoding="utf-8") as fh:
            header, run_line = fh.read().splitlines()
        good = log.encode({**STORE_RUN, "k": "ef" * 20})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([header, damage(run_line), good]) + "\n")
        reader = VerdictStore(cache)
        state = reader.load()
        assert reader.stats.dropped_lines == 1
        assert reader.stats.quarantined_segments == 1
        assert list(state.runs) == ["ef" * 20]


class TestJournalReader:
    @pytest.mark.parametrize("damage", DAMAGE)
    def test_damaged_line_dropped(self, tmp_path, damage):
        path = str(tmp_path / "journal.jsonl")
        other = {**JOURNAL_RUN, "pos": 6}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(damage(JOURNAL_RUN_LINE) + "\n")
            fh.write(log.encode(other) + "\n")
        state = CheckpointJournal.load(path)
        assert state.dropped_lines == 1
        assert list(state.runs) == [(2, 6)]

    def test_golden_line_loads(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(JOURNAL_RUN_LINE + "\n")
        state = CheckpointJournal.load(path)
        assert state.dropped_lines == 0
        assert state.runs == {(2, 5): JOURNAL_RUN["summary"]}


class TestSpoolReader:
    @pytest.mark.parametrize("damage", DAMAGE)
    def test_damaged_line_dropped(self, tmp_path, damage):
        spool = tmp_path / "spool"
        spool.mkdir()
        with open(spool / "hb-7-0.jsonl", "w", encoding="utf-8") as fh:
            fh.write(damage(SPOOL_BEAT_LINE) + "\n" + SPOOL_BEAT_LINE + "\n")
        reader = SpoolReader(str(spool))
        assert reader.poll() == [SPOOL_BEAT]
        assert reader.dropped_lines == 1

    def test_torn_tail_waits_for_its_newline(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        path = spool / "hb-7-0.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(torn(SPOOL_BEAT_LINE))
        reader = SpoolReader(str(spool))
        assert reader.poll() == []
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(SPOOL_BEAT_LINE[len(torn(SPOOL_BEAT_LINE)):] + "\n")
        assert reader.poll() == [SPOOL_BEAT]
        assert reader.dropped_lines == 0
