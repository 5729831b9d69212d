"""Runtime monitor for the five sufficient conditions of Section 5.1.

Appendix B proves these conditions sufficient for weak ordering with
respect to DRF0.  This monitor checks them *post hoc* on the timestamped
access records of a hardware run, giving an executable counterpart to the
proof: if an implementation claims to satisfy Section 5.1, every run must
pass; a violation pinpoints the offending accesses.

Condition 1 (intra-processor dependencies preserved) holds by construction
of the in-order front end (operands are evaluated at request time, reads
block for their values); the monitor re-checks its observable shadow --
that each processor's accesses are generated in program order.

Note on condition 3's globally-performed clause and condition 5: both
quantify over *commit* events of other processors' synchronization
operations, so the monitor checks them pairwise over the per-location
commit order of sync operations.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.types import OpKind
from repro.sim.access import AccessRecord
from repro.sim.system import MachineRun


@dataclass
class ConditionReport:
    """Violations found per Section-5.1 condition (empty lists = clean)."""

    run: MachineRun
    violations: Dict[str, List[str]] = field(default_factory=lambda: defaultdict(list))

    @property
    def ok(self) -> bool:
        """True when every checked condition held for this run."""
        return not any(self.violations.values())

    def add(self, condition: str, message: str) -> None:
        """Record one violation."""
        self.violations[condition].append(message)


def check_conditions(
    run: MachineRun, drf1_optimized: bool = False
) -> ConditionReport:
    """Check the Section-5.1 conditions on one hardware run.

    With ``drf1_optimized``, read-only synchronization operations are
    treated as data reads throughout: the Section-6 optimization
    deliberately removes them from the sync-serialization conditions
    (they spin on shared cached copies), which is sound under the DRF1
    software model but *not* under plain DRF0.
    """
    report = ConditionReport(run)
    if drf1_optimized:
        run = _demote_read_syncs(run)
    _check_condition1(run, report)
    _check_condition2(run, report)
    _check_condition3(run, report)
    _check_condition4(run, report)
    _check_condition5(run, report)
    return report


def _demote_read_syncs(run: MachineRun):
    """A view of the run where SYNC_READ accesses count as data reads."""
    view = copy.copy(run)
    view.raw_accesses = []
    for per_proc in run.raw_accesses:
        demoted = []
        for access in per_proc:
            if access.kind is OpKind.SYNC_READ:
                demoted.append(_as_data_read(access))
            else:
                demoted.append(access)
        view.raw_accesses.append(demoted)
    return view


def _as_data_read(access: AccessRecord) -> AccessRecord:
    """A DATA_READ copy of ``access`` with the same lifecycle timestamps.

    Built through the constructor so the record's kind-derived flags
    (``is_sync``, ``has_read``, ``has_write``) match the new kind.
    """
    clone = AccessRecord(
        access.uid, access.proc, access.po_index, OpKind.DATA_READ,
        access.location, access.write_value,
    )
    clone.value_read = access.value_read
    clone.generate_time = access.generate_time
    clone.commit_time = access.commit_time
    clone.gp_time = access.gp_time
    clone.missed = access.missed
    clone.nacks = access.nacks
    clone.buffered = access.buffered
    return clone


def _all_accesses(run: MachineRun) -> List[AccessRecord]:
    return [a for per_proc in run.raw_accesses for a in per_proc]


def _check_condition1(run: MachineRun, report: ConditionReport) -> None:
    """Program-order generation (observable shadow of dependency preservation)."""
    for proc, accesses in enumerate(run.raw_accesses):
        times = [a.generate_time for a in accesses if a.generated]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            report.add(
                "condition1",
                f"P{proc} generated accesses out of program order: {times}",
            )


def _check_condition2(run: MachineRun, report: ConditionReport) -> None:
    """Writes to one location are totally ordered by commit times."""
    by_location: Dict[str, List[AccessRecord]] = defaultdict(list)
    for access in _all_accesses(run):
        if access.has_write and access.committed:
            by_location[access.location].append(access)
    for location, writes in by_location.items():
        writes.sort(key=lambda a: a.commit_time)
        for w1, w2 in zip(writes, writes[1:]):
            if w1.proc != w2.proc and w1.commit_time == w2.commit_time:
                report.add(
                    "condition2",
                    f"writes to {location} by P{w1.proc} and P{w2.proc} "
                    f"committed at the same cycle {w1.commit_time}",
                )


def _check_condition3(run: MachineRun, report: ConditionReport) -> None:
    """Per-location sync ops: commit order == globally-performed order,
    and an earlier sync is fully done before a later one starts."""
    by_location: Dict[str, List[AccessRecord]] = defaultdict(list)
    for access in _all_accesses(run):
        if access.is_sync and access.committed:
            by_location[access.location].append(access)
    for location, syncs in by_location.items():
        syncs.sort(key=lambda a: a.commit_time)
        for s1, s2 in zip(syncs, syncs[1:]):
            if s1.proc == s2.proc:
                continue
            if s1.globally_performed and s2.globally_performed:
                if s1.gp_time > s2.gp_time:
                    report.add(
                        "condition3",
                        f"sync ops on {location}: commit order P{s1.proc}"
                        f"@{s1.commit_time} < P{s2.proc}@{s2.commit_time} but "
                        f"gp order reversed ({s1.gp_time} > {s2.gp_time})",
                    )
            if s1.globally_performed and s1.gp_time > s2.commit_time:
                report.add(
                    "condition3",
                    f"sync {location}: P{s1.proc}'s op globally performed at "
                    f"{s1.gp_time}, after P{s2.proc}'s committed at "
                    f"{s2.commit_time}",
                )


def _check_condition4(run: MachineRun, report: ConditionReport) -> None:
    """No access generated until all previous sync ops committed."""
    for proc, accesses in enumerate(run.raw_accesses):
        for i, access in enumerate(accesses):
            if not access.generated:
                continue
            for earlier in accesses[:i]:
                if earlier.is_sync and (
                    not earlier.committed
                    or earlier.commit_time > access.generate_time
                ):
                    report.add(
                        "condition4",
                        f"P{proc} generated access #{access.uid} at "
                        f"{access.generate_time} before sync #{earlier.uid} "
                        f"committed ({earlier.commit_time})",
                    )


def _check_condition5(run: MachineRun, report: ConditionReport) -> None:
    """After Pi's sync S commits, no other processor's sync on the same
    location commits until Pi's pre-S reads committed and writes globally
    performed."""
    by_location: Dict[str, List[AccessRecord]] = defaultdict(list)
    for access in _all_accesses(run):
        if access.is_sync and access.committed:
            by_location[access.location].append(access)
    for location, syncs in by_location.items():
        syncs.sort(key=lambda a: a.commit_time)
        for i, s1 in enumerate(syncs):
            owner = run.raw_accesses[s1.proc]
            before = [
                a
                for a in owner
                if a.generated
                and a.generate_time is not None
                and a.po_index < s1.po_index
            ]
            for s2 in syncs[i + 1 :]:
                if s2.proc == s1.proc:
                    continue
                for a in before:
                    if a.has_read and (
                        not a.committed or a.commit_time > s2.commit_time
                    ):
                        report.add(
                            "condition5",
                            f"{location}: P{s2.proc} sync committed at "
                            f"{s2.commit_time} before P{s1.proc}'s earlier "
                            f"read #{a.uid} committed",
                        )
                    if a.has_write and (
                        not a.globally_performed or a.gp_time > s2.commit_time
                    ):
                        report.add(
                            "condition5",
                            f"{location}: P{s2.proc} sync committed at "
                            f"{s2.commit_time} before P{s1.proc}'s earlier "
                            f"write #{a.uid} was globally performed",
                        )
