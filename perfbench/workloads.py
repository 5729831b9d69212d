"""The campaign workloads and their output checks.

Every campaign goes through the public ``VerificationEngine`` API, the
way ``repro sweep`` / ``repro fuzz`` drive it.  Inputs
come only from the benchmark seed; the checks below depend on neither
that seed nor the interpreter's hash seed, and compare against no
recorded cycle counts.

A workload is used in two halves: :meth:`Workload.build` is set-up
(for ``sweep-warm``, so is one cold :meth:`Workload.run` filling the
verdict store), and :meth:`Workload.run` is one campaign.  The
benchmark runs each campaign in a freshly forked process, so it starts
as cold as a user's CLI run after imports: no explorer, compile or
fingerprint memo carries over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hw import POLICY_FACTORIES
from repro.litmus import by_name
from repro.verify.engine import VerificationEngine
from repro.workloads import lock_workload

#: ``repro sweep``'s default program suite and policy set.
SWEEP_PROGRAMS = ("MP+sync", "SB+sync", "TAS", "lock", "SB")
SWEEP_POLICIES = tuple(name for name in sorted(POLICY_FACTORIES) if name != "relaxed")
SWEEP_SEEDS = 200

FUZZ_PROGRAMS = 200
#: Five substrate configs x 3 SC-policy hardware seeds, plus the three
#: liveness policies on each config except Adve-Hill on the cacheless one.
FUZZ_RUNS_PER_PROGRAM = 5 * 3 + 5 * 3 - 1

@dataclass
class Outcome:
    """What one campaign delivered, reduced to plain data in the child."""

    runs: int
    programs: int
    #: Comparable campaign output: equal outputs mean equal answers.
    output: object
    sc_cache: Tuple[int, int] = (0, 0)
    drf0_cache: Tuple[int, int] = (0, 0)
    store: Dict[str, int] = field(default_factory=dict)


def _cache_counts(cache) -> Tuple[int, int]:
    return cache.stats.hits, cache.stats.misses


class Workload:
    name = ""
    jobs = 1

    def build(self, seed: int):
        """Set-up: the campaign's inputs, made from ``seed`` alone."""
        raise NotImplementedError

    def run(self, inputs, cache_dir: Optional[str] = None, jobs: Optional[int] = None) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome, inputs, reference: Optional[Outcome]) -> List[Tuple[str, bool]]:
        """Named pass/fail output checks for one campaign."""
        raise NotImplementedError


class SweepWarm(Workload):
    """``definition2_sweep`` (default programs x policies x 200 seeds)
    against a verdict store that set-up fills by running it cold.

    The cold sweep is not a workload of its own: its serial campaigns
    spread too widely between runs on a small shared host.
    """

    name = "sweep-warm"

    def build(self, seed):
        programs = [
            lock_workload(3, 1) if name == "lock" else by_name(name).program
            for name in SWEEP_PROGRAMS
        ]
        factories = {name: POLICY_FACTORIES[name] for name in SWEEP_POLICIES}
        seeds = range(seed * SWEEP_SEEDS, (seed + 1) * SWEEP_SEEDS)
        return programs, factories, seeds

    def run(self, inputs, cache_dir=None, jobs=None):
        programs, factories, seeds = inputs
        engine = VerificationEngine(jobs=jobs or self.jobs, cache_dir=cache_dir)
        try:
            evidence = engine.definition2_sweep(
                programs, factories, seeds=seeds, exhaustive_drf0=True
            )
        finally:
            if engine.store is not None:
                engine.store.close()
        return Outcome(
            runs=len(programs) * len(factories) * len(seeds),
            programs=len(programs),
            output=(evidence.contract_holds, evidence.rows),
            sc_cache=_cache_counts(engine.sc_cache),
            drf0_cache=_cache_counts(engine.drf0_cache),
            store=engine.store.stats.as_dict() if engine.store is not None else {},
        )

    def check(self, outcome, inputs, reference):
        """``reference`` is the cold sweep that filled the store."""
        contract_holds, rows = outcome.output
        programs, factories, _seeds = inputs
        cells = {(row["program"], row["policy"]) for row in rows}
        expected = {(p.name, policy) for p in programs for policy in factories}
        drf0_programs = {row["program"] for row in rows if row["program_drf0"]}
        return [
            ("sweep.contract_holds", contract_holds),
            ("sweep.rows_cover_grid", cells == expected and len(rows) == len(expected)),
            ("sweep.drf0_rows_appear_sc", all(row["appears_sc"] for row in rows if row["program_drf0"])),
            (
                "sweep.drf0_programs_under_every_policy",
                all(
                    (program, policy) in cells
                    for program in drf0_programs
                    for policy in factories
                ),
            ),
            ("sweep-warm.rows_equal_cold", outcome.output == reference.output),
            ("sweep-warm.all_runs_reused", outcome.store.get("runs_reused") == outcome.runs),
        ]


class Fuzz(Workload):
    """``fuzz`` over 200 generated programs with two workers."""

    name = "fuzz-j2"
    jobs = 2

    def build(self, seed):
        return range(seed * FUZZ_PROGRAMS, (seed + 1) * FUZZ_PROGRAMS)

    def run(self, program_seeds, cache_dir=None, jobs=None):
        engine = VerificationEngine(jobs=jobs or self.jobs)
        report = engine.fuzz(program_seeds)
        return Outcome(
            runs=report.hardware_runs,
            programs=report.programs_run,
            output=(report.programs_run, report.hardware_runs, report.failures),
            sc_cache=_cache_counts(engine.sc_cache),
        )

    def check(self, outcome, inputs, reference):
        programs_run, hardware_runs, failures = outcome.output
        checks = [
            ("fuzz.no_failures", not failures),
            ("fuzz.programs_run", programs_run == len(inputs)),
            ("fuzz.hardware_runs", hardware_runs == FUZZ_RUNS_PER_PROGRAM * len(inputs)),
        ]
        if reference is not None:
            checks.append(("fuzz.equals_jobs1", outcome.output == reference.output))
        return checks


WORKLOADS = {w.name: w for w in (Fuzz(), SweepWarm())}
