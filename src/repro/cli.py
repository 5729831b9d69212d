"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``litmus [NAME ...]`` -- run catalog tests on simulated hardware and
  report interesting-outcome observation + the Definition-2 verdict;
* ``drf0 NAME`` -- exhaustive Definition-3 verdict for a catalog program,
  with the witnessing execution when racy;
* ``models [NAME ...]`` -- axiomatic admission table (SC / TSO /
  coherence / WO-DRF0) for straight-line catalog tests;
* ``simulate NAME`` -- one hardware run with timing details;
* ``sweep [NAME ...]`` -- Definition-2 evidence table (programs x policies
  x seeds) via the parallel verification engine (``--jobs N``);
* ``fuzz`` -- random programs against every oracle (``--jobs N``);
* ``delays NAME`` -- Shasha-Snir delay pairs for a straight-line test;
* ``profile`` -- one workload under one or two policies with the full
  observability stack: Perfetto trace out, metrics out, and the
  per-processor per-cause stall-attribution table (Figure 3 as numbers);
* ``chaos`` -- the resilience suite: every delivery-preserving fault plan
  must leave the Definition-2 verdict table untouched, every
  delivery-violating plan must be flagged by the liveness machinery;
  ``--service DIR`` adds the process-level half -- kill fleet workers
  mid-campaign and SIGKILL/restart the daemon itself, then require the
  evidence rows byte-identical to a serial in-process sweep;
* ``cache DIR {stats,audit,compact}`` -- inspect, re-judge, or compact a
  persistent verdict store (the directory ``--cache-dir`` writes);
* ``serve DIR`` -- the fault-tolerant campaign daemon: accepts
  verification campaigns over a local HTTP/JSON protocol, shards them
  across a supervised worker fleet (leases, retries with backoff,
  circuit-breaker serial degradation), checkpoints through the journal,
  and resumes mid-flight campaigns after a restart (``docs/service.md``);
* ``submit [NAME ...]`` -- send a campaign to a running daemon and print
  the same evidence table ``sweep`` prints (daemon answers repeat
  submissions from its shared verdict store);
* ``campaigns [ID]`` -- list or inspect a daemon's campaigns, stream a
  campaign's status-snapshot history, or ask the daemon to drain;
* ``status PATH`` / ``top PATH`` -- render a live campaign's
  ``--status-json`` snapshot once, or as a refreshing stdlib-ANSI view
  (``sweep``/``fuzz``/``chaos``/``drf0`` all accept ``--status-json``);
* ``catalog`` -- list available litmus tests and workloads.

Persistence: ``sweep``, ``fuzz``, and ``chaos`` accept ``--cache-dir DIR``
-- a content-addressed verdict store shared across runs and processes;
warm runs skip already-judged verdicts and already-simulated hardware
runs while producing byte-identical output (see ``docs/caching.md``).

Fault injection: ``simulate`` and ``sweep`` accept ``--faults PLAN``
(see ``repro chaos`` for the plan names), ``--fault-seed N``, and
``--watchdog CYCLES``.  ``sweep`` also accepts ``--journal FILE`` /
``--resume`` (checkpointed, crash-tolerant sweeps) and ``--task-timeout``.
Usage errors (bad flag combinations) exit with status 2; liveness
failures print a per-processor diagnosis and exit 1 instead of hanging.

Workload names (``lock``, ``ttas``, ``prodcons``, ``barrier``, ``phases``,
``critical_section``) are accepted wherever a program is expected.

Observability: ``simulate``, ``litmus``, ``drf0``, ``sweep``, and
``profile`` accept ``--trace-out FILE`` (Chrome trace-event JSON, loadable
in Perfetto) and ``--metrics-json FILE``; ``simulate`` and ``drf0`` accept
``--json`` for machine-readable stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.analysis import analyze
from repro.axiomatic import (
    CoherenceModel,
    SCModel,
    TSOModel,
    UnsupportedProgram,
    WeakOrderingDRF,
    allowed_results,
)
from repro.core.contract import appears_sc
from repro.core.drf0 import check_program, check_program_sampled
from repro.hw import POLICY_FACTORIES
from repro.litmus import all_tests, by_name
from repro.litmus.figures import figure3_program
from repro.machine.program import Program
from repro.sim.system import SystemConfig, run_on_hardware
from repro.workloads import (
    barrier_workload,
    lock_workload,
    phase_parallel_workload,
    producer_consumer_workload,
    work_queue_workload,
)

WORKLOAD_FACTORIES = {
    "lock": lambda: lock_workload(3, 1),
    "ttas": lambda: lock_workload(3, 1, ttas=True),
    "prodcons": lambda: producer_consumer_workload(batch_size=6),
    "barrier": lambda: barrier_workload(num_procs=3, phases=1),
    "phases": lambda: phase_parallel_workload(num_procs=3, chunk=2, phases=1),
    "workqueue": lambda: work_queue_workload(num_consumers=2, num_items=4),
    # Figure 3's release/acquire handoff with cold invalidations and
    # post-release work -- the stall-attribution showcase.
    "critical_section": lambda: figure3_program(
        num_extra_sharers=2, post_release_work=80
    ),
}


def _canon_policy(name: str) -> str:
    """Accept ``adve_hill`` for ``adve-hill`` etc. (underscore tolerance)."""
    return name.replace("_", "-")


def _resolve_program(name: str) -> Program:
    if name in WORKLOAD_FACTORIES:
        return WORKLOAD_FACTORIES[name]()
    try:
        return by_name(name).program
    except KeyError:
        raise SystemExit(
            f"unknown program {name!r}; see `python -m repro catalog`"
        )


def _usage_error(message: str) -> "SystemExit":
    """One-line usage error on stderr, exit status 2 (argparse convention)."""
    print(f"repro: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _config_from_args(args) -> SystemConfig:
    fault_plan = None
    plan_name = getattr(args, "faults", None)
    if plan_name is not None:
        from repro.sim.faults import FAULT_PLANS

        fault_plan = FAULT_PLANS[plan_name]
        fault_seed = getattr(args, "fault_seed", None)
        if fault_seed is not None:
            fault_plan = fault_plan.with_seed(fault_seed)
    return SystemConfig(
        topology=args.topology,
        caches=not args.no_caches,
        seed=args.seed,
        net_latency=args.net_latency,
        cache_capacity=args.capacity,
        fault_plan=fault_plan,
        watchdog_cycles=getattr(args, "watchdog", None),
    )


def _make_tracer(args, force: bool = False):
    """A recording tracer when ``--trace-out`` (or ``force``) asks for one."""
    if force or getattr(args, "trace_out", None):
        from repro.obs import RecordingTracer

        return RecordingTracer()
    return None


def _write_obs_outputs(args, tracer=None, registry=None) -> None:
    """Write ``--trace-out`` / ``--metrics-json`` files if requested.

    Confirmations go to stderr so ``--json`` stdout stays machine-clean.
    """
    trace_out = getattr(args, "trace_out", None)
    if trace_out and tracer is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(trace_out, tracer)
        print(
            f"trace: {len(tracer)} events -> {trace_out}", file=sys.stderr
        )
    metrics_json = getattr(args, "metrics_json", None)
    if metrics_json and registry is not None:
        with open(metrics_json, "w", encoding="utf-8") as handle:
            json.dump(registry.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics -> {metrics_json}", file=sys.stderr)


def _make_monitor(args, command: str):
    """A :class:`~repro.obs.CampaignMonitor` when ``--status-json`` asks.

    Must be constructed *before* the engine (and before any worker pool
    forks) so the spool directory is published into the pre-fork module
    state every worker inherits.
    """
    path = getattr(args, "status_json", None)
    if not path:
        return None
    from repro.obs import CampaignMonitor

    return CampaignMonitor(path, command=command)


def _load_snapshot(path: str) -> dict:
    """Read one ``--status-json`` snapshot (raises OSError/ValueError)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def cmd_catalog(args) -> int:
    print("litmus tests:")
    for test in all_tests():
        flags = "DRF0" if test.drf0 else "racy"
        print(f"  {test.name:<14} [{flags}]  {test.description}")
    print("\nworkloads:", ", ".join(sorted(WORKLOAD_FACTORIES)))
    return 0


def cmd_litmus(args) -> int:
    tests = [by_name(n) for n in args.names] if args.names else all_tests()
    factory = POLICY_FACTORIES[args.policy]
    config = _config_from_args(args)
    tracer = _make_tracer(args)
    registry = None
    if args.metrics_json:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    failures = 0
    print(f"{'test':<14}{'DRF0':<7}{'outcome':<12}{'appears-SC':<12}{'contract'}")
    for test in tests:
        results = set()
        for s in range(args.seeds):
            if tracer is not None:
                with tracer.scope(f"{test.name}/s{s}"):
                    run = run_on_hardware(
                        test.program, factory(), config.with_seed(s),
                        tracer=tracer,
                    )
            else:
                run = run_on_hardware(
                    test.program, factory(), config.with_seed(s)
                )
            if registry is not None:
                from repro.obs import run_metrics

                run_metrics(run, registry, prefix="sim")
            results.add(run.result)
        observed = test.outcome_observed(results)
        contract = appears_sc(test.program, results)
        respected = contract.appears_sc or not test.drf0
        if not respected:
            failures += 1
        print(
            f"{test.name:<14}"
            f"{'yes' if test.drf0 else 'no':<7}"
            f"{'observed' if observed else 'never':<12}"
            f"{'yes' if contract.appears_sc else 'no':<12}"
            f"{'ok' if respected else 'VIOLATED'}"
        )
    _write_obs_outputs(args, tracer, registry)
    return 1 if failures else 0


def _print_explorer_stats(stats, elapsed: Optional[float] = None) -> None:
    """Render an :class:`~repro.core.engine_state.ExplorerStats` block."""
    if stats is None:
        print("  explorer stats: not collected for this mode")
        return
    print(
        f"  explorer stats: {stats.states} states, "
        f"{stats.transitions} transitions, {stats.executions} executions"
    )
    print(
        f"                  max undo depth {stats.max_depth}, "
        f"{stats.sleep_cuts} sleep-set cuts, "
        f"peak visited-set size {stats.peak_visited}"
    )
    if elapsed is not None and elapsed > 0:
        print(f"                  {stats.states / elapsed:,.0f} states/sec")


def cmd_drf0(args) -> int:
    import time

    from repro.core.sc import ExplorationConfig

    program = _resolve_program(args.name)
    tracer = _make_tracer(args)
    # The drf0 command drives the explorer directly (no engine), so the
    # monitor plans its single cell here; shard workers spawned by
    # --explore-jobs heartbeat into the same spool and the exploration
    # coordinator polls them into the snapshot as the run progresses.
    monitor = _make_monitor(args, f"drf0 {args.name}")
    if monitor is not None:
        monitor.claim_plan()
        monitor.plan([(program.name, 1, 0.0)])
        monitor.poll(force=True)
    start = time.perf_counter()
    try:
        if args.sampled:
            report = check_program_sampled(program, seeds=range(args.seeds))
            mode = f"sampled over {report.executions_checked} executions"
        elif args.dpor:
            from repro.core.dpor import check_program_dpor

            cfg = ExplorationConfig(
                sleep_sets=not args.no_sleep_sets,
                tracer=tracer,
                explore_jobs=args.explore_jobs,
            )
            report = check_program_dpor(program, config=cfg)
            mode = (
                f"DPOR over {report.executions_checked} "
                "representative executions"
            )
            if args.no_sleep_sets:
                mode += ", sleep sets off"
        else:
            report = check_program(
                program,
                config=ExplorationConfig(
                    max_ops=400, tracer=tracer, explore_jobs=args.explore_jobs
                ),
            )
            mode = f"exhaustive over {report.executions_checked} executions"
    except BaseException as exc:
        if monitor is not None:
            monitor.fail(f"{type(exc).__name__}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    if monitor is not None:
        monitor.unit_done(0)
        monitor.observe_cell_us(0, elapsed * 1e6)
        monitor.finish(
            ok=True,
            result={
                "obeys": report.obeys,
                "executions_checked": report.executions_checked,
            },
        )
    registry = None
    if args.metrics_json:
        from repro.obs import explorer_metrics

        registry = explorer_metrics(report.stats)
    if args.json:
        payload = {
            "program": program.name,
            "mode": mode,
            "obeys": report.obeys,
            "executions_checked": report.executions_checked,
            "race": str(report.race) if report.race is not None else None,
            "elapsed_seconds": elapsed,
            "explorer_stats": (
                report.stats.as_dict() if report.stats is not None else None
            ),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"{program.name}: "
            f"{'obeys' if report.obeys else 'violates'} DRF0 ({mode})"
        )
        if args.stats:
            _print_explorer_stats(report.stats, elapsed)
        if report.race is not None:
            print(f"  race: {report.race}")
            if report.witness is not None and args.witness:
                print("  witnessing idealized execution:")
                for op in report.witness.ops:
                    print(f"    {op}")
    _write_obs_outputs(args, tracer, registry)
    return 0 if report.obeys else 1


def cmd_models(args) -> int:
    tests = [by_name(n) for n in args.names] if args.names else all_tests()
    models = [
        ("SC", SCModel()),
        ("TSO", TSOModel()),
        ("COH", CoherenceModel()),
        ("WO-DRF0", WeakOrderingDRF()),
    ]
    print(f"{'test':<14}" + "".join(f"{name:<9}" for name, _ in models))
    for test in tests:
        cells = []
        for _, model in models:
            try:
                results = allowed_results(test.program, model)
                cells.append("yes" if test.outcome_observed(results) else "no")
            except UnsupportedProgram:
                cells.append("-")
        print(f"{test.name:<14}" + "".join(f"{c:<9}" for c in cells))
    return 0


def cmd_simulate(args) -> int:
    from repro.sim.system import LivenessError

    program = _resolve_program(args.name)
    factory = POLICY_FACTORIES[args.policy]
    tracer = _make_tracer(args, force=args.trace)
    try:
        run = run_on_hardware(
            program, factory(), _config_from_args(args), tracer=tracer
        )
    except LivenessError as exc:
        # A fault plan (or a policy bug) stalled the machine: report which
        # processor is stuck on what, instead of a traceback.
        print(exc.diagnosis(), file=sys.stderr)
        return 1
    verdict = appears_sc(program, [run.result])
    registry = None
    if args.metrics_json or args.json:
        from repro.obs import run_metrics

        registry = run_metrics(run)
    if args.json:
        payload = {
            "program": program.name,
            "policy": run.policy_name,
            "cycles": run.cycles,
            "messages": run.messages_sent,
            "appears_sc": verdict.appears_sc,
            "reads": [list(r) for r in run.result.reads],
            "final_memory": dict(run.result.final_memory),
            "proc_stats": [s.as_dict() for s in run.proc_stats],
            "cache_stats": run.cache_stats,
            "directory_stats": run.directory_stats,
            "metrics": registry.as_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        from repro.report import summarize

        print(summarize(run))
        print(f"result    : {run.result}")
        if args.trace:
            from repro.obs import render_event_stream, render_stall_table

            print()
            print(render_stall_table(run))
            print()
            print(render_event_stream(tracer.events))
        print(f"appears SC: {verdict.appears_sc}")
    _write_obs_outputs(args, tracer, registry)
    return 0


#: Default sweep suite: the DRF0 programs E5 rests on, plus one racy
#: control so the premise side of Definition 2 shows up in the table.
DEFAULT_SWEEP_PROGRAMS = ["MP+sync", "SB+sync", "TAS", "lock", "SB"]


def _print_evidence_table(rows) -> None:
    """The Definition-2 evidence table -- shared by ``sweep`` and
    ``submit`` so a daemon campaign's output diffs clean against the
    batch path's."""
    print(
        f"{'program':<14}{'DRF0':<7}{'policy':<22}{'appears-SC':<12}"
        f"{'distinct':<10}{'5.1-viol':<10}{'mean cycles'}"
    )
    for row in rows:
        print(
            f"{row['program']:<14}"
            f"{'yes' if row['program_drf0'] else 'no':<7}"
            f"{row['policy']:<22}"
            f"{'yes' if row['appears_sc'] else 'NO':<12}"
            f"{row['distinct_results']:<10}"
            f"{len(row['condition_violations']):<10}"
            f"{row['mean_cycles']:.1f}"
        )


def cmd_sweep(args) -> int:
    from repro.sim.system import LivenessError
    from repro.verify.engine import VerificationEngine
    from repro.verify.journal import JournalError

    if args.jobs < 0:
        raise _usage_error(
            f"--jobs must be >= 0 (got {args.jobs}); 0 means one per CPU"
        )
    if args.explore_jobs < 0:
        raise _usage_error(
            f"--explore-jobs must be >= 0 (got {args.explore_jobs}); "
            "0 means one per CPU"
        )
    if args.resume and not args.journal:
        raise _usage_error("--resume requires --journal FILE")
    names = args.names or DEFAULT_SWEEP_PROGRAMS
    programs = [_resolve_program(name) for name in names]
    policy_names = args.policy or [
        name for name in sorted(POLICY_FACTORIES) if name != "relaxed"
    ]
    factories = {name: POLICY_FACTORIES[name] for name in policy_names}
    tracer = _make_tracer(args)
    registry = None
    if args.metrics_json:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    monitor = _make_monitor(args, "sweep " + " ".join(names))
    engine = VerificationEngine(
        jobs=args.jobs, explore_jobs=args.explore_jobs, tracer=tracer,
        metrics=registry, task_timeout=args.task_timeout,
        cache_dir=args.cache_dir, monitor=monitor,
    )
    try:
        evidence = engine.definition2_sweep(
            programs,
            factories,
            config=_config_from_args(args),
            seeds=range(args.seeds),
            drf0_seeds=range(args.drf0_seeds),
            exhaustive_drf0=args.exhaustive_drf0,
            check_51_conditions=args.check_51,
            journal_path=args.journal,
            resume=args.resume,
        )
    except JournalError as exc:
        if monitor is not None:
            monitor.fail(str(exc))
        raise _usage_error(str(exc))
    except LivenessError as exc:
        if monitor is not None:
            monitor.fail(exc.diagnosis())
        print(exc.diagnosis(), file=sys.stderr)
        return 1
    except BaseException as exc:
        if monitor is not None:
            monitor.fail(f"{type(exc).__name__}: {exc}")
        raise
    reused = engine.resilience.get("journal_units_reused")
    if reused:
        print(
            f"resumed from {args.journal}: {reused} journaled work units "
            "reused",
            file=sys.stderr,
        )
    if engine.store is not None:
        stats = engine.store.stats
        print(
            f"cache {args.cache_dir}: {stats.loaded_sc} SC + "
            f"{stats.loaded_drf0} DRF0 verdicts loaded, "
            f"{stats.runs_reused} hardware runs reused, "
            f"{stats.flushed_sc + stats.flushed_drf0 + stats.flushed_runs} "
            "new records flushed",
            file=sys.stderr,
        )
        engine.store.close()
    _print_evidence_table(evidence.rows)
    holds = evidence.contract_holds
    if monitor is not None:
        # The snapshot embeds the evidence rows verbatim, so the final
        # status file's verdict table is byte-identical to this output.
        monitor.finish(
            ok=holds,
            verdicts=evidence.rows,
            result={"contract_holds": holds},
        )
    if args.stats:
        print("\noracle work (SC-membership judgments + DRF0 verdicts):")
        _print_explorer_stats(engine.explorer_stats)
    print(f"\nDefinition-2 contract: {'holds' if holds else 'VIOLATED'}")
    if registry is not None:
        engine.metrics_snapshot(registry)
    _write_obs_outputs(args, tracer, registry)
    return 0 if holds else 1


def cmd_profile(args) -> int:
    """One workload under one or two policies, fully instrumented.

    The default comparison policy (``definition1``) against the default
    profile policy (``adve-hill``) reproduces Figure 3 quantitatively:
    Definition 1 charges the release-side stall to the *releasing*
    processor (a ``gate:gp`` stall at its unset), while the Adve-Hill
    Section-5.3 implementation lets the release proceed and moves the
    wait to the *acquiring* processor (reserve-bit NACKs on its
    test&set).
    """
    from repro.obs import (
        MetricsRegistry,
        render_stall_comparison,
        run_metrics,
    )

    program = _resolve_program(args.workload)
    config = _config_from_args(args)
    policies = [args.policy]
    if args.compare and args.compare not in policies:
        policies.append(args.compare)
    for name in policies:
        if name not in POLICY_FACTORIES:
            raise SystemExit(
                f"unknown policy {name!r}; choose from "
                f"{', '.join(sorted(POLICY_FACTORIES))}"
            )
    tracer = _make_tracer(args)
    registry = MetricsRegistry() if args.metrics_json else None
    runs = {}
    for name in policies:
        factory = POLICY_FACTORIES[name]
        if tracer is not None:
            with tracer.scope(name):
                run = run_on_hardware(program, factory(), config, tracer=tracer)
        else:
            run = run_on_hardware(program, factory(), config)
        if registry is not None:
            run_metrics(run, registry, prefix=f"sim.{name}")
        runs[name] = run
    print(
        f"profile: {program.name!r} under {', '.join(policies)} "
        f"(topology {config.topology}, seed {config.seed})"
    )
    print()
    print(render_stall_comparison(runs))
    _write_obs_outputs(args, tracer, registry)
    return 0


def cmd_delays(args) -> int:
    program = _resolve_program(args.name)
    try:
        analysis = analyze(program)
    except UnsupportedProgram as exc:
        raise SystemExit(str(exc))
    if analysis.needs_no_delays:
        print(f"{program.name}: no delay pairs needed")
        return 0
    print(f"{program.name}: {len(analysis.delay_pairs)} delay pair(s)")
    for line in analysis.describe():
        print(f"  {line}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Weak Ordering -- A New Definition (ISCA 1990) reproduction",
    )
    parser.add_argument(
        "--interpreted-engine", action="store_true",
        help="run explorers on the interpreted EngineState instead of the "
             "compiled engine (differential debugging; same answers, slower)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_hw_args(p, single_policy=True):
        if single_policy:
            p.add_argument("--policy", type=_canon_policy,
                           choices=sorted(POLICY_FACTORIES),
                           default="adve-hill")
        p.add_argument("--topology", choices=["bus", "network"], default="network")
        p.add_argument("--no-caches", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seeds", type=int, default=20)
        p.add_argument("--net-latency", type=int, default=3)
        p.add_argument("--capacity", type=int, default=None)

    def add_obs_args(p):
        p.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write a Chrome trace-event JSON file "
                            "(load in Perfetto / chrome://tracing)")
        p.add_argument("--metrics-json", metavar="FILE", default=None,
                       help="write the metrics registry as JSON")

    def add_status_arg(p):
        p.add_argument("--status-json", metavar="FILE", default=None,
                       help="write a live, atomically-replaced campaign "
                            "status snapshot (per-worker heartbeats, "
                            "completion %%, ETA); poll it with "
                            "`repro status FILE` or `repro top FILE`")

    def add_fault_args(p):
        from repro.sim.faults import FAULT_PLANS

        p.add_argument("--faults", choices=sorted(FAULT_PLANS),
                       default=None, metavar="PLAN",
                       help="inject a named deterministic fault plan "
                            f"({', '.join(sorted(FAULT_PLANS))})")
        p.add_argument("--fault-seed", type=int, default=None,
                       help="override the fault plan's seed (same plan + "
                            "same seeds = bit-identical faults)")
        p.add_argument("--watchdog", type=int, default=None, metavar="CYCLES",
                       help="liveness watchdog: abort with a per-processor "
                            "stall diagnosis after CYCLES cycles without "
                            "architectural progress")

    p = sub.add_parser("catalog", help="list litmus tests and workloads")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("litmus", help="run litmus tests on simulated hardware")
    p.add_argument("names", nargs="*")
    add_hw_args(p)
    add_obs_args(p)
    p.set_defaults(func=cmd_litmus)

    p = sub.add_parser("drf0", help="Definition-3 verdict for a program")
    p.add_argument("name")
    p.add_argument("--sampled", action="store_true")
    p.add_argument("--dpor", action="store_true",
                   help="partial-order reduction (bounded programs)")
    p.add_argument("--no-sleep-sets", action="store_true",
                   help="with --dpor: disable the sleep-set pruning layer")
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--explore-jobs", type=int, default=1,
                   help="shard the exploration across N forked engine "
                        "processes (0 = one per CPU); the verdict is "
                        "identical to --explore-jobs 1")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="print explorer counters (states/sec, undo depth, "
                        "sleep-set cuts, peak visited-set size)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable verdict on stdout")
    add_obs_args(p)
    add_status_arg(p)
    p.set_defaults(func=cmd_drf0)

    p = sub.add_parser("models", help="axiomatic admission table")
    p.add_argument("names", nargs="*")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("simulate", help="one hardware run with timing details")
    p.add_argument("name")
    p.add_argument("--trace", action="store_true",
                   help="print the stall-attribution table and the "
                        "chronological event stream of the run")
    p.add_argument("--json", action="store_true",
                   help="machine-readable run report on stdout")
    add_hw_args(p)
    add_fault_args(p)
    add_obs_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "sweep",
        help="Definition-2 evidence sweep (programs x policies x seeds)",
    )
    p.add_argument("names", nargs="*",
                   help=f"programs to sweep (default: {DEFAULT_SWEEP_PROGRAMS})")
    add_hw_args(p, single_policy=False)
    p.add_argument("--policy", action="append", type=_canon_policy,
                   choices=sorted(POLICY_FACTORIES), metavar="POLICY",
                   help="policy to include, repeatable (default: all except "
                        "the broken 'relaxed' strawman)")
    p.add_argument("--drf0-seeds", type=int, default=30,
                   help="seeds for the sampled DRF0 premise check")
    p.add_argument("--exhaustive-drf0", action="store_true",
                   help="enumerate every interleaving for the DRF0 verdict")
    p.add_argument("--check-51", action="store_true",
                   help="run the Section-5.1 condition monitor on every run")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = one per CPU); output is "
                        "identical to --jobs 1")
    p.add_argument("--explore-jobs", type=int, default=1,
                   help="intra-cell parallelism: shard expensive oracle "
                        "explorations across N forked engine processes "
                        "(0 = one per CPU); evidence is identical to "
                        "--explore-jobs 1")
    p.add_argument("--stats", action="store_true",
                   help="print aggregate explorer counters for the oracle "
                        "work the sweep dispatched")
    p.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="abandon and resubmit a pooled task stuck longer "
                        "than this (hung-worker recovery)")
    p.add_argument("--journal", metavar="FILE", default=None,
                   help="append every completed work unit to a checkpoint "
                        "journal as the sweep runs")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="persistent verdict store: warm-start from DIR and "
                        "flush new verdicts/run summaries back (identical "
                        "output, large speedup on repeat runs)")
    p.add_argument("--resume", action="store_true",
                   help="load the --journal file and recompute only the "
                        "work units it is missing")
    add_fault_args(p)
    add_obs_args(p)
    add_status_arg(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "profile",
        help="instrumented run(s) with stall attribution and trace export",
    )
    p.add_argument("--workload", required=True, metavar="NAME",
                   help="workload or litmus test to profile")
    p.add_argument("--compare", type=_canon_policy, default="definition1",
                   metavar="POLICY",
                   help="second policy for the side-by-side stall table "
                        "(default: definition1; empty string disables)")
    add_hw_args(p)
    add_obs_args(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("delays", help="Shasha-Snir delay pairs")
    p.add_argument("name")
    p.set_defaults(func=cmd_delays)

    p = sub.add_parser(
        "fuzz",
        help="random programs vs all oracles (enumerators + SC hardware)",
    )
    p.add_argument("--programs", type=int, default=20)
    p.add_argument("--start-seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = one per CPU); output is "
                        "identical to --jobs 1")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="persistent verdict store shared across runs")
    p.add_argument("--metrics-json", metavar="FILE", default=None,
                   help="write engine metrics (incl. aggregated cache hit "
                        "rates and store counters) as JSON")
    add_status_arg(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "diff",
        help="differential campaign: axiomatic solver vs enumerator vs "
             "operational explorers vs the hardware simulator",
    )
    p.add_argument("--programs", type=int, default=200)
    p.add_argument("--start-seed", type=int, default=0)
    p.add_argument("--hw-seeds", type=int, default=2,
                   help="hardware nondeterminism seeds per substrate")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = one per CPU); output is "
                        "identical to --jobs 1")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="persistent verdict store shared across runs")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip DSL-level shrinking of disagreements")
    p.add_argument("--report", metavar="FILE", default=None,
                   help="also write the campaign report (with minimized "
                        "litmus reproducers) as JSON")
    p.add_argument("--metrics-json", metavar="FILE", default=None,
                   help="write engine metrics (incl. aggregated cache hit "
                        "rates and store counters) as JSON")
    add_status_arg(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "chaos",
        help="fault-injection resilience suite (verdict invariance + "
             "liveness detection)",
    )
    p.add_argument("--quick", action="store_true",
                   help="CI-smoke subset: fewer programs, policies, plans, "
                        "and seeds")
    p.add_argument("--seeds", type=int, default=10,
                   help="hardware seeds per (program, policy, plan) cell")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the per-plan sweeps")
    p.add_argument("--report", metavar="FILE", default=None,
                   help="also write the report as JSON")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="persistent verdict store shared by the baseline "
                        "and every fault plan (and across chaos runs)")
    p.add_argument("--service", metavar="DIR", default=None,
                   help="process-level chaos instead: run a campaign "
                        "daemon on DIR, kill fleet workers mid-campaign "
                        "(and SIGKILL/restart the daemon), and require "
                        "evidence byte-identical to a serial sweep")
    p.add_argument("--service-kills", type=int, default=2, metavar="N",
                   help="with --service: crash failpoints to arm "
                        "(worker deaths injected; default: 2)")
    p.add_argument("--service-no-restart", action="store_true",
                   help="with --service: skip the daemon SIGKILL/restart "
                        "round (worker kills only)")
    add_status_arg(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "cache",
        help="inspect / audit / compact a persistent verdict store",
    )
    p.add_argument("action", choices=["stats", "audit", "compact"])
    p.add_argument("cache_dir", metavar="DIR",
                   help="the store directory (what --cache-dir wrote)")
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="audit: re-judge at most N entries (deterministic "
                        "stride over the key space; default: all)")
    p.add_argument("--json", action="store_true",
                   help="stats: machine-readable output")
    p.set_defaults(func=cmd_cache)

    def add_service_client_args(p):
        p.add_argument("--state-dir", metavar="DIR", default=None,
                       help="daemon state directory (the client reads its "
                            "endpoint.json to find the bound port)")
        p.add_argument("--host", default="127.0.0.1",
                       help="daemon host when not using --state-dir")
        p.add_argument("--port", type=int, default=0,
                       help="daemon port when not using --state-dir")

    p = sub.add_parser(
        "serve",
        help="fault-tolerant campaign daemon (supervised worker fleet)",
    )
    p.add_argument("state_dir", metavar="DIR",
                   help="daemon state directory: verdict store, campaign "
                        "specs, journals, status snapshots, endpoint.json")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="bind port (default 0 = ephemeral; clients read "
                        "endpoint.json from the state directory)")
    p.add_argument("--workers", type=int, default=2,
                   help="fleet worker processes (default: 2)")
    p.add_argument("--queue-limit", type=int, default=8,
                   help="pending campaigns before submissions get 429 + "
                        "Retry-After backpressure (default: 8)")
    p.add_argument("--task-timeout", type=float, default=60.0,
                   metavar="SECONDS",
                   help="lease timeout: a task stuck longer gets its "
                        "worker killed and the lease reassigned")
    p.add_argument("--max-retries", type=int, default=2,
                   help="per-task retry budget (exponential backoff + "
                        "jitter) before the circuit breaker degrades the "
                        "cell to in-daemon serial execution")
    p.add_argument("--retry-backoff", type=float, default=0.05,
                   metavar="SECONDS",
                   help="base delay of the retry backoff schedule")
    p.add_argument("--heartbeat-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="also reclaim a lease when its worker stops "
                        "heartbeating for this long (default: off)")
    p.add_argument("--keep-journals", type=int, default=3,
                   help="terminal campaigns whose checkpoint journals "
                        "survive the retention GC (default: 3)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a campaign to a running daemon and print its "
             "evidence table",
    )
    p.add_argument("names", nargs="*",
                   help=f"programs to sweep (default: {DEFAULT_SWEEP_PROGRAMS})")
    add_service_client_args(p)
    p.add_argument("--policy", action="append", type=_canon_policy,
                   choices=sorted(POLICY_FACTORIES), metavar="POLICY",
                   help="policy to include, repeatable (default: all except "
                        "the broken 'relaxed' strawman)")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--drf0-seeds", type=int, default=30,
                   help="seeds for the sampled DRF0 premise check")
    p.add_argument("--exhaustive-drf0", action="store_true",
                   help="enumerate every interleaving for the DRF0 verdict")
    p.add_argument("--check-51", action="store_true",
                   help="run the Section-5.1 condition monitor on every run")
    p.add_argument("--no-wait", action="store_true",
                   help="print the campaign id and return immediately "
                        "instead of waiting for the evidence table")
    p.add_argument("--timeout", type=float, default=600.0,
                   metavar="SECONDS",
                   help="how long to wait for the campaign to finish")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "campaigns",
        help="list/inspect campaigns on a running daemon",
    )
    p.add_argument("id", nargs="?", default=None,
                   help="campaign id for a detailed view")
    add_service_client_args(p)
    p.add_argument("--events", action="store_true",
                   help="with ID: print its status-snapshot history "
                        "as JSONL")
    p.add_argument("--json", action="store_true",
                   help="machine-readable listing")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the daemon to drain and exit (the running "
                        "campaign checkpoints and resumes on restart)")
    p.set_defaults(func=cmd_campaigns)

    p = sub.add_parser(
        "status",
        help="validate and render a --status-json campaign snapshot once",
    )
    p.add_argument("path", metavar="FILE",
                   help="the snapshot a running (or finished) campaign "
                        "writes via --status-json")
    p.add_argument("--json", action="store_true",
                   help="print the validated snapshot JSON instead of the "
                        "rendered view")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "top",
        help="live-refreshing view of a --status-json campaign snapshot",
    )
    p.add_argument("path", metavar="FILE")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                   help="refresh period (default: 1.0)")
    p.add_argument("--once", action="store_true",
                   help="render a single frame and exit (no ANSI clear)")
    p.set_defaults(func=cmd_top)

    return parser


def cmd_cache(args) -> int:
    """Maintenance surface for a ``--cache-dir`` verdict store."""
    import os

    from repro.verify.store import VerdictStore

    if args.action != "stats" and not os.path.isdir(args.cache_dir):
        raise _usage_error(f"no such cache directory: {args.cache_dir}")
    store = VerdictStore(args.cache_dir)
    if args.action == "stats":
        summary = store.summary()
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            width = max(len(key) for key in summary)
            for key, value in summary.items():
                print(f"{key:<{width}}  {value}")
        return 0
    if args.action == "compact":
        segments, records = store.compact()
        print(
            f"compacted {segments} segment(s) into 1 "
            f"({records} live records)"
        )
        return 0
    report = store.audit(sample=args.sample)
    print(
        f"audit: {report.checked} entries re-judged against the oracle, "
        f"{report.unauditable} unauditable, "
        f"{len(report.disagreements)} disagreement(s)"
    )
    for line in report.disagreements[:20]:
        print(f"  !! {line}")
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    from repro.verify.chaos import chaos_sweep

    if args.jobs < 0:
        raise _usage_error(
            f"--jobs must be >= 0 (got {args.jobs}); 0 means one per CPU"
        )
    if args.service:
        from repro.verify.chaos import service_kill_chaos

        if args.service_kills < 1:
            raise _usage_error(
                f"--service-kills must be >= 1 (got {args.service_kills})"
            )
        report = service_kill_chaos(
            args.service,
            worker_kills=args.service_kills,
            daemon_restart=not args.service_no_restart,
            progress=lambda message: print(
                f"  .. {message}", file=sys.stderr
            ),
        )
        print(json.dumps(report, indent=2, sort_keys=True))
        if args.report:
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"report -> {args.report}", file=sys.stderr)
        return 0 if report["ok"] else 1
    monitor = _make_monitor(args, f"chaos --seeds {args.seeds}")
    try:
        report = chaos_sweep(
            seeds=range(args.seeds),
            jobs=args.jobs,
            quick=args.quick,
            progress=lambda message: print(f"  .. {message}", file=sys.stderr),
            cache_dir=args.cache_dir,
            monitor=monitor,
        )
    except BaseException as exc:
        if monitor is not None:
            monitor.fail(f"{type(exc).__name__}: {exc}")
        raise
    if monitor is not None:
        monitor.finish(ok=report.ok, result=report.to_json())
    print(report.render())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report -> {args.report}", file=sys.stderr)
    return 0 if report.ok else 1


def _service_client(args):
    """Resolve a daemon client from ``--state-dir`` or ``--host/--port``.

    The state-dir handshake is the normal path: a daemon started with
    ``--port 0`` publishes its bound port in ``endpoint.json``.
    """
    from repro.service.client import ServiceClient

    state_dir = getattr(args, "state_dir", None)
    if state_dir:
        return ServiceClient.from_state_dir(state_dir)
    if not args.port:
        raise _usage_error(
            "need --state-dir DIR (reads the daemon's endpoint.json) "
            "or an explicit --port N"
        )
    return ServiceClient(args.host, args.port)


def cmd_serve(args) -> int:
    """Run the campaign daemon until drained (SIGTERM / POST /shutdown)."""
    from repro.service.daemon import CampaignDaemon

    if args.workers < 1:
        raise _usage_error(f"--workers must be >= 1 (got {args.workers})")
    if args.queue_limit < 1:
        raise _usage_error(
            f"--queue-limit must be >= 1 (got {args.queue_limit})"
        )
    if args.max_retries < 0:
        raise _usage_error(
            f"--max-retries must be >= 0 (got {args.max_retries})"
        )
    daemon = CampaignDaemon(
        args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        heartbeat_timeout=args.heartbeat_timeout,
        keep_journals=args.keep_journals,
    )
    print(
        f"repro serve: state dir {daemon.state_dir} "
        f"({args.workers} fleet workers; endpoint.json appears once bound)",
        file=sys.stderr,
    )
    return daemon.serve_forever()


def cmd_submit(args) -> int:
    """Submit a campaign and (unless ``--no-wait``) print its evidence."""
    from repro.service.client import ServiceError

    names = args.names or DEFAULT_SWEEP_PROGRAMS
    policy_names = args.policy or [
        name for name in sorted(POLICY_FACTORIES) if name != "relaxed"
    ]
    spec = {
        "programs": list(names),
        "policies": list(policy_names),
        "seeds": args.seeds,
        "drf0_seeds": args.drf0_seeds,
        "exhaustive_drf0": args.exhaustive_drf0,
        "check_51": args.check_51,
    }
    try:
        client = _service_client(args)
        accepted = client.submit_with_backoff(spec)
        cid = accepted["id"]
        print(
            f"campaign {cid} accepted "
            f"({accepted.get('position', 0)} ahead in queue)",
            file=sys.stderr,
        )
        if args.no_wait:
            print(cid)
            return 0
        info = client.wait(cid, timeout=args.timeout)
        if info.get("state") != "done":
            print(
                f"campaign {cid} failed: {info.get('error', 'unknown')}",
                file=sys.stderr,
            )
            return 1
        result = client.result(cid)
    except ServiceError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 1
    if result.get("resumed"):
        print(
            f"campaign {cid} resumed from its checkpoint journal",
            file=sys.stderr,
        )
    _print_evidence_table(result["rows"])
    holds = bool(result.get("contract_holds"))
    print(f"\nDefinition-2 contract: {'holds' if holds else 'VIOLATED'}")
    return 0 if holds else 1


def cmd_campaigns(args) -> int:
    """List/inspect a daemon's campaigns; ``--shutdown`` drains it."""
    from repro.service.client import ServiceError

    if args.events and not args.id:
        raise _usage_error("--events needs a campaign ID")
    try:
        client = _service_client(args)
        if args.shutdown:
            client.shutdown()
            print("daemon draining", file=sys.stderr)
            return 0
        if args.id:
            if args.events:
                for snap in client.events(args.id):
                    print(json.dumps(snap, sort_keys=True))
                return 0
            print(
                json.dumps(client.campaign(args.id), indent=2, sort_keys=True)
            )
            return 0
        listed = client.campaigns()
        health = client.health()
    except ServiceError as exc:
        print(f"repro campaigns: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(
            json.dumps(
                {"campaigns": listed, "health": health},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        f"daemon pid {health['pid']}: {health['workers']} workers, "
        f"{'draining' if health['draining'] else 'accepting'}"
    )
    print(f"{'id':<24}{'state':<10}{'progress':<10}signature")
    for row in listed:
        progress = row.get("progress")
        rendered = (
            f"{progress * 100:.0f}%"
            if isinstance(progress, (int, float))
            else "-"
        )
        print(
            f"{row['id']:<24}{row['state']:<10}{rendered:<10}"
            f"{row['signature'][:12]}"
        )
    return 0


def _print_memo_stats(command: str, memo: str, stats) -> None:
    """Verdict-memo hit/miss counts go to stderr: they depend on what a
    ``--cache-dir`` already holds, and stdout must not (a warm run prints
    exactly what the cold run did).  ``--metrics-json`` keeps them too."""
    print(
        f"{command}: {memo} memo: {stats.hits} hits / {stats.misses} misses",
        file=sys.stderr,
    )


def cmd_fuzz(args) -> int:
    from repro.verify.engine import VerificationEngine

    if args.jobs < 0:
        raise _usage_error(
            f"--jobs must be >= 0 (got {args.jobs}); 0 means one per CPU"
        )
    registry = None
    if args.metrics_json:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    monitor = _make_monitor(
        args, f"fuzz --programs {args.programs} --start-seed {args.start_seed}"
    )
    engine = VerificationEngine(
        jobs=args.jobs, metrics=registry, cache_dir=args.cache_dir,
        monitor=monitor,
    )
    try:
        report = engine.fuzz(
            range(args.start_seed, args.start_seed + args.programs)
        )
    except BaseException as exc:
        if monitor is not None:
            monitor.fail(f"{type(exc).__name__}: {exc}")
        raise
    if monitor is not None:
        monitor.finish(
            ok=report.ok,
            result={
                "programs_run": report.programs_run,
                "hardware_runs": report.hardware_runs,
                "failures": list(report.failures),
            },
        )
    print(
        f"fuzz: {report.programs_run} programs, "
        f"{report.hardware_runs} hardware runs, "
        f"{len(report.failures)} failures"
    )
    _print_memo_stats("fuzz", "SC", engine.sc_cache.stats)
    for failure in report.failures[:10]:
        print(f"  {failure}")
    if engine.store is not None:
        engine.store.close()
    if registry is not None:
        engine.metrics_snapshot(registry)
    _write_obs_outputs(args, None, registry)
    return 0 if report.ok else 1


def cmd_diff(args) -> int:
    from repro.verify.diff import render_program, report_as_dict
    from repro.verify.engine import VerificationEngine

    if args.jobs < 0:
        raise _usage_error(
            f"--jobs must be >= 0 (got {args.jobs}); 0 means one per CPU"
        )
    if args.hw_seeds < 1:
        raise _usage_error(
            f"--hw-seeds must be >= 1 (got {args.hw_seeds})"
        )
    registry = None
    if args.metrics_json:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    monitor = _make_monitor(
        args, f"diff --programs {args.programs} --start-seed {args.start_seed}"
    )
    engine = VerificationEngine(
        jobs=args.jobs, metrics=registry, cache_dir=args.cache_dir,
        monitor=monitor,
    )
    try:
        report = engine.diff_campaign(
            range(args.start_seed, args.start_seed + args.programs),
            hardware_seeds=range(args.hw_seeds),
            minimize=not args.no_minimize,
        )
    except BaseException as exc:
        if monitor is not None:
            monitor.fail(f"{type(exc).__name__}: {exc}")
        raise
    if monitor is not None:
        monitor.finish(
            ok=report.ok,
            result={
                "programs_run": report.programs_run,
                "comparisons": report.comparisons,
                "hardware_runs": report.hardware_runs,
                "disagreements": len(report.disagreements),
            },
        )
    print(
        f"diff: {report.programs_run} programs, "
        f"{report.comparisons} comparisons, "
        f"{report.hardware_runs} hardware runs, "
        f"{len(report.disagreements)} disagreements"
    )
    _print_memo_stats("diff", "DRF0", engine.drf0_cache.stats)
    for disagreement in report.disagreements[:10]:
        print(f"  seed {disagreement.seed} [{disagreement.kind}]: "
              f"{disagreement.detail}")
        if disagreement.minimized is not None:
            for line in render_program(disagreement.minimized).splitlines():
                print(f"    {line}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report_as_dict(report), fh, indent=2, sort_keys=True)
        print(f"report written to {args.report}")
    if engine.store is not None:
        engine.store.close()
    if registry is not None:
        engine.metrics_snapshot(registry)
    _write_obs_outputs(args, None, registry)
    return 0 if report.ok else 1


def cmd_status(args) -> int:
    """One-shot render of a ``--status-json`` snapshot."""
    from repro.obs import render_status, validate_status

    try:
        snap = _load_snapshot(args.path)
    except (OSError, ValueError) as exc:
        raise _usage_error(f"cannot read status snapshot {args.path}: {exc}")
    problems = validate_status(snap)
    if problems:
        print(f"{args.path}: INVALID snapshot", file=sys.stderr)
        for problem in problems[:10]:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(snap, indent=2, sort_keys=True))
    else:
        print(render_status(snap))
    return 1 if snap.get("state") == "failed" else 0


def cmd_top(args) -> int:
    """Refreshing ANSI view of a live campaign (stdlib only).

    Tolerates a not-yet-created snapshot (the campaign may still be
    warming up) and transient read races; exits when the campaign
    leaves the ``running`` state, mirroring its success in the exit
    status.  ``--once`` renders a single frame without clearing.
    """
    import time

    from repro.obs import render_status

    interval = max(0.05, args.interval)
    waited = False
    while True:
        try:
            snap = _load_snapshot(args.path)
        except FileNotFoundError as exc:
            if args.once:
                raise _usage_error(f"no status snapshot at {args.path}")
            if not waited:
                print(f"waiting for {args.path} ...", file=sys.stderr)
                waited = True
            time.sleep(interval)
            continue
        except (OSError, ValueError):
            # Mid-replace read race or torn tmp file: retry next tick.
            time.sleep(interval)
            continue
        frame = render_status(snap)
        if args.once:
            print(frame)
        else:
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
        state = snap.get("state")
        if args.once or state in ("done", "failed"):
            return 1 if state == "failed" else 0
        time.sleep(interval)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.interpreted_engine:
        from repro.core.compile import use_compiled

        use_compiled(False)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # The engine's session teardown has already terminated any worker
        # pool by the time the interrupt propagates here.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
