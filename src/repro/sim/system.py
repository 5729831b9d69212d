"""System assembly: the four Figure-1 configurations, run orchestration.

:func:`run_on_hardware` builds one of the paper's hardware configurations
(bus / general network, with / without caches), attaches a memory-system
policy, runs a program to completion, and packages the observable
:class:`~repro.core.execution.Result` together with timing statistics and
the hardware execution trace (accesses in commit order) for verification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from typing import TYPE_CHECKING

from repro.core.execution import Execution, Result
from repro.core.ops import Operation
from repro.core.types import Location, Value
from repro.machine.program import Program

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle through repro.hw
    from repro.hw.base import MemoryPolicy
    from repro.obs.tracer import Tracer
from repro.sim.cache import CacheController
from repro.sim.directory import Directory
from repro.sim.events import SimulationError, Simulator
from repro.sim.faults import FaultPlan, NULL_INJECTOR, build_injector
from repro.sim.memory import CachelessPort, MemoryModule
from repro.sim.network import Bus, GeneralNetwork, Interconnect
from repro.sim.processor import Processor, ProcessorStats
from repro.sim.write_buffer import BufferedCachePort


class LivenessError(SimulationError):
    """The run failed to make progress (deadlock or livelock).

    ``stuck`` carries one human-readable diagnosis line per non-halted
    processor (from :meth:`~repro.sim.processor.Processor.stall_diagnosis`),
    naming the stall cause each is wedged on.
    """

    def __init__(self, message: str, stuck: Sequence[str] = ()) -> None:
        super().__init__(message)
        self.stuck = tuple(stuck)

    def __reduce__(self):  # keep picklability across worker processes
        return (type(self), (self.args[0], self.stuck))

    def diagnosis(self) -> str:
        """The message plus the per-processor stall diagnoses."""
        lines = [str(self.args[0])]
        lines.extend(f"  {line}" for line in self.stuck)
        return "\n".join(lines)


class SimulationDeadlock(LivenessError):
    """The event queue drained before every thread halted."""


class WatchdogTimeout(LivenessError):
    """The liveness watchdog saw no architectural progress for too long."""


@dataclass(frozen=True)
class SystemConfig:
    """Hardware configuration knobs.

    Attributes:
        topology: ``"bus"`` (total-order FIFO) or ``"network"`` (unordered,
            jittered point-to-point) -- the two interconnects of Figure 1.
        caches: Whether processors have coherent caches (directory protocol)
            or talk straight to a memory module.
        seed: Seed for the network's latency jitter (all nondeterminism).
        bus_latency: Cycles per bus transfer.
        net_latency / net_jitter: Base + uniform extra latency per message.
        fifo_per_pair: Restore per-link FIFO on the general network
            (ablation knob; off by default, as the paper assumes nothing).
        mem_latency: Memory-module / directory service latency.
        hit_latency: Cache hit latency.
        local_cycle: Cycles per local (non-memory) instruction.
        write_buffer: Enable the cacheless write buffer (reads bypass it).
        wb_drain_delay: Cycles before a buffered write drains to the bus.
        reserved_miss_limit: Section 5.3's bounded-miss window: while any
            line is reserved, at most this many misses may be outstanding.
        max_events: Runaway-simulation guard.
    """

    topology: str = "network"
    caches: bool = True
    #: Coherence substrate: ``"directory"`` (Section 5.2's protocol over the
    #: configured interconnect) or ``"snoop"`` (the [RuS84]/[ArB86] atomic
    #: snooping bus; implies a bus and caches; reserve bits are unnecessary
    #: there -- condition 5 holds structurally, see sim/snoop.py).
    coherence: str = "directory"
    seed: int = 0
    bus_latency: int = 2
    net_latency: int = 3
    net_jitter: int = 6
    fifo_per_pair: bool = False
    mem_latency: int = 4
    hit_latency: int = 1
    local_cycle: int = 1
    write_buffer: bool = True
    wb_drain_delay: int = 3
    #: Cache capacity in lines (None = unbounded).  With a capacity, dirty
    #: victims write back synchronously and reserved lines are never
    #: evicted (misses needing such an eviction stall -- Section 5.3).
    cache_capacity: Optional[int] = None
    reserved_miss_limit: Optional[int] = None
    #: Reserve-bit refusal variant: True = negative-ack and retry (deadlock
    #: free, the default); False = queue at the owner until its counter
    #: reads zero (the paper's primary description; can deadlock when two
    #: processors synchronize on each other's reserved lines).
    remote_sync_nack: bool = True
    nack_retry_delay: int = 8
    max_events: int = 50_000_000
    #: Fault plan to inject (see :mod:`repro.sim.faults`); None = fault free.
    #: Directory substrate only (the snooping bus is atomic by construction).
    fault_plan: Optional[FaultPlan] = None
    #: Liveness watchdog: abort with a per-processor stall diagnosis after
    #: this many cycles without architectural progress (None = disabled).
    watchdog_cycles: Optional[int] = None

    def with_seed(self, seed: int) -> "SystemConfig":
        """Copy of this config with a different nondeterminism seed.

        Seed sweeps call this once per run; a direct ``__dict__`` copy
        skips ``dataclasses.replace``'s re-run of the generated
        ``__init__`` (field-by-field keyword dispatch) on this wide
        config.
        """
        if seed == self.seed:
            return self
        clone = object.__new__(SystemConfig)
        clone.__dict__.update(self.__dict__)
        clone.__dict__["seed"] = seed
        return clone


#: The four hardware configurations of the paper's Figure 1.
FIGURE1_CONFIGS: Dict[str, SystemConfig] = {
    "bus-no-cache": SystemConfig(topology="bus", caches=False),
    "network-no-cache": SystemConfig(topology="network", caches=False),
    "bus-cache": SystemConfig(topology="bus", caches=True),
    "network-cache": SystemConfig(topology="network", caches=True),
}


@dataclass
class MachineRun:
    """Everything observable from one hardware run."""

    program: Program
    policy_name: str
    config: SystemConfig
    result: Result
    cycles: int
    proc_stats: List[ProcessorStats]
    messages_sent: int
    #: Raw per-processor access records (program order), with their
    #: generate/commit/globally-performed timestamps -- the evidence the
    #: Section-5.1 condition monitor inspects.
    raw_accesses: List[list] = field(default_factory=list)
    #: Per-processor cache statistics: {"hits", "misses", "evictions",
    #: "forwards_stalled"} (empty for cacheless systems).
    cache_stats: List[Dict[str, int]] = field(default_factory=list)
    #: Directory statistics: {"requests", "invalidations"} (cacheless: {}).
    directory_stats: Dict[str, int] = field(default_factory=dict)
    #: Fault-injection counters for the run ({} when fault free).
    fault_stats: Dict[str, int] = field(default_factory=dict)
    _execution: Optional[Execution] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def execution(self) -> Execution:
        """The hardware execution: committed accesses in commit order.

        Ties in commit time break by access uid.  Built on first read:
        campaigns judge only ``result``, so a run pays for sorting and
        freezing its accesses only when a caller asks for the trace.
        """
        if self._execution is None:
            committed = sorted(
                (a for per_proc in self.raw_accesses for a in per_proc
                 if a.committed),
                key=lambda a: (a.commit_time, a.uid),
            )
            ops = tuple(
                Operation(
                    uid=index,
                    proc=access.proc,
                    po_index=access.po_index,
                    kind=access.kind,
                    location=access.location,
                    value_read=access.value_read,
                    value_written=access.write_value if access.has_write else None,
                )
                for index, access in enumerate(committed)
            )
            self._execution = Execution(
                self.program, ops, self.result.final_memory
            )
        return self._execution

    @property
    def total_stall_cycles(self) -> int:
        """Sum of all processors' stall cycles."""
        return sum(s.total_stall_cycles for s in self.proc_stats)


def build_interconnect(sim: Simulator, config: SystemConfig) -> Interconnect:
    """Instantiate the configured interconnect."""
    if config.topology == "bus":
        return Bus(sim, latency=config.bus_latency)
    if config.topology == "network":
        return GeneralNetwork(
            sim,
            latency=config.net_latency,
            jitter=config.net_jitter,
            seed=config.seed,
            fifo_per_pair=config.fifo_per_pair,
        )
    raise ValueError(f"unknown topology {config.topology!r}")


def _validate_policy_config(policy: "MemoryPolicy", config: SystemConfig) -> None:
    """Reject (policy, config) pairings the substrates cannot express.

    Factored out so seed sweeps can fail fast once instead of per run.
    """
    if policy.requires_caches and not config.caches:
        raise ValueError(
            f"policy {policy.name!r} needs the cache-coherent substrate"
        )
    if (
        config.fault_plan is not None
        and config.fault_plan.injects_anything
        and config.coherence == "snoop"
    ):
        raise ValueError(
            "fault injection supports the directory substrate only "
            "(the snooping bus is atomic by construction)"
        )


def run_on_hardware(
    program: Program,
    policy: "MemoryPolicy",
    config: Optional[SystemConfig] = None,
    tracer: Optional["Tracer"] = None,
) -> MachineRun:
    """Run ``program`` on the configured hardware under ``policy``.

    ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) receives cycle-level
    events from every component of the run; the default null tracer makes
    instrumentation free.
    """
    config = config or SystemConfig()
    _validate_policy_config(policy, config)
    injector = build_injector(config.fault_plan, config.seed)

    sim = Simulator(tracer)
    directory = None
    memory_module: Optional[MemoryModule] = None
    caches: List = []
    ports: List[object] = []

    if config.coherence == "snoop":
        if not config.caches:
            raise ValueError("the snooping substrate requires caches")
        from repro.sim.snoop import SnoopBus, SnoopyCache

        bus = SnoopBus(
            sim, dict(program.initial_memory), latency=config.bus_latency
        )
        network = bus          # provides messages_sent
        directory = bus        # provides final_value / stats parity
        for proc in range(program.num_procs):
            cache = SnoopyCache(
                sim,
                bus,
                node_id=f"proc{proc}",
                hit_latency=config.hit_latency,
                drf1_optimized=policy.drf1_optimized,
            )
            caches.append(cache)
            if policy.buffers_cache_writes and config.write_buffer:
                ports.append(
                    BufferedCachePort(sim, cache, drain_delay=config.wb_drain_delay)
                )
            else:
                ports.append(cache)
        return _run_processors(
            program, policy, config, sim, network, ports,
            directory, memory_module, caches,
        )

    network = build_interconnect(sim, config)
    network.injector = injector

    if config.caches:
        directory = Directory(
            sim, network, "dir", dict(program.initial_memory),
            latency=config.mem_latency, injector=injector,
        )
        for proc in range(program.num_procs):
            cache = CacheController(
                sim,
                network,
                node_id=f"proc{proc}",
                directory_id="dir",
                hit_latency=config.hit_latency,
                use_reserve_bits=policy.use_reserve_bits,
                drf1_optimized=policy.drf1_optimized,
                reserved_miss_limit=config.reserved_miss_limit,
                sync_nack=config.remote_sync_nack,
                nack_retry_delay=config.nack_retry_delay,
                capacity=config.cache_capacity,
                injector=injector,
            )
            caches.append(cache)
            if policy.buffers_cache_writes and config.write_buffer:
                ports.append(
                    BufferedCachePort(sim, cache, drain_delay=config.wb_drain_delay)
                )
            else:
                ports.append(cache)
    else:
        memory_module = MemoryModule(
            sim, network, "mem", dict(program.initial_memory),
            latency=config.mem_latency, injector=injector,
        )
        for proc in range(program.num_procs):
            ports.append(
                CachelessPort(
                    sim,
                    network,
                    node_id=f"proc{proc}",
                    memory_id="mem",
                    write_buffer=config.write_buffer,
                    drain_delay=config.wb_drain_delay,
                )
            )

    return _run_processors(
        program, policy, config, sim, network, ports,
        directory, memory_module, caches, injector=injector,
    )


def _run_processors(
    program: Program,
    policy: "MemoryPolicy",
    config: SystemConfig,
    sim: Simulator,
    network,
    ports: Sequence[object],
    directory,
    memory_module: Optional[MemoryModule],
    caches: Sequence[object],
    injector=NULL_INJECTOR,
) -> MachineRun:
    """Start one processor per thread, run to quiescence, package the run."""
    allocate_uid = itertools.count().__next__
    halted = {"count": 0}

    def on_halt(_proc: Processor) -> None:
        halted["count"] += 1

    processors: List[Processor] = []
    for proc in range(program.num_procs):
        processor = Processor(
            sim,
            proc,
            program.threads[proc],
            policy,
            ports[proc],
            allocate_uid,
            on_halt,
            local_cycle=config.local_cycle,
            injector=injector,
        )
        processors.append(processor)
        processor.start()

    def diagnoses() -> List[str]:
        return [d for p in processors if (d := p.stall_diagnosis()) is not None]

    if config.watchdog_cycles:
        _run_with_watchdog(
            sim, config, program, policy, processors, halted, diagnoses
        )
    else:
        sim.run(max_events=config.max_events)

    if halted["count"] != program.num_procs:
        stuck = [p.proc_id for p in processors if not p.halted]
        raise SimulationDeadlock(
            f"processors {stuck} never halted (program {program.name!r}, "
            f"policy {policy.name!r}, seed {config.seed})",
            stuck=diagnoses(),
        )

    run = _package_run(program, policy, config, sim, network, processors,
                       directory, memory_module, caches)
    if injector.enabled:
        run.fault_stats = injector.snapshot()
    return run


def _run_with_watchdog(
    sim: Simulator,
    config: SystemConfig,
    program: Program,
    policy: "MemoryPolicy",
    processors: Sequence[Processor],
    halted: Dict[str, int],
    diagnoses,
) -> None:
    """Drain the event queue under a liveness watchdog.

    Progress is architectural: a processor halting, an access being
    generated, committed, or globally performed.  Protocol chatter that
    moves none of those (e.g. an endless NACK/retry loop) does not count,
    so the watchdog catches livelock as well as slow-burn deadlock.  When
    no progress happens for ``watchdog_cycles`` simulated cycles the run
    aborts with a :class:`WatchdogTimeout` naming each processor's stall
    cause -- the chaos harness turns delivery-violating fault plans into
    this diagnosis instead of a hang.
    """
    budget = config.watchdog_cycles
    check_every = max(1, budget // 4)
    state = {"checked": -1, "sig": None, "progress_at": 0, "tripped": False}

    def signature() -> tuple:
        generated = committed = performed = 0
        for proc in processors:
            generated += proc.stats.accesses_generated
            for access in proc.accesses:
                if access.committed:
                    committed += 1
                if access.globally_performed:
                    performed += 1
        return (halted["count"], generated, committed, performed)

    def stop_when() -> bool:
        now = sim.now
        if now - state["checked"] < check_every:
            return False
        state["checked"] = now
        sig = signature()
        if sig != state["sig"]:
            state["sig"] = sig
            state["progress_at"] = now
            return False
        if now - state["progress_at"] >= budget:
            state["tripped"] = True
            return True
        return False

    sim.run(max_events=config.max_events, stop_when=stop_when)

    if state["tripped"]:
        plan = config.fault_plan.name if config.fault_plan else "none"
        raise WatchdogTimeout(
            f"watchdog: no architectural progress for {budget} cycles at "
            f"t={sim.now} (program {program.name!r}, policy {policy.name!r}, "
            f"seed {config.seed}, fault plan {plan!r})",
            stuck=diagnoses(),
        )


def _package_run(
    program: Program,
    policy: "MemoryPolicy",
    config: SystemConfig,
    sim: Simulator,
    network: Interconnect,
    processors: Sequence[Processor],
    directory: Optional[Directory],
    memory_module: Optional[MemoryModule],
    caches: Sequence[CacheController],
) -> MachineRun:
    final_memory: Dict[Location, Value] = {}
    for location in program.initial_memory:
        if directory is not None:
            final_memory[location] = directory.final_value(location, caches)
        else:
            final_memory[location] = memory_module.values[location]

    reads = [p.read_values_in_program_order() for p in processors]
    result = Result.build(reads, final_memory)

    if sim.tracer.enabled:
        for processor in processors:
            track = f"P{processor.proc_id}"
            for access in processor.accesses:
                end = access.gp_time
                if end is None:
                    end = access.commit_time
                if access.generate_time is None or end is None:
                    continue
                sim.tracer.span(
                    "access",
                    f"{access.kind.value} {access.location}",
                    track,
                    access.generate_time,
                    end,
                    args={
                        "uid": access.uid,
                        "commit": access.commit_time,
                        "gp": access.gp_time,
                        "missed": access.missed,
                        "nacks": access.nacks,
                        "buffered": access.buffered,
                    },
                )

    return MachineRun(
        program=program,
        policy_name=policy.name,
        config=config,
        result=result,
        cycles=sim.now,
        proc_stats=[p.stats for p in processors],
        messages_sent=network.messages_sent,
        raw_accesses=[list(p.accesses) for p in processors],
        cache_stats=[
            {
                "hits": c.hits,
                "misses": c.misses,
                "evictions": c.evictions,
                "forwards_stalled": c.forwards_stalled,
            }
            for c in caches
        ],
        directory_stats=(
            {
                "requests": directory.requests_served,
                "invalidations": directory.invalidations_sent,
            }
            if directory is not None
            else {}
        ),
    )


def run_seed_sweep(
    program: Program,
    policy,
    config: Optional[SystemConfig] = None,
    seeds: Sequence[int] = range(20),
    tracer: Optional["Tracer"] = None,
) -> List[MachineRun]:
    """Run the same (program, policy, config) across many nondeterminism seeds.

    The batched entry point for seed sweeps (the litmus harness, the
    property experiments).  ``policy`` may be a :class:`MemoryPolicy`
    instance or a zero-argument factory (e.g. the policy class); either
    way the (policy, config) pairing is validated *once* up front -- a bad
    pairing fails before the first run, not on every seed -- and a single
    policy instance is shared across all runs.  Sharing is sound because
    policies are pure ordering disciplines: all mutable run state lives in
    the simulator each seed builds afresh.
    """
    from repro.hw.base import MemoryPolicy  # late: avoids a module cycle

    config = config or SystemConfig()
    if not isinstance(policy, MemoryPolicy):
        policy = policy()
    _validate_policy_config(policy, config)
    return [
        run_on_hardware(program, policy, config.with_seed(seed), tracer)
        for seed in seeds
    ]
