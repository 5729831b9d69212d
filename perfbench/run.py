"""Campaign benchmark for the weak-ordering reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fuzz-j2 --seed 0 --seconds 35 --trace 0

``--trace 0`` times whole campaigns (``fuzz-j2``, ``sweep-warm``)
untraced and prints the end-to-end metrics, with times in units of a
fixed reference loop run next to each campaign, so that the host's
speed at the moment cancels out; ``--trace 1``
runs the campaign serially under the outside-in layer tracer
(``layers.py``) and prints the per-layer split.  Each campaign runs in
its own forked process, so every one starts with cold in-process memos.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's context (host, interpreter, commit, hash seed, repeats, spread).
See ``perfbench/README.md`` for what each metric is meant to move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 5
#: Fewest campaigns a measured run reports a median over.
MIN_CAMPAIGNS = 3
#: The workload whose set-up fills a verdict store for its campaigns.
STORE_WORKLOAD = "sweep-warm"
#: Tolerance of the tracer's accounting checks, as a share of wall time.
TRACE_TOLERANCE = 0.03

#: Layers that must record calls on each workload's traced run, so an
#: import site the tracer missed cannot silently drop a layer.
HEAVY_LAYERS = {
    "fuzz-j2": (
        "sim", "machine.generator", "core.contract", "core.sc", "core.dpor",
        "axiomatic.solver",
    ),
    "sweep-warm": ("verify.store.load",),
}

#: Layers reported as ``<layer>.busy_s`` and ``<layer>.calls``.
TIMED_LAYERS = (
    "sim", "machine.generator", "core.contract", "core.drf0", "core.sc",
    "core.dpor", "axiomatic.solver", "axiomatic.enumerator",
)

SIM_DEFECT_NOTE = (
    "sim.cycles/messages/events depend on PYTHONHASHSEED: "
    "sim/directory.py iterates a set of string node ids when fanning "
    "out invalidations, so the same seed can take a different number of "
    "cycles in another process. Compare these counts only between runs "
    "with the same hash seed."
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fuzz-j2", "sweep-warm"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ensure_hash_seed() -> None:
    """Keep hash randomisation on, but know the seed.

    Python does not expose a randomly drawn hash seed, so when none is
    set the benchmark draws one itself and re-executes with it.
    """
    if os.environ.get("PYTHONHASHSEED"):
        return
    env = dict(os.environ, PYTHONHASHSEED=str(1 + int.from_bytes(os.urandom(4), "big") % 4294967295))
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


# ----------------------------------------------------------------------
# One campaign per forked process
# ----------------------------------------------------------------------


def in_child(fn, *args):
    """Run ``fn(*args)`` in a forked process and return its value.

    The child leads its own process group, so on any failure here the
    whole group (its engine pool included) is killed and reaped.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.setpgid(0, 0)
            os.close(read_fd)
            try:
                payload = ("ok", fn(*args))
            except BaseException:
                payload = ("error", traceback.format_exc())
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(payload))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    except BaseException:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"campaign process ended with status {status} and no result")
    kind, value = pickle.loads(data)
    if kind == "error":
        raise RuntimeError("campaign failed:\n" + value)
    return value


def reference_loop():
    """A fixed pure-Python computation, independent of ``repro``; returns
    its wall seconds.  Garbage collection is off while it runs, so its
    time does not depend on how large the calling process's heap is.
    It does its work twice: the first round also pays for fresh memory,
    the second mostly reuses it, and both kinds of cost move with the
    host."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            rows = [{"id": i, "key": str(i * 7919 % 1000), "pair": [i, i % 13]} for i in range(10000)]
            rows = json.loads(json.dumps(rows))
            rows.sort(key=lambda row: (row["key"], row["id"]))
            groups = {}
            for row in rows:
                groups.setdefault(row["key"], []).append(row["id"])
            total = 0
            for i in range(150000):
                total += i * i % 7
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def reference_seconds(copies):
    """Mean time of ``copies`` reference loops run at once, one per
    process, as a campaign with ``copies`` workers runs its work."""
    if copies == 1:
        return reference_loop()
    return statistics.mean(in_children([reference_loop] * copies))


def in_children(fns):
    """Run each function in its own forked process, all at once, and
    return their values (plain floats) in order."""
    children = []
    for fn in fns:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                os.write(write_fd, repr(fn()).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        children.append((pid, read_fd))
    values = []
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as pipe:
            values.append(pipe.read())
        os.waitpid(pid, 0)
    return [float(value) for value in values]


def timed_campaign(workload, inputs, cache_dir=None, jobs=None):
    """One untraced campaign: ``(wall_s, cpu_s, peak_rss_mb, outcome)``.

    CPU time and peak RSS include the engine's pool workers, which the
    campaign has joined by the time it returns.
    """
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    outcome = workload.run(inputs, cache_dir=cache_dir, jobs=jobs)
    wall = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(
        (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        for before, after in ((self0, self1), (kids0, kids1))
    )
    rss_mb = (self1.ru_maxrss + kids1.ru_maxrss) / 1024.0
    return wall, cpu, rss_mb, outcome


def traced_campaign(workload, inputs, cache_dir=None):
    """One serial campaign under the layer tracer."""
    from layers import LayerTracer

    tracer = LayerTracer().install()
    try:
        start = time.perf_counter()
        outcome = workload.run(inputs, cache_dir=cache_dir, jobs=1)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    self_s, calls, covered = tracer.layer_times()
    return {
        "wall": wall,
        "outcome": outcome,
        "self_s": self_s,
        "calls": calls,
        "covered": covered,
        "counts": dict(tracer.counts),
        "cell_runs": dict(tracer.cell_runs),
    }


def setup_once(name, seed, cache_dir=None):
    """One complete set-up in a process that has not imported ``repro``:
    imports, input construction and, with ``cache_dir``, a cold sweep
    filling the verdict store there.  Returns ``(seconds, fill)`` where
    ``fill`` is the cold campaign's plain output and store counters, so
    unpickling it imports nothing in the caller."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.build(seed)
    fill = None
    if cache_dir is not None:
        outcome = workload.run(inputs, cache_dir=cache_dir)
        fill = (outcome.output, outcome.store)
    return time.perf_counter() - start, fill


# ----------------------------------------------------------------------
# Statistics and context
# ----------------------------------------------------------------------


def spread(values):
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def declared_metrics(kind, samples):
    """The medians of the metrics ``BENCHMARK.json`` declares under
    ``kind``, in its units (a declared metric left unmeasured raises)."""
    with open(BENCHMARK_JSON) as fh:
        declared = json.load(fh)[kind]
    return {
        m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
        for m in declared
    }


def source_commit():
    """The checked-out commit, when the tree is a git work tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over ``src/`` (paths and contents): names the code even
    in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def context(args, repeats, samples, extra=None):
    ctx = {
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": source_commit(),
        "src_sha256": source_digest(),
        "repeats": repeats,
        "samples": {name: [round(v, 6) for v in values] for name, values in samples.items()},
        "spread_iqr_over_median": {name: round(spread(values), 4) for name, values in samples.items()},
    }
    ctx.update(extra or {})
    return ctx


# ----------------------------------------------------------------------
# The two modes
# ----------------------------------------------------------------------


def measure(args, workdir):
    """``--trace 0``: set-up repeats, then campaigns for ``--seconds``.

    Set-up repeats run before this process imports ``repro``, each in
    its own fork, so every one pays the imports as a user's run does.
    """
    setup_times = []
    fills = []
    uses_store = args.workload == STORE_WORKLOAD
    for rep in range(SETUP_REPEATS):
        cache_dir = os.path.join(workdir, f"store-{rep}") if uses_store else None
        seconds, fill = in_child(setup_once, args.workload, args.seed, cache_dir)
        setup_times.append(seconds)
        fills.append((cache_dir, fill))

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    cache_dir, fill = fills[0]
    reference = None
    if fill is not None:
        output, store = fill
        reference = workloads.Outcome(runs=0, programs=0, output=output, store=store)

    results = []
    start = last = time.perf_counter()
    # Start another campaign only while it is expected to end less than
    # half a campaign past the deadline, so a run measures about --seconds.
    while True:
        now = time.perf_counter()
        if len(results) >= MIN_CAMPAIGNS and now - start + (now - last) / 2 >= args.seconds:
            break
        last = now
        # The reference loop right before and right after the campaign,
        # on as many processes as the campaign uses: the host's speed at
        # the moment of the campaign.  It runs from this process, so the
        # campaign's CPU time and peak RSS do not include it.
        ref_before = reference_seconds(workload.jobs)
        result = in_child(timed_campaign, workload, inputs, cache_dir)
        results.append((*result, (ref_before + reference_seconds(workload.jobs)) / 2))
    outcomes = [r[3] for r in results]
    if workload.jobs > 1:
        reference = in_child(timed_campaign, workload, inputs, None, 1)[3]
    checks = workload.check(outcomes[0], inputs, reference)
    for outcome in outcomes[1:]:
        checks += workload.check(outcome, inputs, reference or outcomes[0])

    # Times are reported in units of the reference loop measured next to
    # each campaign ("ref"), so the host's speed at the moment cancels.
    samples = {
        "wall_ref": [wall / ref for wall, _, _, _, ref in results],
        "cpu_ref": [cpu / ref for _, cpu, _, _, ref in results],
        "hw_runs_per_ref": [o.runs * ref / wall for wall, _, _, o, ref in results],
        "programs_per_ref": [o.programs * ref / wall for wall, _, _, o, ref in results],
        "peak_rss_mb": [r[2] for r in results],
        "setup_s": setup_times,
        "wall_s": [r[0] for r in results],
        "cpu_s": [r[1] for r in results],
        "reference_s": [r[4] for r in results],
    }
    extra = {
        "runs_per_campaign": outcomes[0].runs,
        "programs_per_campaign": outcomes[0].programs,
    }
    return checks, declared_metrics("end_to_end", samples), context(args, len(results), samples, extra)


def trace_checks(workload, trace):
    """Tracer self-consistency and coverage checks for one traced run."""
    wall = trace["wall"]
    self_s, calls = trace["self_s"], trace["calls"]
    layer_sum = sum(self_s.values())
    checks = [
        ("trace.self_times_nonnegative", all(v >= -1e-6 for v in self_s.values())),
        ("trace.layers_within_wall", layer_sum <= wall * (1 + TRACE_TOLERANCE)),
        ("trace.spans_do_not_overlap", abs(layer_sum - trace["covered"]) <= wall * TRACE_TOLERANCE),
    ]
    for layer in HEAVY_LAYERS[workload.name]:
        checks.append((f"trace.{layer}.called", calls[layer] > 0))
    if workload.name == STORE_WORKLOAD:
        checks.append(("sweep-warm.no_hardware_runs", calls["sim"] == 0))
    return checks


def trace_run(args, workdir):
    """``--trace 1``: untraced/traced campaign pairs for ``--seconds``."""
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    cache_dir = reference = None
    checks = []
    extra = {"note": SIM_DEFECT_NOTE}
    # Store writes happen in set-up, so they are measured on a traced fill.
    writes = {
        "verify.store.write_s": 0.0,
        "verify.store.records_flushed": 0,
        "verify.store.bytes": 0,
    }
    if args.workload == STORE_WORKLOAD:
        cache_dir = os.path.join(workdir, "store")
        fill = in_child(traced_campaign, workload, inputs, cache_dir)
        reference = fill["outcome"]
        cells = fill["cell_runs"]
        checks += [
            ("trace.verify.store.write.called", fill["calls"]["verify.store.write"] > 0),
            # The evidence rows do not carry seeds_run; the traced cold
            # sweep counts the hardware runs of every (program, policy) cell.
            (
                "sweep.seeds_run_every_row",
                len(cells) == len(workloads.SWEEP_PROGRAMS) * len(workloads.SWEEP_POLICIES)
                and all(n == workloads.SWEEP_SEEDS for n in cells.values()),
            ),
        ]
        extra["cold_fill"] = {
            "wall_s": fill["wall"],
            "self_s": {k: v for k, v in fill["self_s"].items() if v},
            "calls": {k: v for k, v in fill["calls"].items() if v},
        }
        writes = {
            "verify.store.write_s": fill["self_s"]["verify.store.write"],
            "verify.store.records_flushed": sum(
                v for k, v in reference.store.items() if k.startswith("flushed_")
            ),
            "verify.store.bytes": sum(
                entry.stat().st_size for entry in os.scandir(cache_dir) if entry.is_file()
            ),
        }
    samples = {}
    pairs = 0
    pair_s = 0.0
    start = time.perf_counter()
    while pairs < 1 or time.perf_counter() - start + pair_s / 2 < args.seconds:
        began = time.perf_counter()
        serial_s, _, _, plain = in_child(timed_campaign, workload, inputs, cache_dir, 1)
        parallel_s = serial_s
        if workload.jobs > 1:
            parallel_s = in_child(timed_campaign, workload, inputs, cache_dir)[0]
        trace = in_child(traced_campaign, workload, inputs, cache_dir)
        pair_s = time.perf_counter() - began
        pairs += 1
        outcome = trace["outcome"]
        checks += workload.check(outcome, inputs, reference)
        checks.append(("trace.outputs_equal_untraced", outcome.output == plain.output))
        checks += trace_checks(workload, trace)

        self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
        row = dict(writes)
        for layer in TIMED_LAYERS:
            row[f"{layer}.busy_s"] = self_s[layer]
            row[f"{layer}.calls"] = calls[layer]
        row["sim.us_per_run"] = 1e6 * self_s["sim"] / calls["sim"] if calls["sim"] else 0.0
        row["sim.cycles"] = counts.get("cycles", 0)
        row["sim.messages"] = counts.get("messages", 0)
        row["sim.events"] = counts.get("events", 0)
        row["sim.host_ns_per_cycle"] = (
            1e9 * self_s["sim"] / row["sim.cycles"] if row["sim.cycles"] else 0.0
        )
        sc_hits, sc_misses = outcome.sc_cache
        drf0_hits, drf0_misses = outcome.drf0_cache
        row["verify.cache.sc_hit_frac"] = sc_hits / (sc_hits + sc_misses) if sc_hits + sc_misses else 0.0
        row["verify.cache.drf0_hit_frac"] = (
            drf0_hits / (drf0_hits + drf0_misses) if drf0_hits + drf0_misses else 0.0
        )
        store = outcome.store
        row["verify.store.load_s"] = self_s["verify.store.load"]
        row["verify.store.records_loaded"] = sum(
            store.get(k, 0) for k in
            ("loaded_sc", "loaded_drf0", "loaded_runs", "loaded_costs", "loaded_programs")
        )
        row["verify.store.runs_reused"] = store.get("runs_reused", 0)
        row["verify.engine.other_s"] = trace["wall"] - sum(self_s.values())
        row["verify.engine.parallel_eff"] = serial_s / (workload.jobs * parallel_s)
        row["trace.wall_s"] = trace["wall"]
        row["trace.overhead_frac"] = trace["wall"] / serial_s - 1.0
        for name, value in row.items():
            samples.setdefault(name, []).append(value)

    metrics = declared_metrics("per_layer", samples)
    return checks, metrics, context(args, pairs, samples, extra)


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    ensure_hash_seed()
    sys.path.insert(0, SRC)
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        run = trace_run if args.trace else measure
        checks, metrics, ctx = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [name for name, ok in checks if not ok]
    ctx["failed_checks"] = sorted(set(failed))
    print(json.dumps({"context": ctx}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
