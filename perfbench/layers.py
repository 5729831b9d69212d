"""Outside-in layer tracer for the campaign benchmark.

Spans are recorded by wrapping each layer's public functions *where the
campaign code imports them* (``repro.verify.engine.run_on_hardware``,
``repro.verify.fuzz.sc_results`` and so on), so nothing inside ``src/``
is instrumented.  Spans are kept in memory as ``(layer, start, end,
parent)`` tuples and reduced to per-layer self times after the campaign:
a span's self time is its duration minus the durations of its direct
children (calls are properly nested on one thread).

The tracer only sees the process it is installed in: spans recorded in
forked pool workers stay there, so traced campaigns run with ``jobs=1``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer a span can be charged to, in report order.
LAYERS = (
    "sim",
    "machine.generator",
    "core.contract",
    "core.drf0",
    "core.sc",
    "core.dpor",
    "axiomatic.solver",
    "axiomatic.enumerator",
    "verify.store.load",
    "verify.store.write",
)

#: Import sites wrapped: module -> names it imported from a layer.
_IMPORT_SITES = {
    "repro.verify.engine": ("run_on_hardware", "is_sc_result", "check_program"),
    "repro.verify.sweeps": ("run_on_hardware", "is_sc_result", "check_program"),
    "repro.verify.cache": ("is_sc_result",),
    "repro.verify.fuzz": (
        "run_on_hardware", "is_sc_result", "sc_results", "sc_results_dpor",
        "allowed_results", "random_program",
    ),
    "repro.verify.diff": (
        "run_on_hardware", "sc_results", "allowed_results", "random_program",
    ),
    # verify.diff imports check_program lazily from here at call time.
    "repro.core.drf0": ("check_program",),
}

_LAYER_OF = {
    "run_on_hardware": "sim",
    "random_program": "machine.generator",
    "is_sc_result": "core.contract",
    "check_program": "core.drf0",
    "sc_results": "core.sc",
    "sc_results_dpor": "core.dpor",
}

_STORE_METHODS = {
    "load": "verify.store.load",
    "record_sc": "verify.store.write",
    "record_drf0": "verify.store.write",
    "record_run": "verify.store.write",
    "record_cost": "verify.store.write",
    "record_program": "verify.store.write",
    "close": "verify.store.write",
}

Span = Tuple[str, float, float, int]


class LayerTracer:
    """Records one span per wrapped call; reduces them to self times.

    ``counts`` holds exact counters gathered at the same boundaries:
    simulated cycles, messages and events per hardware run, and runs per
    ``(program, policy)`` sweep cell.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.cell_runs: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._simulators: list = []

    # -- installation ---------------------------------------------------

    def install(self) -> "LayerTracer":
        """Wrap every import site; :meth:`uninstall` restores them."""
        import importlib

        from repro.axiomatic.checker import default_backend
        from repro.sim import system
        from repro.verify.store import VerdictStore

        def axiomatic_layer(args, kwargs) -> str:
            backend = kwargs.get("backend") or (
                args[2] if len(args) > 2 and args[2] else default_backend()
            )
            return f"axiomatic.{backend}"

        wrappers: Dict[int, Callable] = {}
        for module_name, names in _IMPORT_SITES.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                if id(original) not in wrappers:
                    if name == "allowed_results":
                        wrapped = self._wrap(axiomatic_layer, original)
                    elif name == "run_on_hardware":
                        wrapped = self._wrap("sim", original, self._on_run)
                    else:
                        wrapped = self._wrap(_LAYER_OF[name], original)
                    wrappers[id(original)] = wrapped
                self._patch(module, name, wrappers[id(original)])
        for method, layer in _STORE_METHODS.items():
            self._patch(
                VerdictStore, method,
                self._wrap(layer, getattr(VerdictStore, method)),
            )
        # Simulator.events_executed is readable only on the instance that
        # run_on_hardware builds internally: hand it a recording subclass.
        simulators = self._simulators
        base = system.Simulator

        class RecordingSimulator(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                simulators.append(self)

        self._patch(system, "Simulator", RecordingSimulator)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, layer, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        layer_of = layer if callable(layer) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer_of(args, kwargs) if layer_of else layer
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(value)
            return value

        return traced

    def _on_run(self, run) -> None:
        counts = self.counts
        counts["cycles"] += run.cycles
        counts["messages"] += run.messages_sent
        counts["events"] += sum(s.events_executed for s in self._simulators)
        self._simulators.clear()
        self.cell_runs[(run.program.name, run.policy_name)] += 1

    # -- reduction -------------------------------------------------------

    def layer_times(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """``(self seconds per layer, calls per layer, covered seconds)``.

        ``covered`` is the union of all span intervals, computed
        independently of the self-time sums: on properly nested spans
        the two agree, and a mismatch means spans overlapped (work on
        another thread) or a span was charged twice.
        """
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        child_s = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        intervals = []
        for index, (layer, start, end, _parent) in enumerate(self.spans):
            self_s[layer] += (end - start) - child_s[index]
            calls[layer] += 1
            intervals.append((start, end))
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(intervals):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return self_s, calls, covered
