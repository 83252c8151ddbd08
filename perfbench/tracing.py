"""Per-layer tracing from the benchmark's own files.

``Tracer.install()`` wraps the public entry points of each ``repro``
layer (listed in :data:`SPANS`) with timers and counters, and
``uninstall()`` puts the originals back; nothing under ``src/`` is
edited.  A span's self time is its duration minus the time of the spans
it directly encloses, so a layer's self times add up without double
counting.

Fleet workers are forked from the traced parent and inherit the
wrappers.  Each worker clears the copy of the parent's state it was
forked with, traces its chunk, and ships its totals back on the
``ChunkResult``; the parent folds them in (see :meth:`Tracer.merge`).
"""

import contextlib
import functools
import importlib
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name, layer).  The attribute is patched
#: where callers look it up: ``build_fleet_workload`` is imported by
#: name into the fleet worker, ``aggregate_homes`` into the engine and
#: ``scan_wal_dir`` into fsck.
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.fleet.worker", "build_fleet_workload", "workloads.build",
     "workloads"),
    ("repro.workloads.chaos", "chaos_workload", "workloads.build",
     "workloads"),
    ("repro.hub.safehome", "SafeHome.reset", "hub.load", "hub"),
    ("repro.hub.safehome", "SafeHome.load_workload", "hub.load", "hub"),
    ("repro.hub.safehome", "SafeHome.invoke", "hub.invoke", "hub"),
    ("repro.hub.safehome", "SafeHome.run", "hub.run", "hub"),
    ("repro.hub.safehome", "SafeHome.finalize_service", "hub.run", "hub"),
    ("repro.sim.engine", "Simulator.run", "sim.run", "sim"),
    ("repro.core.controller", "Controller.submit", "core.submit", "core"),
    ("repro.core.controller", "Controller.commit", "core.commit", "core"),
    ("repro.core.controller", "Controller.abort", "core.commit", "core"),
    ("repro.core.schedulers.timeline", "TimelineScheduler.on_arrive",
     "core.place", "core"),
    ("repro.core.execution.locks", "LockTable.acquire",
     "core.lock_acquire", "core"),
    ("repro.core.execution.locks", "LockTable.release",
     "core.lock_release", "core"),
    ("repro.core.execution.locks", "LockTable.forget",
     "core.lock_release", "core"),
    ("repro.devices.driver", "Driver.issue", "devices.issue", "devices"),
    ("repro.hub.safehome", "SafeHome.report", "metrics.report", "metrics"),
    ("repro.metrics.congruence", "temporary_incongruence",
     "metrics.incongruence", "metrics"),
    ("repro.metrics.stats", "swap_distance", "metrics.swap_distance",
     "metrics"),
    ("repro.fleet.engine", "aggregate_homes", "metrics.aggregate",
     "metrics"),
    ("repro.fleet.pool", "ProcessPool.run", "fleet.pool", "fleet"),
    ("repro.fleet.pool", "process_chunk", "fleet.chunk", "fleet"),
    ("repro.serve.hub", "ServeHub.submit", "serve.submit", "serve"),
    ("repro.serve.hub", "ServeHub.serve_until_idle", "serve.loop", "serve"),
    ("repro.serve.hub", "ServeHub.results", "serve.results", "serve"),
    ("repro.serve.hub", "ServeHub.final_report", "serve.final_report",
     "serve"),
    ("repro.hub.durability.recovery", "DurabilityManager.record_input",
     "wal.journal", "hub.durability"),
    ("repro.hub.durability.recovery", "DurabilityManager.observe",
     "wal.journal", "hub.durability"),
    ("repro.hub.durability.recovery", "DurabilityManager.take_checkpoint",
     "wal.checkpoint", "hub.durability"),
    ("repro.hub.durability.storage", "SegmentedWalWriter.append",
     "wal.write", "hub.durability"),
    ("repro.hub.durability.storage", "SegmentedWalWriter.seal",
     "wal.write", "hub.durability"),
    ("repro.hub.safehome", "SafeHome.close_wal", "wal.write",
     "hub.durability"),
    ("repro.hub.safehome", "SafeHome.recover", "recovery.recover",
     "hub.durability"),
    ("repro.hub.durability.fsck", "scan_wal_dir", "storage.scan",
     "hub.durability"),
    ("repro.hub.durability.fsck", "fsck_path", "fsck.fsck",
     "hub.durability"),
    # The speed probe runs inside traced spans (from a signal handler);
    # as a span of its own it drops out of their self times.
    ("probe", "probe_round", "probe.round", "probe"),
)

#: Span name -> layer, for the per-layer table.
LAYER_OF: Dict[str, str] = {name: layer for _, _, name, layer in SPANS}

#: Layers in table order.
LAYERS: Tuple[str, ...] = ("workloads", "hub", "sim", "core", "devices",
                           "metrics", "fleet", "serve", "hub.durability",
                           "probe")


def _count_events_before(args: tuple) -> int:
    return args[0].events_processed


def _count_events_after(tracer: "Tracer", args: tuple, result: Any,
                        before: int) -> None:
    tracer.count("sim.events", args[0].events_processed - before)


def _count_report(tracer: "Tracer", args: tuple, report: Any,
                  before: None) -> None:
    tracer.count("metrics.routines_analyzed", report.routines)
    tracer.count("metrics.incongruent_routines",
                 report.temporary_incongruence * report.routines)
    lock_wait = report.lock_wait
    tracer.count("core.lock_wait_vs",
                 lock_wait.get("mean", 0.0) * lock_wait.get("n", 0))


def _count_workload(tracer: "Tracer", args: tuple, workload: Any,
                    before: None) -> None:
    tracer.count("workloads.routines", workload.routine_count)


#: Extra counters taken around a span: name -> (before, after).
HOOKS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "Simulator.run": (_count_events_before, _count_events_after),
    "SafeHome.report": (None, _count_report),
    "build_fleet_workload": (None, _count_workload),
    "chaos_workload": (None, _count_workload),
}


class Tracer:
    """Span totals and counters for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: span name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        #: Wall seconds spent inside :meth:`paused` blocks.
        self.paused_s = 0.0
        self._stack: List[float] = []
        self._paused = False
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def record(self, name: str, elapsed: float, self_s: float) -> None:
        entry = self.spans.get(name)
        if entry is None:
            entry = self.spans[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += self_s

    def wrap(self, name: str, fn: Callable,
             hooks: Tuple[Optional[Callable], Optional[Callable]] = (None, None)
             ) -> Callable:
        tracer = self
        before_hook, after_hook = hooks
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            token = before_hook(args) if before_hook else None
            stack = tracer._stack
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                tracer.record(name, elapsed, elapsed - children)
            if after_hook:
                after_hook(tracer, args, result, token)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Run a block untraced (its wall time is kept in paused_s)."""
        started = time.perf_counter()
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            self.paused_s += time.perf_counter() - started

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        for module_name, path, name, _layer in SPANS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapped = self.wrap(name, original, HOOKS.get(path, (None, None)))
            if path == "process_chunk":
                wrapped = self._shipping_chunks(wrapped)
            elif path == "ProcessPool.run":
                wrapped = self._merging_pool(wrapped)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- fleet workers ---------------------------------------------------------

    def _shipping_chunks(self, traced_chunk: Callable) -> Callable:
        """Worker side: trace one chunk and attach the totals to it."""
        tracer = self

        def chunk(*args, **kwargs):
            in_worker = os.getpid() != tracer.pid
            if in_worker:
                # A forked worker starts from a copy of the parent's
                # state, open parent spans included: drop it.
                tracer.take()
                tracer._stack.clear()
            result = traced_chunk(*args, **kwargs)
            if in_worker:
                result.bench_trace = tracer.take()
            return result

        return chunk

    def _merging_pool(self, traced_run: Callable) -> Callable:
        """Parent side: fold the workers' totals in; record pool use."""
        tracer = self

        def run(pool, context, chunks):
            started = time.perf_counter()
            results = traced_run(pool, context, chunks)
            wall = time.perf_counter() - started
            busy = 0.0
            for result in results:
                shipped = getattr(result, "bench_trace", None)
                if shipped is not None:
                    tracer.merge(shipped)
                    busy += shipped[0].get("fleet.chunk", (0, 0.0))[1]
            tracer.count("fleet.busy_s", busy)
            tracer.count("fleet.lane_s", pool.workers * wall)
            tracer.count("fleet.pool_wall_s", wall)
            return results

        return run

    def start(self) -> None:
        """Clear totals and mark this process as the traced parent."""
        self.pid = os.getpid()
        self.take()
        self.paused_s = 0.0

    def take(self) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
        """Return and clear (spans, counters)."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = {}, {}
        return spans, counters

    def merge(self, shipped: Tuple[Dict[str, List[float]],
                                   Dict[str, float]]) -> None:
        spans, counters = shipped
        for name, (calls, total, self_s) in spans.items():
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, value in counters.items():
            self.count(name, value)
