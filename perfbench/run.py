"""The repository benchmark: three layer-contrasting workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-ev --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics.  Diagnostics
(raw wall values, probe rates, per-phase rates, the per-layer table)
go to stdout first; the last line is always one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Wall-clock metrics are speed-normalised: the frozen probe in
``probe.py`` runs between the timed steps, and each step's wall time is
scaled by ``P_step / P_NOMINAL`` (the probe rate around the step over
the reference rate), so a busy or throttled machine does not read as a
slower program.  Virtual-time metrics (unit ``vs``) come from round 0,
whose size is fixed, and repeat exactly for one seed.  See NOTES.md.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import probe  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import tracing  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics (every workload reports all of them): name, unit.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_vs", "vs"),
    ("latency_tail_vs", "vs"),
)

#: Per-layer metrics of the traced run: name, unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.build_s", "s"), ("workloads.routines", "count"),
    ("hub.load_s", "s"), ("hub.invoke_s", "s"), ("hub.invoke_calls", "count"),
    ("sim.run_s", "s"), ("sim.events", "count"),
    ("core.place_s", "s"), ("core.place_calls", "count"),
    ("core.lock_acquire_s", "s"), ("core.lock_acquire_calls", "count"),
    ("core.lock_release_calls", "count"), ("core.lock_wait_vs", "vs"),
    ("devices.issue_s", "s"), ("devices.issue_calls", "count"),
    ("metrics.report_s", "s"), ("metrics.incongruence_s", "s"),
    ("metrics.swap_distance_s", "s"), ("metrics.routines_analyzed", "count"),
    ("metrics.aggregate_s", "s"), ("metrics.temp_incongruence", "fraction"),
    ("fleet.pool_efficiency", "ratio"), ("fleet.rows_bytes", "bytes"),
    ("serve.submit_s", "s"), ("serve.submits", "count"),
    ("serve.queue_depth_max", "count"), ("serve.loop_s", "s"),
    ("serve.final_report_s", "s"),
    ("wal.journal_s", "s"), ("wal.records", "count"), ("wal.bytes", "bytes"),
    ("wal.bytes_per_event", "bytes"), ("wal.segments", "count"),
    ("wal.seals", "count"),
    ("recovery.recover_s", "s"), ("recovery.replayed_events", "count"),
    ("recovery.replayed_records", "count"),
    ("recovery.checkpoints_verified", "count"),
    ("storage.scan_s", "s"), ("fsck.replay_s", "s"),
    ("trace.overhead_pct", "%"), ("trace.untimed_pct", "%"),
    ("probe.ops_per_s", "ops/s"),
)

#: Bypass check of the traced run: counter -> must it be non-zero?
BYPASS: Dict[str, Dict[str, bool]] = {
    "fleet-ev": {"core.place_calls": True, "core.lock_acquire_calls": False},
    "serve-psv": {"core.place_calls": False, "core.lock_acquire_calls": True},
    "durable-recover": {"core.place_calls": True,
                        "core.lock_acquire_calls": False},
}

#: Fresh-interpreter set-up samples per run (the median is reported).
SETUP_SAMPLES = 5

#: Percentiles tried for the latency tail, highest first; the first one
#: with at least TAIL_BEYOND samples above it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10


def percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = (len(sorted_values) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) \
        * (rank - low)


def tail_percentile(count: int) -> float:
    for q in TAIL_PERCENTILES:
        if count * (100.0 - q) / 100.0 >= TAIL_BEYOND:
            return q
    return 50.0


class RoundTiming:
    """Wall and probe figures of one executed round."""

    def __init__(self, state: workloads.Round, prepare_s: float) -> None:
        self.state = state
        self.prepare_s = prepare_s
        #: Wall from the start of prepare to the end of the last step,
        #: probes included.
        self.total_s = 0.0
        #: label -> (raw wall s, normalised wall s)
        self.steps: Dict[str, Tuple[float, float]] = {}
        self.probes: List[float] = []

    @property
    def raw_s(self) -> float:
        return sum(raw for raw, _ in self.steps.values())

    @property
    def norm_s(self) -> float:
        return sum(norm for _, norm in self.steps.values())

    @property
    def done(self) -> int:
        return self.state.attempted - self.state.failed


def run_round(workload, index: int) -> RoundTiming:
    """Prepare, time (probing inside and around steps) and check one
    round."""
    clock = time.perf_counter
    round_started = clock()
    state = workload.prepare(index)
    timing = RoundTiming(state, clock() - round_started)
    # Start every round's timed work from the same heap state.
    gc.collect()
    for label, step in workload.steps(state):
        try:
            raw, speed = probe.timed(step, workload.sample_here)
        except Exception:   # the round's check() counts what was lost
            traceback.print_exc(file=sys.stderr)
            state.errors.append(f"step {label} raised")
            break
        timing.probes.append(speed)
        timing.steps[label] = (raw, raw * speed / probe.P_NOMINAL)
    timing.total_s = clock() - round_started
    workload.check(state)
    state.data.clear()
    return timing


def measure_setup(name: str, seed: int, work_dir: str) -> Tuple[float, float]:
    """(normalised, raw) median set-up seconds over fresh interpreters."""
    normalised, raw = [], []
    for sample in range(SETUP_SAMPLES):
        child_dir = os.path.join(work_dir, f"setup-{sample}")
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_once.py"), name,
             str(seed), child_dir],
            cwd=ROOT, check=True, capture_output=True, text=True,
            timeout=120).stdout
        figures = json.loads(out.strip().splitlines()[-1])
        raw.append(figures["setup_s"])
        normalised.append(
            figures["setup_s"] * figures["probe"] / probe.P_NOMINAL)
    return statistics.median(normalised), statistics.median(raw)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- untraced run: end-to-end metrics ------------------------------------------


def virtual_metrics(latencies: List[float]) -> Dict[str, float]:
    """Virtual-time latency metrics of the first rounds' samples."""
    latencies = sorted(latencies)
    if not latencies:
        return {"latency_p50_vs": 0.0, "latency_tail_vs": 0.0}
    return {
        "latency_p50_vs": percentile(latencies, 50.0),
        "latency_tail_vs": percentile(latencies,
                                      tail_percentile(len(latencies))),
    }


def end_to_end(workload, seconds: float) -> Tuple[Dict, Dict, List[RoundTiming]]:
    deadline = time.perf_counter() + seconds
    rounds: List[RoundTiming] = []
    while len(rounds) < workload.virtual_rounds \
            or time.perf_counter() < deadline:
        timing = run_round(workload, len(rounds))
        if len(rounds) >= workload.virtual_rounds:
            # Unreported samples would make memory grow with the rounds.
            timing.state.latencies = []
        rounds.append(timing)
    # Virtual-time metrics come from a fixed number of rounds, so they
    # repeat exactly for one seed however many rounds the time allows.
    latencies = [sample for r in rounds[:workload.virtual_rounds]
                 for sample in r.state.latencies]
    rates = [r.done / r.norm_s for r in rounds if r.norm_s > 0]
    metrics = virtual_metrics(latencies)
    metrics["ops_per_s"] = statistics.median(rates) if rates else 0.0
    diagnostics = {
        "rounds": len(rounds),
        "ops_per_round": [r.state.attempted for r in rounds],
        "round_rates": rates,
        "round_raw_s": [r.raw_s for r in rounds],
        "raw.ops_per_s": statistics.median(
            r.done / r.raw_s for r in rounds if r.raw_s > 0)
        if rates else 0.0,
        "probe.P_run": statistics.median(
            p for r in rounds for p in r.probes),
        "probe.P_nominal": probe.P_NOMINAL,
        "latency.n": len(latencies),
        "latency.tail_percentile": tail_percentile(len(latencies)),
        "temp_incongruence": rounds[0].state.virtual.get("temp_incongruence"),
    }
    diagnostics.update(phase_rates(workload.name, rounds))
    return metrics, diagnostics, rounds


def phase_rates(name: str, rounds: List[RoundTiming]) -> Dict[str, float]:
    """Per-phase normalised rates (diagnostics, medians over rounds)."""
    def median_of(fn) -> float:
        values = [fn(r) for r in rounds
                  if r.norm_s > 0 and r.state.failed == 0]
        return statistics.median(values) if values else 0.0

    def scale(r: RoundTiming) -> float:
        return r.norm_s / r.raw_s

    if name == "serve-psv":
        return {
            "serve.routines_per_s": median_of(
                lambda r: r.state.attempted / r.steps["serve"][1]),
            "serve.final_report_s": median_of(
                lambda r: r.steps["final_report"][1]),
        }
    if name == "durable-recover":
        return {
            "durable.events_per_s": median_of(
                lambda r: r.state.counts["events"]
                / (r.state.phases["run"] * scale(r))),
            "recovery.records_per_s": median_of(
                lambda r: r.state.counts["recovery.replayed_records"]
                / (r.state.phases["recover"] * scale(r))),
            "fsck.records_per_s": median_of(
                lambda r: r.state.counts["wal.records"]
                / (r.state.phases["fsck"] * scale(r))),
        }
    return {"fleet.homes_per_s": median_of(lambda r: r.done / r.norm_s)}


# -- traced run: per-layer metrics ---------------------------------------------


def per_layer(workload, seconds: float) -> Tuple[Dict, Dict, List[RoundTiming],
                                                List[str]]:
    """Alternate untraced and traced executions of round 0."""
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    samples: List[Dict[str, float]] = []
    tables: List[Dict[str, Tuple[float, float, float]]] = []
    rounds: List[RoundTiming] = []
    overheads: List[float] = []
    while not samples or time.perf_counter() < deadline:
        untraced = run_round(workload, 0)
        tracer.start()
        tracer.install()
        workload.pause_trace = tracer.paused
        try:
            traced = run_round(workload, 0)
        finally:
            tracer.uninstall()
            workload.pause_trace = contextlib.nullcontext
        rounds += [untraced, traced]
        overheads.append(100.0 * (traced.norm_s / untraced.norm_s - 1.0))
        spans, counters = tracer.take()
        values, table = layer_values(spans, counters, traced, untraced,
                                     tracer.paused_s)
        samples.append(values)
        tables.append(table)
    metrics = {name: statistics.median(sample[name] for sample in samples)
               for name, _ in PER_LAYER if name in samples[0]}
    metrics["trace.overhead_pct"] = statistics.median(overheads)
    metrics["probe.ops_per_s"] = statistics.median(
        p for r in rounds for p in r.probes)
    errors = []
    for name, nonzero in BYPASS[workload.name].items():
        if (metrics[name] > 0) != nonzero:
            errors.append(f"bypass check: {name} = {metrics[name]} on "
                          f"{workload.name}, expected "
                          f"{'> 0' if nonzero else '0'}")
    for name in metrics:
        if name.endswith(("_calls", ".events", ".submits")):
            seen = {sample[name] for sample in samples}
            if len(seen) > 1:
                errors.append(f"{name} differs between traced repeats: "
                              f"{sorted(seen)}")
    diagnostics = {"traced_repeats": len(samples),
                   "layers": median_table(tables)}
    return metrics, diagnostics, rounds, errors


def layer_values(spans, counters, traced: RoundTiming,
                 untraced: RoundTiming, paused_s: float):
    """One traced repeat's per-layer metrics and per-layer table."""
    def self_s(span: str) -> float:
        return spans.get(span, (0, 0.0, 0.0))[2]

    def total_s(span: str) -> float:
        return spans.get(span, (0, 0.0, 0.0))[1]

    def calls(span: str) -> float:
        return spans.get(span, (0, 0.0, 0.0))[0]

    counts = traced.state.counts
    phases = untraced.state.phases
    # Wall the trace describes: prepare (minus paused reference runs)
    # plus the timed steps and their probes; a process pool contributes
    # one lane per worker, and its parent-side span keeps only the
    # lanes' idle time.
    wall = traced.total_s - paused_s
    spans = {key: list(value) for key, value in spans.items()}
    if "fleet.pool" in spans:
        lanes = counters["fleet.lane_s"]
        wall += lanes - counters["fleet.pool_wall_s"]
        spans["fleet.pool"][2] = lanes - total_s("fleet.chunk")
    analyzed = counters.get("metrics.routines_analyzed", 0)
    events = counts.get("events", 0)
    values = {
        "workloads.build_s": self_s("workloads.build"),
        "workloads.routines": counters.get("workloads.routines", 0),
        "hub.load_s": self_s("hub.load"),
        "hub.invoke_s": self_s("hub.invoke"),
        "hub.invoke_calls": calls("hub.invoke"),
        "sim.run_s": self_s("sim.run"),
        "sim.events": counters.get("sim.events", 0),
        "core.place_s": self_s("core.place"),
        "core.place_calls": calls("core.place"),
        "core.lock_acquire_s": self_s("core.lock_acquire"),
        "core.lock_acquire_calls": calls("core.lock_acquire"),
        "core.lock_release_calls": calls("core.lock_release"),
        "core.lock_wait_vs": counters.get("core.lock_wait_vs", 0.0),
        "devices.issue_s": self_s("devices.issue"),
        "devices.issue_calls": calls("devices.issue"),
        "metrics.report_s": self_s("metrics.report"),
        "metrics.incongruence_s": self_s("metrics.incongruence"),
        "metrics.swap_distance_s": self_s("metrics.swap_distance"),
        "metrics.routines_analyzed": analyzed,
        "metrics.aggregate_s": self_s("metrics.aggregate"),
        "metrics.temp_incongruence": counters.get(
            "metrics.incongruent_routines", 0.0) / analyzed
        if analyzed else 0.0,
        "fleet.pool_efficiency": counters["fleet.busy_s"]
        / counters["fleet.lane_s"] if counters.get("fleet.lane_s") else 0.0,
        "fleet.rows_bytes": counts.get("rows_bytes", 0),
        "serve.submit_s": self_s("serve.submit"),
        "serve.submits": calls("serve.submit"),
        "serve.queue_depth_max": counts.get("queue_depth_max", 0),
        "serve.loop_s": self_s("serve.loop"),
        "serve.final_report_s": total_s("serve.results")
        + total_s("serve.final_report"),
        "wal.journal_s": phases.get("run", 0.0)
        - phases.get("reference_run", 0.0),
        "wal.records": counts.get("wal.records", 0),
        "wal.bytes": counts.get("wal.bytes", 0),
        "wal.bytes_per_event": counts.get("wal.bytes", 0) / events
        if events else 0.0,
        "wal.segments": counts.get("wal.segments", 0),
        "wal.seals": counts.get("wal.seals", 0),
        "recovery.recover_s": total_s("recovery.recover"),
        "recovery.replayed_events": counts.get("recovery.replayed_events", 0),
        "recovery.replayed_records": counts.get(
            "recovery.replayed_records", 0),
        "recovery.checkpoints_verified": counts.get(
            "recovery.checkpoints_verified", 0),
        "storage.scan_s": total_s("storage.scan"),
        "fsck.replay_s": total_s("fsck.fsck") - total_s("storage.scan"),
    }
    table = {}
    for layer in tracing.LAYERS:
        members = [span for span in spans if tracing.LAYER_OF[span] == layer]
        busy = sum(spans[span][2] for span in members)
        table[layer] = (busy, sum(spans[span][0] for span in members),
                        100.0 * busy / wall)
    accounted = sum(row[0] for row in table.values())
    table["(untimed)"] = (wall - accounted, 0, 100.0 * (wall - accounted)
                          / wall)
    values["trace.untimed_pct"] = table["(untimed)"][2]
    return values, table


def median_table(tables):
    return {layer: tuple(statistics.median(t[layer][i] for t in tables)
                         for i in range(3))
            for layer in tables[0]}


def format_table(name: str, table) -> str:
    lines = [f"per-layer trace of {name} (medians over traced repeats)",
             f"{'layer':<16}{'self s':>10}{'calls':>12}{'share %':>10}"]
    for layer, (busy, count, share) in table.items():
        lines.append(f"{layer:<16}{busy:>10.4f}{int(count):>12}"
                     f"{share:>10.1f}")
    return "\n".join(lines)


# -- entry point ---------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        if args.trace:
            metrics, diagnostics, rounds, errors = per_layer(
                workload, args.seconds)
            units = dict(PER_LAYER)
            print(format_table(args.workload, diagnostics.pop("layers")))
        else:
            setup_s, setup_raw = measure_setup(args.workload, args.seed,
                                               work_dir)
            metrics, diagnostics, rounds = end_to_end(workload, args.seconds)
            metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
            diagnostics["setup_s.raw"] = setup_raw
            errors = []
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))
    attempted = sum(r.state.attempted for r in rounds)
    failed = sum(r.state.failed for r in rounds)
    errors = [e for r in rounds for e in r.state.errors] + errors
    diagnostics["errors"] = errors[:20]
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
