"""The benchmark's three workloads, each built from the run's seed.

Every workload follows one protocol so ``run.py`` can time, probe and
check them alike:

* ``prepare(index)`` builds one round's inputs and objects (set-up,
  never timed);
* ``steps(state)`` lists the round's timed pieces of work as
  ``(label, callable)`` pairs; ``run.py`` runs the speed probe between
  them;
* ``check(state)`` verifies the round's outputs (never timed) and fills
  in ``state.attempted`` / ``state.failed`` / ``state.latencies``.

A round's inputs are a pure function of ``(seed, index)`` and rounds
have a fixed size, so the virtual-time metrics taken from the first
``virtual_rounds`` rounds repeat exactly for one seed however many
rounds a run manages.

Imports of ``repro`` happen inside ``prepare`` so that ``setup_once.py``
can time them as part of set-up.  See NOTES.md for why each workload
exists and which layers it loads.
"""

import contextlib
import hashlib
import json
import os
import pickle
import random
import shutil
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Fleet-ev: homes per round (about 17 routines each) and process workers.
FLEET_HOMES = 1000
FLEET_WORKERS = 2

#: Serve-psv: homes, tenants, routines kept outstanding per tenant, and
#: routines per tenant per round (16 x 500 = 8000 tickets).
SERVE_HOMES = 2
SERVE_TENANTS = 16
SERVE_OUTSTANDING = 4
SERVE_PER_TENANT = 500

#: Durable-recover: homes per round, chaos scenes stacked per home, the
#: virtual seconds between stacked scenes, and the crash window (share
#: of the home's total simulator events).
DURABLE_HOMES = 6
DURABLE_SCENES = 40
DURABLE_SCENE_PERIOD_S = 8.0
DURABLE_CRASH_WINDOW = (0.88, 0.92)

Step = Tuple[str, Callable[[], None]]


def sub_seed(seed: int, label: str) -> int:
    """A 32-bit seed derived from the run seed; independent of repro."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class Round:
    """One round's objects, outputs and verdict."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.latencies: List[float] = []
        #: Raw wall seconds of named phases inside the timed steps.
        self.phases: Dict[str, float] = {}
        #: Deterministic per-round counts (events, WAL records, ...).
        self.counts: Dict[str, float] = {}
        #: Virtual-time figures beyond latency (e.g. incongruence).
        self.virtual: Dict[str, float] = {}
        self.data: Dict[str, Any] = {}

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.errors.append(reason)

    def add_phase(self, name: str, seconds: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class FleetEV:
    """``FleetEngine`` at ``repro fleet`` defaults on a process pool.

    Open loop in virtual time: each home's routines arrive at seeded
    times fixed by its scenario, whatever the hub does.
    """

    name = "fleet-ev"
    virtual_rounds = 1
    #: The work runs in the pool's workers, so they take the speed
    #: samples; a probe in the waiting parent would only compete with
    #: them for the two cores.
    sample_here = False

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.speed_dir = os.path.join(work_dir, "speed")

    def prepare(self, index: int) -> Round:
        from repro.fleet import FleetConfig, FleetEngine

        state = Round(index)
        state.data["engine"] = FleetEngine(FleetConfig(
            homes=FLEET_HOMES, seed=sub_seed(self.seed, f"fleet/{index}"),
            backend="process", workers=FLEET_WORKERS))
        return state

    def steps(self, state: Round) -> List[Step]:
        def run_fleet() -> Tuple[List[float], float]:
            from repro.fleet import pool

            os.makedirs(self.speed_dir, exist_ok=True)
            original = pool.process_chunk
            pool.process_chunk = _sampled_chunk(original, self.speed_dir)
            try:
                state.data["result"] = state.data["engine"].run()
            finally:
                pool.process_chunk = original
            return _collect_samples(self.speed_dir)
        return [("fleet", run_fleet)]

    def check(self, state: Round) -> None:
        state.attempted = FLEET_HOMES
        result = state.data.get("result")
        if result is None:
            state.fail(FLEET_HOMES, "fleet run produced no result")
            return
        rows = {row["home_id"]: row for row in result.rows}
        missing = FLEET_HOMES - len(rows.keys() & set(range(FLEET_HOMES)))
        if missing:
            state.fail(missing, f"{missing} home rows missing")
        bad = [home_id for home_id, row in rows.items()
               if row["final_congruent"] is not True
               or row["committed"] + row["aborted"] != row["routines"]]
        if bad:
            state.fail(len(bad), f"homes not final-congruent: {bad[:5]}")
        state.latencies = [sample for home_id in sorted(rows)
                           for sample in rows[home_id]["latencies"]]
        state.virtual["temp_incongruence"] = \
            result.aggregate["temporary_incongruence_mean"]
        state.add_count("rows_bytes", len(pickle.dumps(result.rows)))


def _sampled_chunk(process_chunk: Callable, speed_dir: str) -> Callable:
    """``process_chunk`` with speed samples taken inside the worker.

    Forked workers inherit this wrapper; each writes its samples to
    ``speed_dir`` for the parent to read after the pool has stopped.
    """
    import probe

    def sampled(context, chunk_id, chunk, factory):
        sampler = probe.SpeedSampler()
        with sampler:
            result = process_chunk(context, chunk_id, chunk, factory)
        path = os.path.join(speed_dir, f"{os.getpid()}-{chunk_id}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([sampler.rates, sampler.probe_s], handle)
        return result

    return sampled


def _collect_samples(speed_dir: str) -> Tuple[List[float], float]:
    """All workers' samples, and the mean probe seconds per chunk (the
    time by which the probes lengthened the pool's wall)."""
    rates: List[float] = []
    probe_s: List[float] = []
    for name in sorted(os.listdir(speed_dir)):
        path = os.path.join(speed_dir, name)
        with open(path, encoding="utf-8") as handle:
            chunk_rates, chunk_probe_s = json.load(handle)
        os.remove(path)
        rates += chunk_rates
        probe_s.append(chunk_probe_s)
    return rates, sum(probe_s) / len(probe_s) if probe_s else 0.0


class ServePSV:
    """A ``ServeHub`` over PSV homes driven by a closed loop of tenants.

    Closed loop: 16 tenants (weights 1 and 2) each keep 4 routines
    outstanding; a tenant submits its next routine only when one of its
    tickets finishes, so admission queues fill to depth 4.
    """

    name = "serve-psv"
    virtual_rounds = 1
    sample_here = True

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed

    def prepare(self, index: int) -> Round:
        from repro.serve.hub import ServeConfig, ServeHub
        from repro.serve.loadgen import MENU_NAMES, build_serve_home

        state = Round(index)
        homes = {f"home-{h}": build_serve_home(
                     model="psv",
                     seed=sub_seed(self.seed, f"serve/{index}/home/{h}"))
                 for h in range(SERVE_HOMES)}
        hub = ServeHub(homes, ServeConfig(queue_capacity=SERVE_OUTSTANDING))
        tenants = [f"tenant-{t:02d}" for t in range(SERVE_TENANTS)]
        for t, tenant in enumerate(tenants):
            hub.add_tenant(tenant, weight=1 + t % 2)
        pickers = {tenant: random.Random(
                       sub_seed(self.seed, f"serve/{index}/{tenant}"))
                   for tenant in tenants}
        remaining = dict.fromkeys(tenants, SERVE_PER_TENANT)
        tickets: List[Any] = []

        def submit_next(tenant: str) -> None:
            if remaining[tenant] <= 0:
                return
            remaining[tenant] -= 1
            tickets.append(hub.submit(
                tenant, pickers[tenant].choice(MENU_NAMES)))

        hub.on_ticket_done.append(lambda ticket: submit_next(ticket.tenant))
        state.data.update(hub=hub, tenants=tenants, tickets=tickets,
                          submit_next=submit_next)
        return state

    def steps(self, state: Round) -> List[Step]:
        hub = state.data["hub"]

        def serve() -> None:
            for tenant in state.data["tenants"]:
                for _ in range(SERVE_OUTSTANDING):
                    state.data["submit_next"](tenant)
            hub.serve_until_idle()

        def final_report() -> None:
            hub.results()
            state.data["report"] = hub.final_report()

        return [("serve", serve), ("final_report", final_report)]

    def check(self, state: Round) -> None:
        hub = state.data["hub"]
        tickets = state.data["tickets"]
        expected = SERVE_TENANTS * SERVE_PER_TENANT
        state.attempted = expected
        if len(tickets) != expected:
            state.fail(expected - len(tickets),
                       f"{len(tickets)} of {expected} tickets submitted")
        if "report" not in state.data:
            state.fail(len(tickets), "the serve loop or its report raised")
            return
        lost = {t.seq for t in tickets
                if t.status not in ("committed", "aborted")
                or t.finished_v is None}
        if lost:
            state.errors.append(f"{len(lost)} tickets dropped or timed out")
        for home, oracle in hub.oracle_reports().items():
            if not oracle.ok:
                lost.update(t.seq for t in tickets if t.home == home)
                state.errors.append(f"oracle violations on {home}: "
                                    f"{oracle.to_dict()['violations'][:3]}")
        state.failed += len(lost)
        state.latencies = [t.latency_v for t in tickets
                           if t.latency_v is not None]
        state.add_count("queue_depth_max", max(
            tenant["max_depth"]
            for tenant in state.data["report"]["tenants"].values()))


def stacked_chaos_workload(seed: int, scenes: int):
    """``scenes`` seeded chaos evening scenes, one every
    ``DURABLE_SCENE_PERIOD_S`` virtual seconds, as one workload."""
    from repro.devices.failures import FailurePlan
    from repro.workloads import chaos
    from repro.workloads.base import Workload

    arrivals = []
    failures = []
    for scene in range(scenes):
        workload = chaos.chaos_workload(sub_seed(seed, f"scene/{scene}"))
        offset = scene * DURABLE_SCENE_PERIOD_S
        arrivals.extend((routine, round(at + offset, 6))
                        for routine, at in workload.arrivals)
        failures.extend(FailurePlan(
            plan.device_id, round(plan.fail_at + offset, 6),
            None if plan.restart_at is None
            else round(plan.restart_at + offset, 6))
            for plan in workload.failure_plans)
    return Workload(name="chaos-stacked", devices=list(workload.devices),
                    arrivals=arrivals, failure_plans=failures,
                    horizon_hint=scenes * DURABLE_SCENE_PERIOD_S)


def _outcome(home) -> Tuple[Any, ...]:
    """What a finished home must agree on with its reference run."""
    result = home.last_result
    return (home.snapshot(),
            [(run.routine_id, run.status.value, run.finish_time)
             for run in result.runs])


class DurableRecover:
    """Durable EV homes on on-disk WALs: crash, recover, finish, fsck.

    Open loop in virtual time (seeded chaos scenes).  Each home's timed
    step is its whole life: run to a seeded crash about 90% through,
    ``recover(mode="replay")``, run to the end, ``close_wal()``, then
    ``fsck_path()`` over the directory it wrote.
    """

    name = "durable-recover"
    #: One round holds ~1200 routines, 12 of them beyond p99; the
    #: latency metrics pool three rounds to put 36 there.
    virtual_rounds = 3
    sample_here = True

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        #: Replaced by run.py's traced mode: the reference runs are not
        #: part of the work the per-layer trace describes.
        self.pause_trace: Callable[[], Any] = contextlib.nullcontext

    def prepare(self, index: int) -> Round:
        from repro.hub.durability import DurabilityConfig
        from repro.hub.safehome import SafeHome

        state = Round(index)
        round_dir = os.path.join(self.work_dir, f"round-{index}")
        shutil.rmtree(round_dir, ignore_errors=True)
        homes = []
        for h in range(DURABLE_HOMES):
            seed = sub_seed(self.seed, f"durable/{index}/home/{h}")
            with self.pause_trace():
                # Uninterrupted non-durable run of the same input: the
                # correctness reference, the crash point's event range
                # and the base that wal.journal_s is measured against.
                reference = SafeHome(visibility="ev", seed=seed)
                reference.load_workload(
                    stacked_chaos_workload(seed, DURABLE_SCENES))
                started = time.perf_counter()
                reference.run()
                state.add_phase("reference_run", time.perf_counter() - started)
            total = reference.sim.events_processed
            low, high = DURABLE_CRASH_WINDOW
            crash_at = int(total * random.Random(seed).uniform(low, high))
            wal_dir = os.path.join(round_dir, f"home-{h}")
            home = SafeHome(visibility="ev", seed=seed,
                            durability=DurabilityConfig(), wal_dir=wal_dir)
            home.load_workload(stacked_chaos_workload(seed, DURABLE_SCENES))
            home.crash(after_events=crash_at)
            homes.append({"home": home, "wal_dir": wal_dir,
                          "expected": _outcome(reference)})
        state.data.update(homes=homes, round_dir=round_dir)
        return state

    def steps(self, state: Round) -> List[Step]:
        return [(f"home-{h}", _lifecycle_step(state, entry))
                for h, entry in enumerate(state.data["homes"])]

    def check(self, state: Round) -> None:
        homes = state.data["homes"]
        state.attempted = len(homes)
        for h, entry in enumerate(homes):
            error = entry.get("error") or _durable_error(entry)
            if error:
                state.fail(1, f"home-{h}: {error}")
                continue
            home, report, verdict = \
                entry["home"], entry["report"], entry["verdict"]
            state.latencies.extend(home.last_result.latencies())
            state.add_count("events", home.sim.events_processed)
            state.add_count("recovery.replayed_events",
                            report.replayed_events)
            state.add_count("recovery.replayed_records",
                            report.replayed_records)
            state.add_count("recovery.checkpoints_verified",
                            report.checkpoints_verified)
            state.add_count("wal.records", verdict.records)
            state.add_count("wal.seals", verdict.seals)
            state.add_count("wal.segments", len(verdict.segments))
            state.add_count("wal.bytes", sum(
                segment["bytes"] for segment in verdict.segments))
        shutil.rmtree(state.data["round_dir"], ignore_errors=True)


def _durable_error(entry: Dict[str, Any]) -> Optional[str]:
    """Why a durable home's life failed, or None when it is correct."""
    verdict = entry.get("verdict")
    if verdict is None:
        return "not run"
    if verdict.exit_code() != 0 or not verdict.clean_close:
        return (f"fsck not healthy: status {verdict.status}, exit code "
                f"{verdict.exit_code()}, clean close {verdict.clean_close}")
    if _outcome(entry["home"]) != entry["expected"]:
        return "recovered run diverged from the reference run"
    return None


def _lifecycle_step(state: Round, entry: Dict[str, Any]) -> Callable[[], None]:
    """One durable home's timed life; a failed recovery is recorded in
    ``entry`` for ``check`` rather than raised."""
    from repro.errors import CorruptionError, RecoveryError
    from repro.hub.durability import fsck

    def lifecycle() -> None:
        home = entry["home"]
        clock = time.perf_counter
        started = clock()
        home.run()
        crashed_at = clock()
        state.add_phase("run", crashed_at - started)
        if not home.crashed:
            entry["error"] = "the scheduled crash never fired"
            return
        try:
            entry["report"] = home.recover(mode="replay")
        except (RecoveryError, CorruptionError) as exc:   # divergence
            entry["error"] = f"recover raised {exc!r}"
            return
        recovered_at = clock()
        state.add_phase("recover", recovered_at - crashed_at)
        home.run()
        home.close_wal()
        closed_at = clock()
        state.add_phase("run", closed_at - recovered_at)
        entry["verdict"] = fsck.fsck_path(entry["wal_dir"])
        state.add_phase("fsck", clock() - closed_at)

    return lifecycle


WORKLOADS = {cls.name: cls for cls in (FleetEV, ServePSV, DurableRecover)}
