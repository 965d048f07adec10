"""The three benchmark workloads.

Each workload has a set-up (the program-side state a user's process
builds before the work: imports, scenario, router), a measured phase
run through the public ``repro`` API, output checks, and a traced pass
that repeats the measured phase with the layer functions wrapped (see
:mod:`tracer`).

* ``simulate_paper`` -- ``repro.simulate`` of the paper scenario, trace
  written as ``.fourcol``: fleet, simulation, FMS, engine, no analysis.
* ``report_paper`` -- a fresh ``load_columnar`` of that trace plus its
  inventory CSV, then a complete ``full_report(..., inventory=...)``
  with no cache, as ``fouryears analyze trace.fourcol --inventory
  inv.csv`` pays on every invocation: core, analysis, stats.
* ``ingest_backfill`` -- one closed-loop producer replays a dirtied
  stream of 500-ticket batches into an ``IngestRouter`` with
  ``submit_wait``, while one closed-loop analyst reads the headline
  ``full_report`` over ``router.live.current()`` through the router's
  cache: serve, robustness batch validation, repeated small reads.
  It is not listed in ``BENCHMARK.json``: ``LiveDataset`` drops batches
  when a read compacts during an append, so its output check fails.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import inputs
from tracer import Target, Tracer

#: Size of the paper scenario (1.0 is the paper's fleet).  A quarter
#: fleet lets one run simulate, check and report on several scenario
#: seeds; at full scale one simulation and its checks take over 30 s.
SCALE = 0.25
#: ``validate_trace`` tolerance (1.0 holds the trace to the paper's
#: targets).
SLACK = 1.0
#: Scenario seeds per run.  The cost of a simulation or a report
#: differs by up to half from one scenario seed to another (most of it,
#: in the simulator, is ``np.intersect1d`` in
#: ``inject_correlated_pairs``), so each run measures several seeds and
#: reports the median.
SCENARIOS = 4
#: Fewest fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPS = 7
#: The analyst must complete at least this many reads, so that at
#: least 10 samples lie above the p90.
MIN_READS = 100
#: The ingest stream is this share of the paper scenario's size
#: (about 15k tickets in 30 batches).
STREAM_SCALE = 0.2
#: Queue watermark and refresh interval, in batches: the serve soak's
#: 64 and 50 scaled to the shorter stream, so that every backfill
#: waits through backpressure and refreshes.
QUEUE_HIGH_WATERMARK = 16
REFRESH_INTERVAL_BATCHES = 20
#: Cap on the slow-producer stalls the chaos manifest asks for.
MAX_STALL_SECONDS = 0.005
#: A transient append fault on every Nth batch (retried).
FAULT_EVERY = 25


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: (name, value, unit) lines under the workload's own metric names.
    lines: List[Tuple[str, object, str]] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def scenario_seeds(seed: int) -> List[int]:
    """The run's scenario seeds, derived from the workload seed alone."""
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(SCENARIOS)]


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q))


def start_iteration() -> None:
    """Collect the garbage the last iteration left, so that each timed
    iteration starts from a heap like a fresh process's; flush the files
    written so far, so that their writeback does not overlap the timed
    part; then start a new peak-RSS window."""
    gc.collect()
    os.sync()
    reset_peak_rss()


def reset_peak_rss() -> None:
    """Start a new peak-RSS window (Linux ``clear_refs`` 5 resets VmHWM)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS of this process since :func:`reset_peak_rss`.  Forked
    pool workers are not included."""
    try:
        with open("/proc/self/status") as fh:
            match = re.search(r"VmHWM:\s+(\d+)", fh.read())
        if match:
            return int(match.group(1)) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# set-up: what a fresh process builds before the workload's work
# ----------------------------------------------------------------------
def setup_simulate(seed: int) -> None:
    import repro  # noqa: F401
    from repro.config import paper_scenario
    from repro.core.storage import save_columnar  # noqa: F401

    inputs.paper_policy()
    for s in scenario_seeds(seed):
        paper_scenario(scale=SCALE, seed=s)


def setup_report(seed: int) -> None:
    import repro  # noqa: F401
    from repro.core.storage import load_columnar  # noqa: F401
    from repro.fleet.inventory import Inventory  # noqa: F401


def setup_ingest(seed: int) -> None:
    async def start_stop() -> None:
        router = new_router(seed)
        router.start()
        await router.stop()

    asyncio.run(start_stop())


class SetupTimer:
    """Times fresh interpreters that import the program and build the
    workload's state.  The workloads take one sample before each timed
    iteration, so that the samples spread over the run as its iterations
    do; :meth:`median` tops them up to ``SETUP_REPS``."""

    def __init__(self, workload: str, seed: int):
        code = (
            f"import sys; sys.path.insert(0, {str(inputs.HERE)!r}); import workloads; "
            f"workloads.SCALE = {SCALE!r}; workloads.WORKLOADS[{workload!r}].setup({seed!r})"
        )
        self.argv = [sys.executable, "-c", code]
        self.times: List[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        child = subprocess.Popen(self.argv, env=inputs.child_env())
        # A blocking wait returns as the child exits; wait(timeout) polls
        # every 50 ms, which would round set-up times to that step.  The
        # timer bounds a hung child instead.
        killer = threading.Timer(120, child.kill)
        killer.start()
        try:
            child.wait()
        finally:
            killer.cancel()
            killer.join()
        self.times.append(time.perf_counter() - started)
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, self.argv)

    def median(self) -> float:
        while len(self.times) < SETUP_REPS:
            self.sample()
        return statistics.median(self.times)


# ----------------------------------------------------------------------
# traced layers
# ----------------------------------------------------------------------
TARGETS = (
    Target("repro.fleet.builder:build_fleet", "fleet.build_fleet"),
    Target("repro.fleet.fleet:Fleet.counts_for", "fleet.counts_for"),
    Target("repro.simulation.trace:plan_trace", "simulation.plan_trace"),
    Target("repro.simulation.batch_events:inject_batch_events",
           "simulation.inject_batch_events"),
    Target("repro.simulation.correlated:inject_correlated_pairs",
           "simulation.inject_correlated_pairs"),
    Target("repro.simulation.correlated:inject_flapping_server",
           "simulation.inject_flapping_server"),
    Target("repro.simulation.correlated:inject_synchronous_groups",
           "simulation.inject_synchronous_groups"),
    Target("repro.simulation.base_process:class_budget_scales",
           "simulation.class_budget_scales"),
    Target("repro.simulation.base_process:sample_shard_failures",
           "simulation.sample_shard_failures"),
    Target("repro.simulation.trace:run_shard", "simulation.run_shard", "shard"),
    Target("repro.simulation.trace:finish_trace", "simulation.finish_trace"),
    Target("repro.engine.parallel:run_shards", "engine.run_shards", "pool"),
    Target("repro.fms.pipeline:FMSPipeline.run_store", "fms.run_store"),
    Target("repro.core.storage:save_columnar", "core.save_columnar"),
    Target("repro.core.storage:load_columnar", "core.load_columnar"),
    Target("repro.core.columns:ColumnStore.ticket", "core.ticket", "count"),
    Target("repro.analysis.repeating:repeating_stats", "analysis.repeating_stats"),
    Target("repro.analysis.repeating:repeat_chains", "analysis.repeat_chains"),
    Target("repro.analysis.correlated:component_pair_counts",
           "analysis.component_pair_counts"),
    Target("repro.analysis.spatial:rack_position_tests", "analysis.rack_position_tests"),
    Target("repro.analysis.response:rt_distribution", "analysis.rt_distribution"),
    Target("repro.analysis.tbf:analyze_tbf", "analysis.analyze_tbf"),
    Target("repro.robustness.quality:DataQuality.assess", "robustness.assess"),
    Target("repro.robustness.batch:validate_batch", "robustness.validate_batch"),
    Target("repro.serve.store:LiveDataset.append", "serve.append"),
    Target("repro.serve.store:LiveDataset.current", "serve.current"),
    Target("repro.serve.queue:IngestQueue.get", "serve.queue_get", "stamp"),
)

#: Builders of ``full_report`` in report order (``_SECTIONS``, then the
#: inventory-dependent Table IV, then the quality notes).
SECTION_NAMES = (
    "table_i", "table_ii", "mtbf", "fig3", "fig7", "table_v", "table_vi", "fig9",
    "table_iv", "quality",
)


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer times and counts read from the spans (0 for layers the
    run never entered)."""
    t, c = tracer.total, tracer.counts.get
    out: Dict[str, float] = {
        "fleet.build_fleet_s": t("fleet.build_fleet"),
        "fleet.counts_for_s": t("fleet.counts_for"),
        "fleet.counts_for_calls": c("fleet.counts_for", 0),
        "simulation.plan_trace_s": t("simulation.plan_trace"),
        "simulation.plan_trace_self_s": tracer.self_total("simulation.plan_trace"),
        "fms.run_store_s": t("fms.run_store"),
        "core.save_columnar_s": t("core.save_columnar"),
        "core.load_columnar_s": t("core.load_columnar"),
        "core.fot_materialized": c("core.ticket", 0),
        "analysis.rt_distribution_calls": c("analysis.rt_distribution", 0),
        "robustness.assess_s": t("robustness.assess"),
        "robustness.assess_calls": c("robustness.assess", 0),
        "robustness.validate_batch_s": t("robustness.validate_batch"),
        "robustness.validate_batch_calls": c("robustness.validate_batch", 0),
        "serve.append_s": t("serve.append"),
        "serve.current_s": t("serve.current"),
    }
    for name in ("inject_batch_events", "inject_correlated_pairs",
                 "inject_flapping_server", "inject_synchronous_groups",
                 "class_budget_scales", "sample_shard_failures", "run_shard",
                 "finish_trace"):
        out[f"simulation.{name}_s"] = t(f"simulation.{name}")
    for name in ("repeating_stats", "repeat_chains", "component_pair_counts",
                 "rack_position_tests", "analyze_tbf"):
        out[f"analysis.{name}_s"] = t(f"analysis.{name}")
    for name in SECTION_NAMES:
        out[f"analysis.section.{name}_s"] = t(f"analysis.section.{name}")
    return out


def overheads(plain: Outcome, traced_: Outcome) -> Dict[str, float]:
    """Traced minus untraced, for each end-to-end metric the traced pass
    repeats."""
    return {
        f"overhead.{name}": traced_.metrics[name][0] - plain.metrics[name][0]
        for name in ("wall_s", "peak_rss_mb")
    }


# ----------------------------------------------------------------------
# simulate_paper
# ----------------------------------------------------------------------
def run_simulate(seed: int, seconds: float, work: Path, tracer: Optional[Tracer] = None,
                 between: Callable[[], None] = lambda: None,
                 ) -> Tuple[Outcome, Dict[str, float]]:
    import repro
    from repro.config import paper_scenario

    out = Outcome()
    seeds = scenario_seeds(seed)
    scenarios = [paper_scenario(scale=SCALE, seed=s) for s in seeds]
    policy = inputs.paper_policy()
    times: List[float] = []
    fingerprints: Dict[int, str] = {}
    tickets: Dict[int, int] = {}
    layers: Dict[str, float] = {}
    rss = 0.0
    raw_events = 0
    plan = ""
    # Each scenario once, then round robin until ``seconds`` of
    # simulation time; output checks run between the timed calls.
    while len(times) < len(seeds) or sum(times) < seconds:
        i = len(times) % len(seeds)
        path = work / f"simulate-{len(times)}.fourcol"
        out.attempted += 1
        between()
        start_iteration()
        started = time.perf_counter()
        if tracer is not None:
            with tracer.span("simulate"):
                trace = simulate_to(repro, scenarios[i], policy, path)
        else:
            trace = simulate_to(repro, scenarios[i], policy, path)
        times.append(time.perf_counter() - started)
        rss = max(rss, peak_rss_mb())
        fingerprint = trace.dataset.fingerprint()
        if i in fingerprints:
            out.check(fingerprint == fingerprints[i],
                      f"scenario seed {seeds[i]}: simulations disagree")
            shutil.rmtree(path, ignore_errors=True)
        else:
            fingerprints[i] = fingerprint
            tickets[i] = len(trace.dataset)
            if i == 0:
                plan = f"{trace.telemetry.plan.mode} x{trace.telemetry.plan.jobs}"
            if tracer is None:
                check_simulation(out, trace, path, seeds[i])
                if i == 0:
                    layers.update(engine_metrics(trace))
                raw_events += trace.fms_stats.get("events_in", 0)
        del trace
    if tracer is None:
        layers["simulation.raw_events"] = float(raw_events)
        layers["simulation.tickets"] = float(sum(tickets.values()))

    simulate_s = statistics.median(times)
    out.metrics = {"wall_s": (simulate_s, "s"), "peak_rss_mb": (rss, "MB")}
    out.lines = [
        ("simulate_s", simulate_s, "s"),
        ("simulations", len(times), "count"),
        ("times", " ".join(f"{t:.3f}" for t in times), "s"),
        ("scenario_seeds", " ".join(map(str, seeds)), ""),
        ("tickets", " ".join(str(tickets[i]) for i in sorted(tickets)), "count"),
        ("fingerprints", " ".join(fingerprints[i][:16] for i in sorted(fingerprints)), ""),
        ("plan", plan, ""),
    ]
    return out, layers


def simulate_to(repro, scenario, policy, path: Path):
    """One timed operation: simulate, then write the ``.fourcol``."""
    from repro.core.storage import save_columnar

    trace = repro.simulate(scenario, policy=policy)
    save_columnar(trace.dataset, path)
    return trace


def check_simulation(out: Outcome, trace, fourcol: Path, seed: int) -> None:
    """Untimed checks of a scenario's first simulation; the trace then
    becomes ``report_paper``'s input for that scenario seed."""
    from repro.core.storage import load_columnar
    from repro.simulation.validation import validate_trace

    on_disk = load_columnar(fourcol).fingerprint()
    out.check(on_disk == trace.dataset.fingerprint(),
              f"scenario seed {seed}: the .fourcol on disk differs from the trace")
    off = [c.name for c in validate_trace(trace, slack=SLACK) if not c.ok]
    out.check(not off, f"scenario seed {seed}: validate_trace checks off target: {off}")
    publish_paper_input(trace, fourcol, seed)


def engine_metrics(trace) -> Dict[str, float]:
    """Planner decision and shard balance from the run's telemetry."""
    telemetry = trace.telemetry
    shard_walls = [s.wall_seconds for s in telemetry.shards] or [0.0]
    mean = statistics.mean(shard_walls)
    execute = telemetry.stage("execute")
    return {
        "engine.plan_mode": 1.0 if telemetry.plan.mode == "parallel" else 0.0,
        "engine.jobs": float(telemetry.plan.jobs),
        "engine.execute_s": execute.wall_seconds if execute else 0.0,
        "engine.shard_max_s": max(shard_walls),
        "engine.shard_skew": max(shard_walls) / mean if mean else 0.0,
    }


def publish_paper_input(trace, fourcol: Path, seed: int) -> None:
    """Offer the freshly simulated trace as ``report_paper``'s input for
    the same seed (the simulation is deterministic)."""
    final = inputs.cache_dir("paper", SCALE, seed)
    if (final / "input.json").is_file():
        return
    tmp = final.parent / f".tmp-{final.name}-sim"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    shutil.move(str(fourcol), str(tmp / "trace.fourcol"))
    trace.inventory.save_csv(tmp / "inventory.csv")
    inputs.write_meta(tmp, SCALE, seed, trace.dataset.fingerprint(), len(trace.dataset))
    inputs.publish(tmp, final)
    shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# report_paper
# ----------------------------------------------------------------------
def run_report(seed: int, seconds: float, work: Path, tracer: Optional[Tracer] = None,
               between: Callable[[], None] = lambda: None,
               ) -> Tuple[Outcome, Dict[str, float]]:
    import repro
    from repro.analysis import full_report as report_module
    from repro.analysis.full_report import FullReport, ReportSection
    from repro.core.storage import load_columnar
    from repro.fleet.inventory import Inventory
    from repro.robustness.quality import InsufficientDataError

    out = Outcome()
    srcs = inputs.ensure_all("paper", SCALE, scenario_seeds(seed))
    expected = [inputs.meta(src) for src in srcs]
    times: List[float] = []
    digests: Dict[int, set] = {i: set() for i in range(len(srcs))}
    skipped: List[str] = []
    layers: Dict[str, float] = {}

    def traced_report(dataset, inventory) -> str:
        """The builders of ``full_report`` called one by one in report
        order, each in its own span."""
        builders = [(n, f, ()) for n, f, _ in report_module._SECTIONS]
        builders += [("table_iv", report_module.table_iv, (inventory,)),
                     ("quality", report_module.quality_notes, ())]
        sections = []
        for name, fn, args in builders:
            with tracer.span(f"analysis.section.{name}"):
                try:
                    body = fn(dataset, *args)
                except InsufficientDataError as exc:
                    skipped.append(name)
                    sections.append(ReportSection(name, str(exc), skipped=True))
                    continue
            if body:
                sections.append(ReportSection(name, body))
        return FullReport(tuple(sections)).text()

    rss = 0.0
    # Each input once, then round robin until ``seconds`` of report time.
    while len(times) < len(srcs) or sum(times) < seconds:
        i = len(times) % len(srcs)
        src = srcs[i]
        out.attempted += 1
        between()
        start_iteration()
        started = time.perf_counter()
        if tracer is not None:
            with tracer.span("report"):
                with tracer.span("report.open"):
                    dataset = load_columnar(src / "trace.fourcol")
                    inventory = Inventory.load_csv(src / "inventory.csv")
                text = traced_report(dataset, inventory)
        else:
            dataset = load_columnar(src / "trace.fourcol")
            inventory = Inventory.load_csv(src / "inventory.csv")
            report = repro.full_report(dataset, inventory=inventory)
            skipped.extend(s.name for s in report if s.skipped)
            text = report.text()
        times.append(time.perf_counter() - started)
        rss = max(rss, peak_rss_mb())
        digests[i].add(hashlib.sha256(text.encode()).hexdigest())
        out.check(dataset.fingerprint() == expected[i]["fingerprint"],
                  f"{src.name}: loaded trace fingerprint differs from the simulated one")
        del dataset, inventory

    out.check(not skipped, f"sections skipped: {sorted(set(skipped))}")
    for i, seen in digests.items():
        out.check(len(seen) == 1,
                  f"{srcs[i].name}: report text differs between iterations: {len(seen)}")
    report_s = statistics.median(times)
    combined = hashlib.sha256(
        " ".join(min(digests[i]) for i in sorted(digests)).encode()
    ).hexdigest()
    out.metrics = {"wall_s": (report_s, "s"), "peak_rss_mb": (rss, "MB")}
    out.lines = [
        ("report_s", report_s, "s"),
        ("iterations", len(times), "count"),
        ("times", " ".join(f"{t:.3f}" for t in times), "s"),
        ("scenario_seeds", " ".join(str(e["seed"]) for e in expected), ""),
        ("tickets", " ".join(str(e["tickets"]) for e in expected), "count"),
        ("report_sha256", combined, ""),
    ]
    layers["analysis.sections_skipped"] = float(len(skipped))
    if tracer is not None:
        section_total = sum(tracer.total(f"analysis.section.{n}") for n in SECTION_NAMES)
        layers["analysis.report_self_s"] = tracer.self_total("report")
        layers["analysis.section.fig7_share"] = (
            tracer.total("analysis.section.fig7") / tracer.total("report")
        )
        out.lines.append(("traced_sections_s", section_total, "s"))
    return out, layers


# ----------------------------------------------------------------------
# ingest_backfill
# ----------------------------------------------------------------------
class TransientFaults:
    """Fault the first append attempt of every Nth batch (the retry
    succeeds), as the serve soak does."""

    def __init__(self, every: int):
        self.every = every
        self.faulted: set = set()

    def __call__(self, batch) -> None:
        from repro.serve.store import TransientAppendError

        if batch.seq % self.every == 0 and batch.seq not in self.faulted:
            self.faulted.add(batch.seq)
            raise TransientAppendError(f"injected transient fault on batch {batch.seq}")


def serve_config():
    from repro.serve.config import BreakerConfig, RetryPolicy, ServeConfig

    return ServeConfig(
        queue_high_watermark=QUEUE_HIGH_WATERMARK,
        max_batch_tickets=inputs.BATCH_TICKETS * 3,
        refresh_interval_batches=REFRESH_INTERVAL_BATCHES,
        retry=RetryPolicy(attempts=3, base_seconds=0.001, max_seconds=0.01),
        breaker=BreakerConfig(failure_threshold=50, reset_seconds=0.05),
    )


def new_router(seed: int):
    from repro.serve.router import IngestRouter

    return IngestRouter(
        serve_config(),
        append_fault=TransientFaults(FAULT_EVERY),
        retry_rng=random.Random(seed),
    )


@dataclass
class Backfill:
    """One replay of the stream into a fresh router."""

    began: float = 0.0
    seconds: float = 0.0
    submitted: int = 0
    reads: List[float] = field(default_factory=list)
    read_errors: int = 0
    refused: int = 0
    blocked_s: float = 0.0
    depth_max: int = 0
    submitted_at: Dict[int, float] = field(default_factory=dict)
    index_of: Dict[int, int] = field(default_factory=dict)
    router: object = None
    #: Filled by :func:`check_backfill`, which then drops the router.
    counters: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    refresh_s: float = 0.0


async def backfill(stream: List[List[dict]], delays: Dict[str, float], seed: int) -> Backfill:
    from repro.analysis.full_report import full_report
    from repro.serve.breaker import BreakerOpenError

    loop = asyncio.get_running_loop()
    router = new_router(seed)
    run = Backfill(router=router)
    done = asyncio.Event()

    def read() -> int:
        snapshot = router.live.current()
        full_report(snapshot, cache=router.cache, headline_only=True)
        return len(snapshot)

    async def analyst() -> None:
        """Re-read as soon as tickets the last read did not see arrive."""
        seen = 0
        while not done.is_set():
            if len(router.live) == seen:
                await asyncio.sleep(0.001)
                continue
            started = time.perf_counter()
            try:
                seen = await loop.run_in_executor(None, read)
            except Exception:  # a read that raises is a failed operation
                run.read_errors += 1
            else:
                run.reads.append(time.perf_counter() - started)

    router.start()
    reader = loop.create_task(analyst())
    first = run.began = time.perf_counter()
    for i, batch in enumerate(stream):
        stall = delays.get(str(i))
        if stall:
            await asyncio.sleep(min(stall, MAX_STALL_SECONDS))
        while True:
            asked = time.perf_counter()
            try:
                receipt = await router.submit_wait(f"feed{i % 4}", batch)
            except BreakerOpenError as exc:
                run.refused += 1
                await asyncio.sleep(min(exc.retry_after, 0.05))
                continue
            now = time.perf_counter()
            run.blocked_s += now - asked
            break
        run.submitted_at[receipt.seq] = now
        run.index_of[id(batch[0])] = i
        run.depth_max = max(run.depth_max, receipt.queue_depth)
        run.submitted += len(batch)
    await router.drain()
    run.seconds = time.perf_counter() - first
    done.set()
    await reader
    await router.stop(drain=False)
    return run


def predicted_poison(manifest, max_tickets: int) -> set:
    """Stream indices the chaos manifest says must be dead-lettered."""
    poison = set()
    for entry in manifest.injections:
        if entry["kind"] == "oversize_batch":
            poison.update(b["batch"] for b in entry["batches"] if b["n_records"] > max_tickets)
    return poison


def check_backfill(out: Outcome, run: Backfill, stream, poison: set) -> None:
    router = run.router
    counters = router.metrics_snapshot()["counters"]
    delivered = sum(len(b) for b in stream)
    out.check(run.submitted == delivered == counters["tickets_submitted"],
              f"submitted {counters['tickets_submitted']} != delivered {delivered}")
    accounted = (counters["tickets_accepted"] + counters["tickets_quarantined"]
                 + counters["tickets_dead_lettered"])
    out.check(accounted == counters["tickets_submitted"] == counters["tickets_accounted"],
              f"ledger broken: accounted {accounted} != submitted "
              f"{counters['tickets_submitted']}")
    out.check(not router.dead_letter_failures,
              f"{len(router.dead_letter_failures)} dead-letter writes failed")
    live = len(router.live.current())
    out.check(live == counters["tickets_accepted"],
              f"live dataset holds {live} tickets, ledger accepted "
              f"{counters['tickets_accepted']}")
    parked = {
        run.index_of.get(id(router.dead_letters.load_records(e)[0]), -1)
        for e in router.dead_letters.entries()
    }
    clean_parked = parked - poison
    out.check(parked >= poison, f"poison batches not parked: {sorted(poison - parked)}")
    out.failed += len(clean_parked) + run.refused + run.read_errors
    out.attempted += len(stream) + run.refused + len(run.reads) + run.read_errors
    run.counters = counters
    run.cache_hits = router.cache.stats.hits
    run.cache_misses = router.cache.stats.misses
    run.refresh_s = sum(
        st.wall_seconds for doc in router.telemetry.runs
        for st in doc.stages if st.name == "refresh"
    )
    run.router = None


def run_ingest(seed: int, seconds: float, work: Path, tracer: Optional[Tracer] = None,
               between: Callable[[], None] = lambda: None,
               ) -> Tuple[Outcome, Dict[str, float]]:
    out = Outcome()
    src = inputs.ensure("stream", round(SCALE * STREAM_SCALE, 6), seed)
    stream, manifest = inputs.load_stream(src, seed)
    delays: Dict[str, float] = {}
    for entry in manifest.injections:
        if entry["kind"] == "slow_batch":
            delays = entry["delays"]
    poison = predicted_poison(manifest, serve_config().max_batch_tickets)

    runs: List[Backfill] = []
    reset_peak_rss()
    began = time.perf_counter()
    while (not runs or time.perf_counter() - began < seconds
           or sum(len(r.reads) for r in runs) < MIN_READS):
        between()
        runs.append(asyncio.run(backfill(stream, delays, seed)))
        check_backfill(out, runs[-1], stream, poison)
    rss = peak_rss_mb()

    reads = [s for r in runs for s in r.reads]
    out.check(len(reads) >= MIN_READS, f"only {len(reads)} reads completed")
    submitted = sum(r.submitted for r in runs)
    ingest_rate = submitted / sum(r.seconds for r in runs)
    counters = [r.counters for r in runs]
    waits = sum(c["batches_rejected_queue_full"] for c in counters)
    out.metrics = {
        "wall_s": (statistics.median(r.seconds for r in runs), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    out.lines = [
        ("ingest_tickets_per_s", ingest_rate, "1/s"),
        ("read_p50_ms", percentile(reads, 50) * 1e3, "ms"),
        ("read_p90_ms", percentile(reads, 90) * 1e3, "ms"),
        ("reads", len(reads), "count"),
        ("backfills", len(runs), "count"),
        ("batches_per_backfill", len(stream), "count"),
        ("tickets_per_backfill", runs[0].submitted, "count"),
        ("backpressure_waits", waits, "count"),
        ("poison_batches_predicted", len(poison), "count"),
    ]

    hits = sum(r.cache_hits for r in runs)
    misses = sum(r.cache_misses for r in runs)
    layers = {
        "engine.cache_hits": float(hits),
        "engine.cache_misses": float(misses),
        "engine.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "robustness.quarantined_tickets": float(sum(c["tickets_quarantined"] for c in counters)),
        "serve.compactions": float(sum(c["compactions"] for c in counters)),
        "serve.refreshes": float(sum(c["refreshes"] for c in counters)),
        "serve.refresh_s": sum(r.refresh_s for r in runs),
        "serve.queue_depth_max": float(max(r.depth_max for r in runs)),
        "serve.producer_blocked_s": sum(r.blocked_s for r in runs),
        "serve.retries": float(sum(c["retries"] for c in counters)),
        "serve.dead_lettered_batches": float(sum(c["batches_dead_lettered"] for c in counters)),
    }
    if tracer is not None:
        waits_ms = []
        for batch, taken in tracer.stamps.get("serve.queue_get", []):
            run = next(r for r in runs if r.began <= taken <= r.began + r.seconds)
            waits_ms.append((taken - run.submitted_at[batch.seq]) * 1e3)
        layers["serve.queue_wait_ms_p50"] = percentile(waits_ms, 50) if waits_ms else 0.0
    return out, layers


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], None]
    run: Callable[..., Tuple[Outcome, Dict[str, float]]]
    inputs: str


WORKLOADS = {
    "simulate_paper": Workload(
        setup_simulate, run_simulate,
        "for each scenario seed S of SeedSequence({seed}).generate_state({scenarios}): "
        "paper_scenario(scale={scale:g}, seed=S) -> repro.simulate -> save_columnar",
    ),
    "report_paper": Workload(
        setup_report, run_report,
        "for each scenario seed S of SeedSequence({seed}).generate_state({scenarios}): "
        "repro.simulate(scale={scale:g}, seed=S) -> save_columnar + Inventory.save_csv "
        "(perfbench/inputs.py paper {scale:g} S DIR)",
    ),
    "ingest_backfill": Workload(
        setup_ingest, run_ingest,
        "repro.simulate(scale={stream:g}, seed={seed}) -> save_jsonl -> "
        "500-ticket batches -> corrupt_stream(default_stream_specs(0.05), seed={seed})",
    ),
}
