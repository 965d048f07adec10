"""Quickstart: the :mod:`repro.api` facade in four verbs.

Run:
    python examples/quickstart.py [scale] [jobs]

``scale`` defaults to 0.05 (a few thousand servers, ~15k tickets, a few
seconds); use 1.0 to reproduce the full ~290k-ticket study.  ``jobs``
defaults to ``auto``: a pool of the usable CPUs once the fleet has
enough servers to pay for it (the default scale does), serial
otherwise — the output is bit-identical either way, so ``auto``,
``serial`` and any explicit worker count all produce the same trace.
"""

import sys

import repro


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    jobs = repro.engine.coerce_jobs(sys.argv[2]) if len(sys.argv) > 2 else "auto"

    # --- one ExecutionPolicy carries every execution knob -------------------
    # jobs (worker plan), cache (analysis memoization) and telemetry_sink
    # (structured run documents) thread through all the facade verbs.
    sink = repro.engine.InMemoryTelemetrySink()
    policy = repro.ExecutionPolicy(
        jobs=jobs, cache=repro.AnalysisCache(), telemetry_sink=sink
    )

    # --- simulate: generate the synthetic four-year trace ------------------
    print(f"generating trace at scale {scale} (jobs={jobs}) ...")
    trace = repro.simulate(scale=scale, seed=7, policy=policy)
    dataset = trace.dataset
    plan = trace.telemetry.plan
    print(f"  {len(dataset)} tickets from {len(trace.fleet)} servers "
          f"in {len(trace.fleet.datacenters)} data centers")
    print(f"  plan: {plan.mode} (jobs={plan.jobs}) — {plan.reason}\n")

    # --- full_report: every paper table/figure the data sustains -----------
    # The policy's AnalysisCache makes the re-run free: results are
    # memoized on the dataset's content fingerprint.
    print(repro.full_report(dataset, policy=policy).text())
    print()

    # --- analyze: individual named analyses, same policy --------------------
    repro.analyze(dataset, "categories", "mtbf", policy=policy)
    results = repro.analyze(dataset, "categories", "mtbf", policy=policy)
    cats = results["categories"]
    print(repro.api.format_table(["category", "share"], cats.rows(),
                                 title="Table I again (warm cache)"))
    print(f"MTBF: {results['mtbf'].mtbf_minutes:.1f} minutes")
    stats = policy.cache.stats
    print(f"cache: {stats.hits} hits / {stats.misses} misses")
    analyze_run = sink.last
    print("analyze stages:", ", ".join(
        f"{s.name} {s.wall_seconds * 1000:.0f}ms" for s in analyze_run.stages
    ))
    print()

    # --- load: round-trip through a ticket dump -----------------------------
    from repro.core import io as core_io

    core_io.save(dataset, "quickstart_trace.jsonl")
    trace.inventory.save_csv("quickstart_inventory.csv")
    reloaded = repro.load("quickstart_trace.jsonl")
    comparison = repro.compare(dataset, reloaded)
    verdict = "identical" if comparison.within(0.01) else "DIFFERENT"
    print(f"saved + reloaded quickstart_trace.jsonl: {verdict} "
          f"({len(reloaded)} tickets)")
    print("reload later with repro.load('quickstart_trace.jsonl')")


if __name__ == "__main__":
    main()
