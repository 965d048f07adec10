#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload simulate_paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  The workload's inputs are derived from ``--seed`` alone.
Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run is repeated with the
layer functions traced, the per-layer metrics are printed instead, and
the spans are written to ``.perfbench_work/traces/``.  The exit code is
1 when an output check fails, 2 when the program cannot be found.
``ingest_backfill`` runs here but is not listed in ``BENCHMARK.json``,
because its output check fails on the program as it is (see
``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate_paper", "report_paper", "ingest_backfill"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))

    import inputs
    from tracer import Tracer, traced
    import workloads
    from workloads import TARGETS, WORKLOADS, SetupTimer, overheads, span_metrics

    workload = WORKLOADS[args.workload]
    work = inputs.WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "plain").mkdir(parents=True)
    try:
        setup = SetupTimer(args.workload, args.seed)
        plain, plain_layers = workload.run(
            args.seed, args.seconds, work / "plain",
            between=(lambda: None) if args.trace else setup.sample,
        )
        outcome = plain
        if args.trace:
            run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
            tracer = Tracer(run_id)
            (work / "traced").mkdir()
            with traced(tracer, TARGETS), tracer.span(f"run.{args.workload}"):
                outcome, traced_layers = workload.run(
                    args.seed, args.seconds, work / "traced", tracer
                )
            spans_file = inputs.WORK / "traces" / f"{run_id}.spans.jsonl"
            tracer.write(spans_file)
            layers: Dict[str, float] = {m["name"]: 0.0 for m in spec["per_layer"]}
            layers.update(plain_layers)
            layers.update(span_metrics(tracer))
            layers.update(traced_layers)
            layers.update(overheads(plain, outcome))
            simulate_spans = tracer.total("simulate")
            if simulate_spans:
                layers["simulation.plan_trace_share"] = (
                    layers["simulation.plan_trace_s"] / simulate_spans
                )
            plain_sha = dict((n, v) for n, v, _ in plain.lines).get("report_sha256")
            traced_sha = dict((n, v) for n, v, _ in outcome.lines).get("report_sha256")
            outcome.check(plain_sha == traced_sha,
                          "traced per-builder report differs from the untraced report")
            outcome.problems[:0] = plain.problems
            outcome.attempted += plain.attempted
            outcome.failed += plain.failed
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            unknown = sorted(set(layers) - set(units))
            outcome.check(not unknown, f"per-layer metrics missing from BENCHMARK.json: {unknown}")
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        else:
            values = dict(plain.metrics, setup_s=(setup.median(), "s"))
            metrics = {}
            for m in spec["end_to_end"]:
                value, unit = values[m["name"]]
                outcome.check(unit == m["unit"], f"{m['name']}: unit {unit} != {m['unit']}")
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    scale = workloads.SCALE
    print(f"workload {args.workload}  seed {args.seed}  scale {scale:g}  "
          f"{'traced' if args.trace else 'untraced'} pass")
    print("inputs: " + workload.inputs.format(
        scale=scale, seed=args.seed, scenarios=workloads.SCENARIOS,
        stream=scale * workloads.STREAM_SCALE))
    for name, value, unit in outcome.lines:
        print(f"  {name} = {value} {unit}".rstrip())
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  failed_share = {share} ratio ({outcome.failed}/{outcome.attempted})")
    for name, item in metrics.items():
        print(f"  {name} = {item['value']} {item['unit']}")
    if args.trace:
        print(f"  spans: {spans_file}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
