"""Tests of the benchmark itself, at a tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from pathlib import Path

import pytest

import inputs
import run
import workloads
from tracer import Target, Tracer, _covered, traced

SPEC = json.loads((inputs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ("simulate_paper", "report_paper", "ingest_backfill")
#: ``LiveDataset.current()`` compacting while an append runs in another
#: executor thread drops whole batches, so the ingest check that the
#: live dataset holds every accepted ticket fails in most backfills.
LIVE_DATASET_RACE = pytest.mark.xfail(
    reason="LiveDataset loses batches when a read compacts during an append",
    strict=False,
)


def bindings_of(targets):
    """Every binding the tracer may rebind: class attributes and the
    module attributes of every repro module that hold a target."""
    found = {}
    for target in targets:
        module_name, _, qual = target.where.partition(":")
        module = importlib.import_module(module_name)
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(module, cls_name)
            found[(cls, attr)] = cls.__dict__[attr]
            continue
        original = getattr(module, qual)
        for holder in list(sys.modules.values()):
            if (getattr(holder, "__name__", "") or "").startswith("repro"):
                for attr, value in vars(holder).items():
                    if value is original:
                        found[(holder, attr)] = value
    return found


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Each workload at a tiny scale, untraced and traced."""
    patch = pytest.MonkeyPatch()
    # A 0.05 fleet, few reads; validate_trace's targets are the
    # paper's, which so small a fleet meets only within a wider slack.
    patch.setattr(workloads, "SCALE", 0.05)
    patch.setattr(workloads, "SLACK", 3.0)
    patch.setattr(workloads, "MIN_READS", 5)
    patch.setattr(workloads, "SETUP_REPS", 1)
    before = bindings_of(workloads.TARGETS)
    results = {}
    try:
        for name in WORKLOADS:
            for trace in (0, 1):
                out = tmp_path_factory.mktemp(f"{name}-{trace}") / "stdout"
                with open(out, "w") as fh:
                    saved_stdout, sys.stdout = sys.stdout, fh
                    try:
                        code = run.main([
                            "--workload", name, "--seed", "11", "--seconds", "0.1",
                            "--trace", str(trace),
                        ])
                    finally:
                        sys.stdout = saved_stdout
                results[name, trace] = (code, out.read_text().splitlines())
    finally:
        patch.undo()
    results["bindings"] = (before, bindings_of(workloads.TARGETS))
    return results


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(smoke, name, trace):
    code, lines = smoke[name, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert code == (0 if result["correct"] else 1), lines
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", [
    "simulate_paper", "report_paper",
    pytest.param("ingest_backfill", marks=LIVE_DATASET_RACE),
])
@pytest.mark.parametrize("trace", (0, 1))
def test_outputs_pass_their_checks(smoke, name, trace):
    code, lines = smoke[name, trace]
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True, lines
    assert result["failed"] == 0


def test_traced_runs_see_their_layers(smoke):
    def metrics(name):
        return json.loads(smoke[name, 1][1][-1])["metrics"]

    sim, rep, ing = (metrics(n) for n in WORKLOADS)
    assert sim["simulation.plan_trace_s"]["value"] > 0
    assert sim["fms.run_store_s"]["value"] > 0
    assert sim["analysis.analyze_tbf_s"]["value"] == 0
    assert rep["analysis.section.fig7_s"]["value"] > 0
    assert rep["analysis.sections_skipped"]["value"] == 0
    assert rep["simulation.plan_trace_s"]["value"] == 0
    assert ing["robustness.validate_batch_calls"]["value"] > 0
    assert ing["serve.append_s"]["value"] > 0
    assert ing["analysis.section.fig7_s"]["value"] == 0


def test_spans_nest(smoke):
    spans_line = next(l for l in smoke["simulate_paper", 1][1] if "spans:" in l)
    path = Path(spans_line.split("spans:")[1].strip())
    spans = [json.loads(l) for l in path.read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    assert len({s["run_id"] for s in spans}) == 1
    children = [s for s in spans if s["parent"] is not None]
    assert children
    for s in children:
        parent = by_id[s["parent"]]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"], (s, parent)


def is_wrapper(value):
    fn = getattr(value, "__func__", value)
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename.endswith("tracer.py")


def test_bindings_are_restored(smoke):
    before, after = smoke["bindings"]
    assert before and before.keys() <= after.keys()
    assert all(before[k] is after[k] for k in before)
    assert not any(is_wrapper(v) for v in after.values())


def test_bindings_are_restored_when_the_run_raises():
    targets = (Target("repro.core.storage:load_columnar", "core.load_columnar"),)
    before = bindings_of(targets)
    with pytest.raises(RuntimeError):
        with traced(Tracer("t"), targets):
            assert is_wrapper(importlib.import_module("repro.core.storage").load_columnar)
            raise RuntimeError("boom")
    after = bindings_of(targets)
    assert all(before[k] is after[k] for k in before)
    assert not any(is_wrapper(v) for v in after.values())


def test_self_time_subtracts_the_union_of_children():
    assert _covered(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (8.0, 12.0)]) == pytest.approx(6.0)
    tracer = Tracer("t")

    def in_thread():
        with tracer.span("thread"):
            pass

    with tracer.span("outer") as outer_id:
        for _ in range(2):
            with tracer.span("inner"):
                time.sleep(0.005)
        worker = threading.Thread(target=in_thread)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert tracer.named("thread")[0].parent == outer_id
    own = tracer.self_times()
    assert all(v >= 0 for v in own.values())
    outer = tracer.named("outer")[0]
    children = sum(s.seconds for s in tracer.spans if s.parent == outer_id)
    assert own[outer.id] == pytest.approx(outer.seconds - children)


def test_a_different_seed_changes_the_inputs(tmp_path):
    assert workloads.scenario_seeds(1) == workloads.scenario_seeds(1)
    assert not set(workloads.scenario_seeds(1)) & set(workloads.scenario_seeds(2))
    for seed in (1, 1, 2):
        out = tmp_path / f"paper-{seed}-{len(list(tmp_path.iterdir()))}"
        out.mkdir()
        inputs.write_paper(0.02, seed, out)
    metas = sorted(inputs.meta(p)["fingerprint"] for p in tmp_path.iterdir())
    assert len(set(metas)) == 2
    streams = {}
    for seed in (1, 2):
        src = inputs.ensure("stream", 0.01, seed)
        stream, manifest = inputs.load_stream(src, seed)
        streams[seed] = (json.dumps(stream[:3], sort_keys=True), manifest.to_json())
    assert streams[1] != streams[2]
    again = inputs.load_stream(inputs.ensure("stream", 0.01, 1), 1)
    assert json.dumps(again[0][:3], sort_keys=True) == streams[1][0]


def test_without_the_program_the_runner_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "report_paper", "--seed", "1", "--seconds", "1"]) == 2
