"""Golden-trace pin: simulated traces are byte-identical across refactors.

Every scenario below is simulated and reduced to digests of everything a
run writes or reports: the SHA-256 of each ``.fourcol`` blob and of the
manifest (the blobs cover the ``details`` column, which
``ColumnStore.fingerprint`` leaves out), the bytes of ``inventory.csv``,
the ``repr`` of the injected storms and correlation records, and the FMS
counters.  The digests in ``tests/golden/trace_golden.json`` were
recorded before the fleet became columnar; any change to a random draw
or its order breaks them.

NumPy does not promise identical ``Generator`` streams across releases,
so the pin only holds under the NumPy ``major.minor`` it was recorded
with and skips elsewhere; ``tests/test_fleet_oracle.py`` checks the
fleet against its reference implementation under any NumPy.

To re-record after an intended change of the trace::

    PYTHONPATH=src python -m tests.test_trace_golden --record
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.config import FleetConfig, ScenarioConfig, paper_scenario
from repro.core.storage import save_columnar
from repro.engine.policy import ExecutionPolicy
from repro.simulation.trace import generate_trace

GOLDEN = Path(__file__).parent / "golden" / "trace_golden.json"

#: Scenario name -> config.  The small configs reach the builder's edge
#: paths: data centers smaller than one rack, product lines dropped
#: because they own no servers, and the monitoring rollout filter.
SCENARIOS: Dict[str, ScenarioConfig] = {
    "paper_x0.02_s11": paper_scenario(scale=0.02, seed=11),
    "paper_x0.02_s607385081": paper_scenario(scale=0.02, seed=607385081),
    "sub_rack_dcs": ScenarioConfig(
        fleet=FleetConfig(n_datacenters=4, servers_per_dc=22, n_product_lines=40),
        horizon_days=500.0,
        target_failures=400,
        seed=5,
    ),
    "monitoring_rollout": ScenarioConfig(
        fleet=FleetConfig(n_datacenters=6, servers_per_dc=150, n_product_lines=24),
        horizon_days=700.0,
        target_failures=1500,
        monitoring_rollout_years=1.5,
        monitoring_initial_coverage=0.3,
        seed=9,
    ),
}

#: Execution plans every scenario is pinned under (all must agree).
JOBS = ("serial", 2)


def numpy_minor() -> str:
    return ".".join(np.__version__.split(".")[:2])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_digest(config: ScenarioConfig, jobs) -> Dict[str, object]:
    """Digests of everything one simulation writes or reports."""
    trace = generate_trace(config, policy=ExecutionPolicy(jobs=jobs))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_columnar(trace.dataset, root / "trace.fourcol")
        trace.inventory.save_csv(root / "inventory.csv")
        fourcol = {
            str(path.relative_to(root / "trace.fourcol")): _sha(path.read_bytes())
            for path in sorted((root / "trace.fourcol").rglob("*"))
            if path.is_file()
        }
        inventory = _sha((root / "inventory.csv").read_bytes())
    return {
        "tickets": len(trace.dataset),
        "fourcol": fourcol,
        "inventory_csv": inventory,
        "storms": _sha(repr(trace.storms).encode()),
        "injections": _sha(repr(trace.injections).encode()),
        "fms_stats": dict(sorted(trace.fms_stats.items())),
    }


def _load_golden() -> Dict[str, object]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("jobs", JOBS, ids=lambda j: f"jobs={j}")
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name, jobs):
    golden = _load_golden()
    if golden["numpy"] != numpy_minor():
        pytest.skip(
            f"digests were recorded under NumPy {golden['numpy']}; NumPy "
            f"{numpy_minor()} may draw different Generator streams"
        )
    assert trace_digest(SCENARIOS[name], jobs) == golden["scenarios"][name]


def record() -> None:
    scenarios = {}
    for name in sorted(SCENARIOS):
        digests = [trace_digest(SCENARIOS[name], jobs) for jobs in JOBS]
        if any(d != digests[0] for d in digests):
            raise SystemExit(f"{name}: execution plans disagree; not recording")
        scenarios[name] = digests[0]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({"numpy": numpy_minor(), "scenarios": scenarios},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(scenarios)} scenarios to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python -m tests.test_trace_golden --record")
    record()
