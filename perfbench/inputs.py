"""Seeded inputs for the benchmark workloads.

Every input is derived from the workload seed alone:

* the paper traces: for each scenario seed N of the run
  (``workloads.scenario_seeds``), ``repro.simulate(scale=S, seed=N)``
  written as ``trace.fourcol`` (``save_columnar``) plus
  ``inventory.csv`` (``Inventory.save_csv``);
* the ingest stream: ``repro.simulate(scale=S, seed=N)`` written with
  ``repro.core.io.save_jsonl``, read back as one record dict per
  ticket, cut into 500-ticket batches and dirtied with
  ``corrupt_stream(batches, default_stream_specs(0.05), seed=N)``.

Simulations run in a child interpreter (``python3 perfbench/inputs.py
paper|stream SCALE SEED OUT``) so that the measuring process never
holds the simulator's heap, which would otherwise leak into its peak
RSS.  Finished inputs are kept under ``.perfbench_work/inputs`` and
reused by later runs with the same scale, seed and program source
(:func:`code_key`); the newest ``KEEP_INPUTS`` are kept.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BATCH_TICKETS = 500
STREAM_INTENSITY = 0.05
KEEP_INPUTS = 48
INPUT_JOBS = 2


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@functools.lru_cache(maxsize=None)
def code_key() -> str:
    """A digest of the program's source: cached results made by another
    version of ``src/repro`` are never reused."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def cache_dir(kind: str, scale: float, seed: int) -> Path:
    return WORK / "inputs" / f"{kind}-x{scale:g}-s{seed}-{code_key()}"


def paper_policy():
    """The execution policy of every paper simulation: a pool as wide as
    the usable CPUs.  That is the plan ``jobs="auto"`` makes for the
    full-size fleet; for a quarter fleet its pool estimate lies within a
    few percent of the serial one, so ``auto`` would flip between the
    two plans from run to run.  The trace is the same under any plan."""
    import repro
    from repro.engine.adaptive import probe_cpu_count

    return repro.ExecutionPolicy(jobs=probe_cpu_count().count)


def write_paper(scale: float, seed: int, out: Path) -> None:
    """Simulate the paper scenario and write trace + inventory."""
    import repro
    from repro.core.storage import save_columnar

    trace = repro.simulate(scale=scale, seed=seed, policy=paper_policy())
    save_columnar(trace.dataset, out / "trace.fourcol")
    trace.inventory.save_csv(out / "inventory.csv")
    write_meta(out, scale, seed, trace.dataset.fingerprint(), len(trace.dataset))


def write_stream(scale: float, seed: int, out: Path) -> None:
    """Simulate a trace and write it as the JSONL feed to replay."""
    import repro
    from repro.core.io import save_jsonl

    trace = repro.simulate(scale=scale, seed=seed)
    save_jsonl(trace.dataset, out / "feed.jsonl")
    write_meta(out, scale, seed, trace.dataset.fingerprint(), len(trace.dataset))


def write_meta(out: Path, scale: float, seed: int, fingerprint: str, n: int) -> None:
    meta = {"scale": scale, "seed": seed, "fingerprint": fingerprint, "tickets": n}
    (out / "input.json").write_text(json.dumps(meta), encoding="utf-8")


WRITERS = {"paper": write_paper, "stream": write_stream}


def ensure(kind: str, scale: float, seed: int) -> Path:
    """The input directory for (kind, scale, seed), made if missing."""
    final = cache_dir(kind, scale, seed)
    if (final / "input.json").is_file():
        os.utime(final)
        return final
    tmp = final.parent / f".tmp-{final.name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), kind, repr(scale), str(seed), str(tmp)],
            env=child_env(), check=True, timeout=600,
        )
        publish(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def ensure_all(kind: str, scale: float, seeds: List[int]) -> List[Path]:
    """:func:`ensure` for several seeds, ``INPUT_JOBS`` children at a
    time: each simulation spends most of its time in serial planning,
    so two of them nearly halve the wait for a run's inputs."""
    with ThreadPoolExecutor(max_workers=INPUT_JOBS) as pool:
        return list(pool.map(lambda seed: ensure(kind, scale, seed), seeds))


def publish(tmp: Path, final: Path) -> None:
    """Move a finished input into the cache and prune old entries."""
    if not (final / "input.json").is_file():
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    entries = sorted(
        (p for p in final.parent.iterdir() if not p.name.startswith(".tmp-")),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in entries[:-KEEP_INPUTS]:
        shutil.rmtree(stale, ignore_errors=True)


def meta(path: Path) -> Dict[str, object]:
    return json.loads((path / "input.json").read_text(encoding="utf-8"))


def load_stream(path: Path, seed: int) -> Tuple[List[List[dict]], object]:
    """The dirtied batch stream and its chaos manifest."""
    from repro.robustness.chaos import corrupt_stream, default_stream_specs

    with open(path / "feed.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    batches = [
        records[i : i + BATCH_TICKETS] for i in range(0, len(records), BATCH_TICKETS)
    ]
    return corrupt_stream(batches, default_stream_specs(STREAM_INTENSITY), seed)


if __name__ == "__main__":
    kind, scale, seed, out = sys.argv[1:5]
    WRITERS[kind](float(scale), int(seed), Path(out))
