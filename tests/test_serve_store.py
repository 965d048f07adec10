"""LiveDataset columnar persistence: durable compactions, resume.

The durability unit is the compaction: after every compaction (or an
explicit ``flush``), the persist directory holds exactly the compacted
tickets as columnar shards, appended blobs-before-manifest so a crash
between the two leaves the previous shard list readable.
"""

import sys
import threading

import pytest

from repro.core import storage
from repro.core.dataset import FOTDataset
from repro.serve.store import LiveDataset


class TestMemoryOnly:
    def test_no_persist_dir_writes_nothing(self, tmp_path, tiny_dataset):
        live = LiveDataset(compact_threshold_tickets=10)
        live.append(tiny_dataset[:25])
        assert live.persist_dir is None
        assert list(tmp_path.iterdir()) == []


class TestConcurrency:
    def test_no_batch_lost_to_concurrent_compaction(self, tiny_dataset):
        # Writers stage batches while a reader keeps compacting through
        # current(); a batch staged mid-compaction must survive it.
        live = LiveDataset(tiny_dataset)
        batch = tiny_dataset[:3]
        writers, per_writer = 4, 150
        done = threading.Event()

        def write():
            for _ in range(per_writer):
                live.append(batch)

        def read():
            while not done.is_set():
                live.current()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader = threading.Thread(target=read)
            reader.start()
            threads = [threading.Thread(target=write) for _ in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [reader, *threads])
        expected = len(tiny_dataset) + writers * per_writer * len(batch)
        assert len(live.current()) == expected
        assert len(live) == expected


class TestPersistence:
    def test_compaction_appends_a_shard(self, tmp_path, tiny_dataset):
        path = tmp_path / "live.fourcol"
        live = LiveDataset(persist_dir=path, compact_threshold_tickets=50)
        for start in range(0, 200, 40):
            live.append(tiny_dataset[start:start + 40])
        # 200 tickets over threshold 50 -> multiple compactions, each a shard.
        assert storage.manifest_summary(path)["n_rows"] == 200 - live.pending_tickets
        live.flush()
        assert len(storage.load_columnar(path)) == 200

    def test_disk_equals_memory_after_flush(self, tmp_path, tiny_dataset):
        path = tmp_path / "live.fourcol"
        live = LiveDataset(persist_dir=path, compact_threshold_tickets=10_000)
        live.append(tiny_dataset[:73])
        live.flush()
        # Content identity via the manifest: save_columnar records the
        # standard content fingerprint, and saves are deterministic, so
        # re-saving the in-memory snapshot must record the same hash.
        reference = tmp_path / "mem.fourcol"
        storage.save_columnar(live.current(), reference)
        assert (
            storage.manifest_summary(path)["fingerprint"]
            == storage.manifest_summary(reference)["fingerprint"]
        )

    def test_pending_below_threshold_not_yet_durable(self, tmp_path, tiny_dataset):
        path = tmp_path / "live.fourcol"
        live = LiveDataset(persist_dir=path, compact_threshold_tickets=10_000)
        live.append(tiny_dataset[:5])
        assert not storage.is_columnar(path)  # nothing durable yet
        live.flush()
        assert len(storage.load_columnar(path)) == 5

    def test_seed_base_becomes_first_shard(self, tmp_path, tiny_dataset):
        path = tmp_path / "live.fourcol"
        LiveDataset(tiny_dataset[:40], persist_dir=path)
        assert len(storage.load_columnar(path)) == 40

    def test_resume_restores_and_keeps_appending(self, tmp_path, tiny_dataset):
        path = tmp_path / "live.fourcol"
        live = LiveDataset(persist_dir=path, compact_threshold_tickets=10_000)
        live.append(tiny_dataset[:60])
        live.flush()

        resumed = LiveDataset.open(path, compact_threshold_tickets=10_000)
        assert len(resumed) == 60
        assert resumed.persist_dir == path
        resumed.append(tiny_dataset[60:100])
        resumed.flush()
        assert len(storage.load_columnar(path)) == 100
        assert resumed.current().fingerprint() == storage.load_columnar(path).fingerprint()

    def test_open_on_fresh_dir_starts_empty(self, tmp_path):
        live = LiveDataset.open(tmp_path / "new.fourcol")
        assert len(live) == 0

    def test_constructor_refuses_existing_persisted_dataset(
        self, tmp_path, tiny_dataset
    ):
        path = tmp_path / "live.fourcol"
        live = LiveDataset(persist_dir=path)
        live.append(tiny_dataset[:10])
        live.flush()
        with pytest.raises(ValueError, match="LiveDataset.open"):
            LiveDataset(persist_dir=path)
        with pytest.raises(ValueError, match="LiveDataset.open"):
            LiveDataset(tiny_dataset[:5], persist_dir=path)

    def test_flush_of_nothing_is_noop(self, tmp_path):
        live = LiveDataset(persist_dir=tmp_path / "live.fourcol")
        live.flush()
        assert live.compactions == 0

    def test_empty_base_writes_no_shard(self, tmp_path):
        path = tmp_path / "live.fourcol"
        LiveDataset(FOTDataset(), persist_dir=path)
        assert not storage.is_columnar(path)
