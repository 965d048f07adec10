"""Columnar storage: round trips, typed corruption errors, atomicity.

The robustness matrix the storage layer promises: a truncated blob, a
missing blob, a content-hash mismatch, a wrong-version manifest and a
foreign directory each raise their own typed ``StorageError`` subclass
— never numpy shape garbage.  The round-trip tests assert bit-identical
columns and identical ``full_report`` output across all three formats
(jsonl / csv / columnar), and that the manifest-seeded fingerprint
matches what :func:`~repro.core.columns.compute_fingerprint` would
recompute (the runtime sanitizer's invariant).
"""

import json

import numpy as np
import pytest

from repro.analysis.full_report import full_report
from repro.core import io as core_io
from repro.core import storage
from repro.core.columns import COLUMN_NAMES, TABLE_NAMES, compute_fingerprint
from repro.core.dataset import FOTDataset
from repro.core.storage import (
    StorageError,
    StorageFormatError,
    StorageIntegrityError,
    StorageVersionError,
)


_INTERNED_COLUMNS = {
    "idc_codes": "idc",
    "product_line_codes": "product_line",
    "error_type_codes": "error_type",
    "operator_id_codes": "operator_id",
}


def _view_column(dataset, name):
    """The column values of a dataset *view* (views share the backing
    store, so ``store.column`` alone would return the full store)."""
    return dataset.store.column(name)[dataset._gindices()]


def _decoded(dataset, codes_name):
    """Interned column as per-row values (``None`` for code -1) —
    interning *order* is a construction artifact, the values are the
    content."""
    table = dataset.store.table(_INTERNED_COLUMNS[codes_name])
    return [
        None if code < 0 else table[code]
        for code in _view_column(dataset, codes_name)
    ]


def _assert_columns_identical(left, right):
    assert len(left) == len(right)
    for name in COLUMN_NAMES:
        if name in _INTERNED_COLUMNS:
            assert _decoded(left, name) == _decoded(right, name), name
            continue
        a = _view_column(left, name)
        b = _view_column(right, name)
        if a.dtype == object:
            assert all(x == y for x, y in zip(a, b)), name
        else:
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b, equal_nan=True), name


@pytest.fixture(scope="module")
def saved(tmp_path_factory, tiny_dataset):
    path = tmp_path_factory.mktemp("col") / "tiny.fourcol"
    storage.save_columnar(tiny_dataset, path)
    return path


class TestRoundTrip:
    def test_bit_identical_columns(self, saved, tiny_dataset):
        loaded = storage.load_columnar(saved)
        _assert_columns_identical(tiny_dataset, loaded)
        # The columnar round trip additionally preserves the *raw*
        # codes and tables bit-for-bit (no re-interning on load).
        for name in COLUMN_NAMES:
            a = tiny_dataset.store.column(name)
            b = loaded.store.column(name)
            if a.dtype != object:
                assert np.array_equal(a, b, equal_nan=True), name
        for table in TABLE_NAMES:
            assert tiny_dataset.store.table(table) == loaded.store.table(table)

    def test_identical_across_all_three_formats(self, tmp_path, tiny_dataset):
        core_io.save(tiny_dataset, tmp_path / "t.jsonl")
        core_io.save(tiny_dataset, tmp_path / "t.csv")
        core_io.save(tiny_dataset, tmp_path / "t.fourcol")
        from_jsonl = core_io.load(tmp_path / "t.jsonl")
        from_col = core_io.load(tmp_path / "t.fourcol")
        _assert_columns_identical(from_jsonl, from_col)
        # CSV drops the detail dict; everything else must agree.
        from_csv = core_io.load(tmp_path / "t.csv")
        for name in COLUMN_NAMES:
            if name == "details":
                continue
            if name in _INTERNED_COLUMNS:
                assert _decoded(from_csv, name) == _decoded(from_col, name), name
                continue
            a, b = from_csv.store.column(name), from_col.store.column(name)
            if a.dtype == object:
                assert all(x == y for x, y in zip(a, b)), name
            else:
                assert np.array_equal(a, b, equal_nan=True), name

    def test_full_report_identical_across_formats(self, tmp_path, tiny_dataset):
        core_io.save(tiny_dataset, tmp_path / "t.jsonl")
        core_io.save(tiny_dataset, tmp_path / "t.fourcol")
        r_jsonl = full_report(core_io.load(tmp_path / "t.jsonl"))
        r_col = full_report(core_io.load(tmp_path / "t.fourcol"))
        canon = lambda r: json.dumps(r, sort_keys=True, default=str)  # noqa: E731
        assert canon(r_jsonl) == canon(r_col)

    def test_fingerprint_survives_and_matches_recompute(self, saved, tiny_dataset):
        loaded = storage.load_columnar(saved)
        assert loaded.fingerprint() == tiny_dataset.fingerprint()
        # The manifest-seeded memo must equal a fresh recompute — the
        # runtime sanitizer asserts exactly this invariant.
        assert compute_fingerprint(loaded.store) == loaded.store.fingerprint()

    def test_load_is_zero_parse_for_object_columns(self, saved):
        loaded = storage.load_columnar(saved)
        store = loaded.store
        # The varstr/jsonl columns stay as deferred thunks until read.
        assert set(store._deferred) == {"hostnames", "error_details", "details"}
        loaded.error_details  # force one
        assert "error_details" not in store._deferred

    def test_numeric_columns_are_readonly_memmaps(self, saved):
        store = storage.load_columnar(saved).store
        col = store.column("error_times")
        assert isinstance(col, np.memmap)
        assert not col.flags.writeable

    def test_save_is_deterministic(self, tmp_path, tiny_dataset):
        a, b = tmp_path / "a.fourcol", tmp_path / "b.fourcol"
        storage.save_columnar(tiny_dataset, a)
        storage.save_columnar(tiny_dataset, b)
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        assert sorted(p.name for p in (a / "blobs").iterdir()) == sorted(
            p.name for p in (b / "blobs").iterdir()
        )

    def test_subset_view_round_trip(self, tmp_path, tiny_dataset):
        view = tiny_dataset[10:200]
        path = tmp_path / "view.fourcol"
        storage.save_columnar(view, path)
        loaded = storage.load_columnar(path)
        _assert_columns_identical(view, loaded)
        assert loaded.store.fingerprint() == compute_fingerprint(loaded.store)

    def test_empty_dataset_round_trip(self, tmp_path):
        path = tmp_path / "empty.fourcol"
        storage.save_columnar(FOTDataset(), path)
        assert len(storage.load_columnar(path)) == 0

    def test_verify_passes_on_clean_data(self, saved):
        loaded = storage.load_columnar(saved, verify=True)
        assert len(loaded) > 0


class TestJsonlEncoding:
    def test_matches_per_row_json_dumps(self):
        import datetime
        import json
        from pathlib import PurePosixPath

        rows = [
            {"tag": "repeat", "chain_id": 3},
            {"z": 1, "a": {"nested": [1, 2.5, None], "b": True}},
            {"note": "Größe 設備 — ünïcode", "emoji": "☃"},
            {"when": datetime.date(2016, 8, 1), "path": PurePosixPath("/a/b")},
            {"set": {1}, "nan": float("nan"), "big": 10**30},
            {},
        ]
        column = np.empty(len(rows), dtype=object)
        column[:] = rows
        expected = "".join(
            json.dumps(row, sort_keys=True, separators=(",", ":"), default=str) + "\n"
            for row in rows
        ).encode("utf-8")
        assert storage._encode_jsonl(column) == expected
        assert storage._encode_jsonl(np.empty(0, dtype=object)) == b""


class TestAppend:
    def test_append_creates_shards_and_concatenates(self, tmp_path, tiny_dataset):
        path = tmp_path / "sharded.fourcol"
        first, second = tiny_dataset[:500], tiny_dataset[500:900]
        storage.append_columnar(path, first)
        storage.append_columnar(path, second)
        summary = storage.manifest_summary(path)
        assert summary["n_shards"] == 2
        assert summary["n_rows"] == 900
        loaded = storage.load_columnar(path)
        _assert_columns_identical(tiny_dataset[:900], loaded)

    def test_append_empty_is_noop(self, tmp_path, tiny_dataset):
        path = tmp_path / "x.fourcol"
        storage.save_columnar(tiny_dataset[:50], path)
        storage.append_columnar(path, FOTDataset())
        assert storage.manifest_summary(path)["n_shards"] == 1

    def test_identical_shards_share_blobs(self, tmp_path, tiny_dataset):
        path = tmp_path / "dedup.fourcol"
        chunk = tiny_dataset[:100]
        storage.append_columnar(path, chunk)
        n_blobs_one = len(list((path / "blobs").iterdir()))
        storage.append_columnar(path, chunk)
        # Content addressing: the identical second shard adds no files.
        assert len(list((path / "blobs").iterdir())) == n_blobs_one
        assert len(storage.load_columnar(path)) == 200


class TestTypedErrors:
    def test_missing_path_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            storage.load_columnar(tmp_path / "nope.fourcol")

    def test_foreign_directory_is_format_error(self, tmp_path):
        foreign = tmp_path / "foreign.fourcol"
        foreign.mkdir()
        (foreign / "something.txt").write_text("hi")
        with pytest.raises(StorageFormatError):
            storage.load_columnar(foreign)

    def test_garbage_manifest_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.fourcol"
        bad.mkdir()
        (bad / "manifest.json").write_text("{not json")
        with pytest.raises(StorageFormatError):
            storage.load_columnar(bad)

    def test_wrong_version_manifest(self, tmp_path, tiny_dataset):
        path = tmp_path / "v.fourcol"
        storage.save_columnar(tiny_dataset[:20], path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageVersionError):
            storage.load_columnar(path)

    def test_schema_fingerprint_mismatch(self, tmp_path, tiny_dataset):
        path = tmp_path / "s.fourcol"
        storage.save_columnar(tiny_dataset[:20], path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["schema"] = "0" * 64
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageVersionError):
            storage.load_columnar(path)

    def test_missing_blob(self, tmp_path, tiny_dataset):
        path = tmp_path / "m.fourcol"
        storage.save_columnar(tiny_dataset[:20], path)
        manifest = json.loads((path / "manifest.json").read_text())
        victim = manifest["shards"][0]["columns"]["error_times"]["blob"]
        (path / "blobs" / f"{victim}.bin").unlink()
        with pytest.raises(StorageIntegrityError, match="missing"):
            storage.load_columnar(path)

    def test_truncated_blob(self, tmp_path, tiny_dataset):
        path = tmp_path / "t.fourcol"
        storage.save_columnar(tiny_dataset[:20], path)
        manifest = json.loads((path / "manifest.json").read_text())
        victim = manifest["shards"][0]["columns"]["error_times"]["blob"]
        blob = path / "blobs" / f"{victim}.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(StorageIntegrityError, match="truncated|bytes"):
            storage.load_columnar(path)

    def test_hash_mismatch_caught_by_verify(self, tmp_path, tiny_dataset):
        path = tmp_path / "h.fourcol"
        storage.save_columnar(tiny_dataset[:20], path)
        manifest = json.loads((path / "manifest.json").read_text())
        victim = manifest["shards"][0]["columns"]["error_times"]["blob"]
        blob = path / "blobs" / f"{victim}.bin"
        payload = bytearray(blob.read_bytes())
        payload[0] ^= 0xFF  # same size, different content
        blob.write_bytes(bytes(payload))
        # Size check alone cannot see it...
        storage.load_columnar(path)
        # ...verify re-hashes and does.
        with pytest.raises(StorageIntegrityError, match="hash"):
            storage.load_columnar(path, verify=True)

    def test_all_storage_errors_are_value_errors(self):
        # The CLI's `except ValueError` paths must keep catching these.
        for exc in (StorageFormatError, StorageVersionError, StorageIntegrityError):
            assert issubclass(exc, StorageError)
            assert issubclass(exc, ValueError)


class TestFrontDoorDispatch:
    def test_save_load_by_suffix(self, tmp_path, tiny_dataset):
        path = tmp_path / "d.fourcol"
        core_io.save(tiny_dataset, path)
        loaded = core_io.load(path)
        assert len(loaded) == len(tiny_dataset)
        assert loaded.fingerprint() == tiny_dataset.fingerprint()

    def test_directory_sniffed_without_suffix(self, tmp_path, tiny_dataset):
        path = tmp_path / "plain_dir"
        storage.save_columnar(tiny_dataset[:30], path)
        assert len(core_io.load(path)) == 30

    def test_lenient_load_returns_empty_quarantine(self, tmp_path, tiny_dataset):
        path = tmp_path / "d.fourcol"
        core_io.save(tiny_dataset[:30], path)
        dataset, report = core_io.load(path, strict=False)
        assert len(dataset) == 30
        assert report.clean
        assert report.n_loaded == 30

    def test_write_records_rejects_columnar(self, tmp_path):
        with pytest.raises(ValueError, match="columnar"):
            core_io.write_records([{}], tmp_path / "x.fourcol")

    def test_supported_suffixes_advertise_columnar(self):
        assert ".fourcol" in core_io.SUPPORTED_SUFFIXES
