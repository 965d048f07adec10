"""Content-addressed binary columnar persistence with mmap zero-parse load.

Text formats (``.jsonl`` / ``.csv``) pay a per-ticket parse cost on
every open — 11.7s of the 14s 1M-ticket bench total was CSV/JSONL
parsing.  This module stores a :class:`~repro.core.columns.ColumnStore`
*as it is laid out in memory*, so :func:`load_columnar` memory-maps the
column bytes instead of parsing them and a dataset opens in
milliseconds regardless of size.

Layout (a ``<name>.fourcol`` directory)::

    dataset.fourcol/
        manifest.json                 # format/version/schema, shards[]
        blobs/
            <sha256-of-payload>.bin   # content-addressed, immutable

Every blob is named by the SHA-256 of its payload, so identical columns
share storage across shards and the manifest's blob hashes double as
the dataset's content identity: :func:`save_columnar` records the
store's :func:`~repro.core.columns.compute_fingerprint` in the
manifest, and :func:`load_columnar` pre-seeds the loaded store's
fingerprint memo from it — warm :class:`~repro.engine.cache.
AnalysisCache` hits therefore never re-hash column bytes on open.

Per-column encodings (fixed by :data:`NUMERIC_DTYPES` /
:data:`VARSTR_COLUMNS` / :data:`JSONL_COLUMNS`, all little-endian):

* **numeric** — raw dtype bytes, memory-mapped read-only on load;
* **varstr**  — an ``int64`` offsets blob plus a concatenated UTF-8
  data blob (the per-ticket ``hostnames`` / ``error_details`` strings),
  decoded *lazily* on first column access;
* **jsonl**   — one JSON object per row (the free-form ``details``
  dicts), also decoded lazily;
* interned string **tables** — one JSON-array blob per table (small).

Writes are crash-safe in the dead-letter store's file-before-manifest
style: every blob is staged to a temp file and atomically renamed
before the manifest references it, and the manifest itself is replaced
atomically last, so a reader never observes a manifest pointing at a
missing or truncated blob.  Appends (:func:`append_columnar`) add a new
shard's blobs first and rewrite the manifest once.

Failure modes raise typed :class:`StorageError` subclasses (all
``ValueError``) instead of numpy shape garbage: a foreign or unreadable
directory is a :class:`StorageFormatError`, a manifest written by a
different format version or column schema is a
:class:`StorageVersionError`, and a missing/truncated/corrupt blob is a
:class:`StorageIntegrityError`.  Size checks run on every load;
``verify=True`` additionally re-hashes every blob against its
content address.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.columns import (
    ACTION_ORDER,
    CATEGORY_ORDER,
    COLUMN_NAMES,
    COMPONENT_ORDER,
    SOURCE_ORDER,
    TABLE_NAMES,
    ColumnStore,
)
from repro.core.dataset import FOTDataset

#: Manifest ``format`` field; anything else is not ours.
FORMAT_NAME = "fouryears-columnar"

#: Bump on any incompatible layout change.
FORMAT_VERSION = 1

#: Conventional directory suffix the :mod:`repro.core.io` front door
#: dispatches on.
COLUMNAR_SUFFIX = ".fourcol"

MANIFEST_NAME = "manifest.json"
BLOBS_DIR = "blobs"

#: Numeric/categorical column -> on-disk little-endian dtype (matches
#: the in-memory dtypes of :class:`~repro.core.columns.ColumnBuilder`).
NUMERIC_DTYPES: Dict[str, str] = {
    "fot_ids": "<i8",
    "host_ids": "<i8",
    "error_times": "<f8",
    "op_times": "<f8",
    "deployed_ats": "<f8",
    "positions": "<i4",
    "device_slots": "<i4",
    "category_codes": "|i1",
    "component_codes": "|i1",
    "source_codes": "|i1",
    "action_codes": "|i1",
    "idc_codes": "<i4",
    "product_line_codes": "<i4",
    "error_type_codes": "<i4",
    "operator_id_codes": "<i4",
}

#: Per-ticket string columns stored as offsets + UTF-8 data blobs.
VARSTR_COLUMNS: Tuple[str, ...] = ("hostnames", "error_details")

#: Free-form object columns stored as JSON lines.
JSONL_COLUMNS: Tuple[str, ...] = ("details",)

_OFFSETS_DTYPE = "<i8"


class StorageError(ValueError):
    """Base for every defect the columnar storage layer reports."""


class StorageFormatError(StorageError):
    """The path is not a readable columnar dataset (no/foreign/broken
    manifest, unknown column encoding)."""


class StorageVersionError(StorageError):
    """The manifest was written by an incompatible format version or
    column schema (enum orders, dtypes, column set)."""


class StorageIntegrityError(StorageError):
    """A blob named by the manifest is missing, truncated, or fails its
    content-address check."""


def schema_fingerprint() -> str:
    """Hash of everything that fixes the byte-level meaning of a saved
    dataset: the format version, every column's name + encoding +
    dtype, the interned table names, and the categorical enum orders
    (codes index into them).  Changing any of these invalidates old
    files with a clean :class:`StorageVersionError` instead of silently
    misreading codes."""
    digest = hashlib.sha256()
    digest.update(f"{FORMAT_NAME}/{FORMAT_VERSION}".encode())
    for name in COLUMN_NAMES:
        if name in NUMERIC_DTYPES:
            spec = f"numeric:{NUMERIC_DTYPES[name]}"
        elif name in VARSTR_COLUMNS:
            spec = f"varstr:{_OFFSETS_DTYPE}"
        else:
            spec = "jsonl"
        digest.update(f";{name}={spec}".encode())
    for table_name in TABLE_NAMES:
        digest.update(f";table={table_name}".encode())
    for order in (CATEGORY_ORDER, COMPONENT_ORDER, SOURCE_ORDER, ACTION_ORDER):
        digest.update(";".join(member.value for member in order).encode())
        digest.update(b"|")
    return digest.hexdigest()


def is_columnar(path: Union[str, Path]) -> bool:
    """Whether ``path`` holds a columnar dataset (has a manifest)."""
    return (Path(path) / MANIFEST_NAME).is_file()


# ----------------------------------------------------------------------
# blob plumbing
# ----------------------------------------------------------------------
def _write_blob(blobs_dir: Path, payload: bytes) -> Dict[str, object]:
    """Store ``payload`` under its content address (atomic write);
    returns the manifest reference ``{"blob": <hex>, "nbytes": <int>}``.
    An existing blob with the same address is reused, never rewritten —
    identical columns across shards share one file."""
    digest = hashlib.sha256(payload).hexdigest()
    path = blobs_dir / f"{digest}.bin"
    if not path.exists():
        fd, tmp = tempfile.mkstemp(
            dir=str(blobs_dir), prefix=digest[:8] + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    return {"blob": digest, "nbytes": len(payload)}


def _blob_ref(spec: Dict[str, Any], key: str, what: str) -> Tuple[str, int]:
    """Pull a ``(digest, nbytes)`` reference out of a manifest entry."""
    try:
        digest = str(spec[key])
        nbytes = int(spec[key.replace("blob", "nbytes")])
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageFormatError(
            f"manifest entry for {what} is malformed: {spec!r}"
        ) from exc
    return digest, nbytes


def _blob_path(root: Path, digest: str, nbytes: int, what: str) -> Path:
    """Resolve a blob reference, size-checking it (cheap ``stat``) so a
    truncated or missing file fails with a typed error at open time
    rather than as a numpy reshape error mid-analysis."""
    path = root / BLOBS_DIR / f"{digest}.bin"
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        raise StorageIntegrityError(
            f"{what}: blob {digest[:12]}… named by the manifest is missing"
        ) from None
    if size != nbytes:
        raise StorageIntegrityError(
            f"{what}: blob {digest[:12]}… is {size} bytes on disk but the "
            f"manifest recorded {nbytes} (truncated or corrupt)"
        )
    return path


def _verify_blob(path: Path, digest: str, what: str) -> None:
    actual = hashlib.sha256(path.read_bytes()).hexdigest()
    if actual != digest:
        raise StorageIntegrityError(
            f"{what}: blob content hash {actual[:12]}… does not match its "
            f"address {digest[:12]}… (bit rot or tampering)"
        )


# ----------------------------------------------------------------------
# column encodings
# ----------------------------------------------------------------------
def _encode_varstr(column: np.ndarray) -> Tuple[bytes, bytes]:
    encoded = [str(value).encode("utf-8") for value in column]
    offsets = np.zeros(len(encoded) + 1, dtype=np.dtype(_OFFSETS_DTYPE))
    if encoded:
        lengths = np.fromiter(
            (len(chunk) for chunk in encoded), dtype=np.int64, count=len(encoded)
        )
        np.cumsum(lengths, out=offsets[1:])
    return offsets.tobytes(), b"".join(encoded)


def _decode_varstr(offsets_path: Path, data_path: Path, n: int, what: str) -> np.ndarray:
    offsets = np.fromfile(offsets_path, dtype=np.dtype(_OFFSETS_DTYPE))
    data = data_path.read_bytes()
    if offsets.size != n + 1 or (n and offsets[0] != 0):
        raise StorageIntegrityError(
            f"{what}: offsets blob has {offsets.size} entries for {n} rows"
        )
    if n and (int(offsets[-1]) != len(data) or np.any(np.diff(offsets) < 0)):
        raise StorageIntegrityError(
            f"{what}: offsets do not tile the {len(data)}-byte data blob"
        )
    out = np.empty(n, dtype=object)
    bounds = offsets.tolist()
    for i in range(n):
        out[i] = data[bounds[i]:bounds[i + 1]].decode("utf-8")
    out.setflags(write=False)
    return out


#: One encoder for every ``details`` row: ``json.dumps`` with these
#: options would build a fresh encoder per row.
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str)


def _encode_jsonl(column: np.ndarray) -> bytes:
    encode = _JSONL_ENCODER.encode
    lines = [encode(value) for value in column]
    text = "\n".join(lines)
    if lines:
        text += "\n"
    return text.encode("utf-8")


def _decode_jsonl(path: Path, n: int, what: str) -> np.ndarray:
    out = np.empty(n, dtype=object)
    count = 0
    try:
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                if count >= n:
                    count += 1
                    break
                out[count] = json.loads(line)
                count += 1
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageIntegrityError(f"{what}: row {count} is not JSON: {exc}") from exc
    if count != n:
        raise StorageIntegrityError(f"{what}: expected {n} JSON rows, found {count}")
    out.setflags(write=False)
    return out


# ----------------------------------------------------------------------
# save / append
# ----------------------------------------------------------------------
def _view_columns(
    dataset: FOTDataset,
) -> Tuple[int, Dict[str, np.ndarray], Dict[str, Tuple[str, ...]]]:
    """Materialize the column values of a dataset *view* (no copy for a
    full view) plus the backing store's interned tables (codes stay
    valid against the full tables, so views need no re-interning)."""
    store = dataset.store
    indices = None if dataset._indices is None else dataset._gindices()
    arrays: Dict[str, np.ndarray] = {}
    for name in COLUMN_NAMES:
        base = store.column(name)
        arrays[name] = base if indices is None else base[indices]
    tables = {name: store.table(name) for name in TABLE_NAMES}
    return len(dataset), arrays, tables


def _store_fingerprint(
    dataset: FOTDataset,
    n: int,
    arrays: Dict[str, np.ndarray],
    tables: Dict[str, Tuple[str, ...]],
) -> str:
    """The :func:`~repro.core.columns.compute_fingerprint` of the store
    a future load of these columns will reconstruct.  For a full view
    this is the backing store's own (memoized) fingerprint; a subset
    view hashes its materialized columns once, here, at save time."""
    store = dataset.store
    if dataset._indices is None:
        return store.fingerprint()
    probe = ColumnStore.adopt_buffers(n, arrays, tables)
    return probe.fingerprint()


def _write_shard(
    root: Path,
    n: int,
    arrays: Dict[str, np.ndarray],
    tables: Dict[str, Tuple[str, ...]],
    fingerprint: str,
) -> Dict[str, object]:
    blobs_dir = root / BLOBS_DIR
    blobs_dir.mkdir(parents=True, exist_ok=True)
    columns: Dict[str, object] = {}
    for name in COLUMN_NAMES:
        column = arrays[name]
        if name in NUMERIC_DTYPES:
            dtype = np.dtype(NUMERIC_DTYPES[name])
            payload = np.ascontiguousarray(column, dtype=dtype).tobytes()
            ref = _write_blob(blobs_dir, payload)
            columns[name] = {
                "encoding": "numeric",
                "dtype": NUMERIC_DTYPES[name],
                **ref,
            }
        elif name in VARSTR_COLUMNS:
            offsets_payload, data_payload = _encode_varstr(column)
            offsets_ref = _write_blob(blobs_dir, offsets_payload)
            data_ref = _write_blob(blobs_dir, data_payload)
            columns[name] = {
                "encoding": "varstr",
                "offsets_blob": offsets_ref["blob"],
                "offsets_nbytes": offsets_ref["nbytes"],
                "data_blob": data_ref["blob"],
                "data_nbytes": data_ref["nbytes"],
            }
        else:
            ref = _write_blob(blobs_dir, _encode_jsonl(column))
            columns[name] = {"encoding": "jsonl", **ref}
    table_specs: Dict[str, object] = {}
    for table_name in TABLE_NAMES:
        payload = json.dumps(
            list(tables[table_name]), ensure_ascii=False, separators=(",", ":")
        ).encode("utf-8")
        ref = _write_blob(blobs_dir, payload)
        table_specs[table_name] = {"n": len(tables[table_name]), **ref}
    return {
        "n_rows": n,
        "fingerprint": fingerprint,
        "columns": columns,
        "tables": table_specs,
    }


def _write_manifest(root: Path, manifest: Dict[str, object]) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(root), prefix="manifest.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, root / MANIFEST_NAME)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_columnar(dataset: FOTDataset, path: Union[str, Path]) -> Path:
    """Write ``dataset`` as a single-shard columnar directory at
    ``path`` (conventionally ``*.fourcol``), replacing any dataset
    already there.  Blobs land before the manifest names them, so an
    interrupted save never leaves a readable-but-wrong dataset: either
    the old manifest still reigns or the new one is complete.

    Saving is lossless for JSON-representable ``detail`` dicts (the
    same contract as JSONL) and byte-deterministic: the same dataset
    always produces the same blobs and manifest.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    n, arrays, tables = _view_columns(dataset)
    fingerprint = _store_fingerprint(dataset, n, arrays, tables)
    shard = _write_shard(root, n, arrays, tables, fingerprint)
    _write_manifest(
        root,
        {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "schema": schema_fingerprint(),
            "n_rows": n,
            "fingerprint": fingerprint,
            "shards": [shard],
        },
    )
    return root


def append_columnar(path: Union[str, Path], dataset: FOTDataset) -> Path:
    """Append ``dataset`` as a new shard of an existing columnar
    directory (creating the directory when absent) — the
    :class:`~repro.serve.store.LiveDataset` compaction path.  The new
    shard's blobs are durable before the manifest update lands, and the
    manifest rewrite is atomic, so a crash leaves the previous shard
    list fully readable."""
    root = Path(path)
    if not is_columnar(root):
        return save_columnar(dataset, root)
    manifest = _read_manifest(root)
    if not len(dataset):
        return root
    n, arrays, tables = _view_columns(dataset)
    fingerprint = _store_fingerprint(dataset, n, arrays, tables)
    shard = _write_shard(root, n, arrays, tables, fingerprint)
    shards = list(manifest["shards"])
    shards.append(shard)
    manifest["shards"] = shards
    manifest["n_rows"] = int(manifest.get("n_rows", 0)) + n
    # The concatenated store's fingerprint is no longer the single
    # shard's; leave it to the normal lazy computation on load.
    manifest["fingerprint"] = None
    _write_manifest(root, manifest)
    return root


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def _read_manifest(path: Path) -> Dict[str, Any]:
    if not path.exists():
        raise FileNotFoundError(f"no such dataset: {path}")
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StorageFormatError(
            f"{path} is not a columnar dataset: no {MANIFEST_NAME} "
            "(was a save interrupted before its manifest landed?)"
        )
    try:
        raw = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageFormatError(f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("format") != FORMAT_NAME:
        raise StorageFormatError(
            f"{manifest_path} is not a {FORMAT_NAME} manifest"
        )
    version = raw.get("version")
    if version != FORMAT_VERSION:
        raise StorageVersionError(
            f"{path}: manifest version {version!r}; this build reads only "
            f"version {FORMAT_VERSION}"
        )
    if raw.get("schema") != schema_fingerprint():
        raise StorageVersionError(
            f"{path}: column schema fingerprint mismatch — the dataset was "
            "written under a different column layout or enum ordering; "
            "re-export it with 'fouryears convert'"
        )
    shards = raw.get("shards")
    if not isinstance(shards, list):
        raise StorageFormatError(f"{manifest_path}: missing shard list")
    return raw


def _load_shard(root: Path, shard: Dict[str, Any], verify: bool) -> ColumnStore:
    try:
        n = int(shard["n_rows"])
        column_specs = shard["columns"]
        table_specs = shard["tables"]
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageFormatError(f"{root}: malformed shard entry: {exc}") from exc

    arrays: Dict[str, np.ndarray] = {}
    deferred: Dict[str, Callable[[], np.ndarray]] = {}
    for name in COLUMN_NAMES:
        spec = column_specs.get(name)
        if not isinstance(spec, dict):
            raise StorageFormatError(f"{root}: shard lacks column {name!r}")
        encoding = spec.get("encoding")
        what = f"column {name!r}"
        if encoding == "numeric":
            dtype = np.dtype(str(spec.get("dtype", "")))
            if name in NUMERIC_DTYPES and dtype != np.dtype(NUMERIC_DTYPES[name]):
                raise StorageVersionError(
                    f"{root}: {what} stored as {dtype}, schema expects "
                    f"{NUMERIC_DTYPES[name]}"
                )
            digest, nbytes = _blob_ref(spec, "blob", what)
            if nbytes != n * dtype.itemsize:
                raise StorageIntegrityError(
                    f"{what}: manifest says {nbytes} bytes for {n} rows of {dtype}"
                )
            if n:
                blob = _blob_path(root, digest, nbytes, what)
                if verify:
                    _verify_blob(blob, digest, what)
                arrays[name] = np.memmap(blob, dtype=dtype, mode="r")
            else:
                arrays[name] = np.empty(0, dtype=dtype)
        elif encoding == "varstr":
            off_digest, off_nbytes = _blob_ref(spec, "offsets_blob", what)
            data_digest, data_nbytes = _blob_ref(spec, "data_blob", what)
            item = np.dtype(_OFFSETS_DTYPE).itemsize
            if off_nbytes != (n + 1) * item:
                raise StorageIntegrityError(
                    f"{what}: offsets blob holds {off_nbytes // item} entries "
                    f"for {n} rows"
                )
            offsets_blob = _blob_path(root, off_digest, off_nbytes, what)
            data_blob = _blob_path(root, data_digest, data_nbytes, what)
            if verify:
                _verify_blob(offsets_blob, off_digest, what)
                _verify_blob(data_blob, data_digest, what)
            deferred[name] = _varstr_thunk(offsets_blob, data_blob, n, what)
        elif encoding == "jsonl":
            digest, nbytes = _blob_ref(spec, "blob", what)
            blob = _blob_path(root, digest, nbytes, what)
            if verify:
                _verify_blob(blob, digest, what)
            deferred[name] = _jsonl_thunk(blob, n, what)
        else:
            raise StorageFormatError(f"{root}: {what} has unknown encoding {encoding!r}")

    tables: Dict[str, Tuple[str, ...]] = {}
    for table_name in TABLE_NAMES:
        spec = table_specs.get(table_name)
        if not isinstance(spec, dict):
            raise StorageFormatError(f"{root}: shard lacks table {table_name!r}")
        what = f"table {table_name!r}"
        digest, nbytes = _blob_ref(spec, "blob", what)
        blob = _blob_path(root, digest, nbytes, what)
        if verify:
            _verify_blob(blob, digest, what)
        try:
            values = json.loads(blob.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StorageIntegrityError(f"{what}: blob is not JSON: {exc}") from exc
        if not isinstance(values, list):
            raise StorageIntegrityError(f"{what}: blob is not a JSON array")
        tables[table_name] = tuple(str(v) for v in values)

    fingerprint = shard.get("fingerprint")
    return ColumnStore.adopt_buffers(
        n,
        arrays,
        tables,
        deferred=deferred,
        fingerprint=str(fingerprint) if fingerprint else None,
    )


def _varstr_thunk(
    offsets_blob: Path, data_blob: Path, n: int, what: str
) -> Callable[[], np.ndarray]:
    return lambda: _decode_varstr(offsets_blob, data_blob, n, what)


def _jsonl_thunk(blob: Path, n: int, what: str) -> Callable[[], np.ndarray]:
    return lambda: _decode_jsonl(blob, n, what)


def load_columnar(path: Union[str, Path], *, verify: bool = False) -> FOTDataset:
    """Open a columnar dataset by memory-mapping its blobs.

    Numeric columns come back as read-only ``np.memmap`` views (the OS
    pages them in on demand); per-ticket string and detail columns
    decode lazily on first access.  Open time is therefore
    near-constant in dataset size.  The manifest's recorded fingerprint
    pre-seeds :meth:`ColumnStore.fingerprint`, so analysis-cache keys
    are available without hashing a single column byte.

    ``verify=True`` additionally re-hashes every referenced blob
    against its content address (full read; use for audits, not hot
    paths).  Size/shape consistency is checked on every load.
    """
    root = Path(path)
    manifest = _read_manifest(root)
    shards: List[Dict[str, Any]] = list(manifest["shards"])
    stores = [_load_shard(root, shard, verify) for shard in shards]
    stores = [store for store in stores if store.n]
    if not stores:
        return FOTDataset()
    if len(stores) == 1:
        return FOTDataset.from_store(stores[0])
    parts = [(store, np.arange(store.n, dtype=np.int64)) for store in stores]
    return FOTDataset.from_store(ColumnStore.concatenate(parts))


def manifest_summary(path: Union[str, Path]) -> Dict[str, object]:
    """Cheap header info (row count, shard count, fingerprint) without
    touching any blob — for the CLI and tests."""
    manifest = _read_manifest(Path(path))
    shards = list(manifest["shards"])
    return {
        "n_rows": int(manifest.get("n_rows", 0)),
        "n_shards": len(shards),
        "fingerprint": manifest.get("fingerprint"),
        "schema": manifest.get("schema"),
    }


__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "COLUMNAR_SUFFIX",
    "MANIFEST_NAME",
    "NUMERIC_DTYPES",
    "VARSTR_COLUMNS",
    "JSONL_COLUMNS",
    "StorageError",
    "StorageFormatError",
    "StorageVersionError",
    "StorageIntegrityError",
    "schema_fingerprint",
    "is_columnar",
    "save_columnar",
    "append_columnar",
    "load_columnar",
    "manifest_summary",
]
