"""The growing dataset behind the ingestion service.

:class:`LiveDataset` turns the immutable :class:`~repro.core.dataset.
FOTDataset` substrate into an appendable store without giving up any of
its invariants: every accepted batch is kept as a pending view and
merged into the base column store in amortized batches
(:meth:`FOTDataset.concat_many`), so per-append cost is O(batch) and a
compaction costs one column copy — never O(store) per batch.

Readers always get a coherent snapshot: :meth:`current` compacts
pending appends (if any) and returns an immutable view; concurrent
analyses over an older snapshot stay valid because views never mutate.
Appends, compactions and snapshots may come from different threads
(the ingestion router runs them on an executor): one lock serializes
them, so a batch staged while another thread compacts is never lost.
On compaction the superseded snapshot's cache entries are evicted
through :meth:`~repro.engine.cache.AnalysisCache.invalidate`.

With ``persist_dir`` set, compactions are also durable: each one
appends the just-compacted pending tickets as a new columnar shard
(:func:`repro.core.storage.append_columnar`), with the same
blobs-before-manifest atomicity as the dead-letter store — a crash
mid-compaction leaves the previous shard list fully readable.  On
restart, :meth:`LiveDataset.open` memory-maps the shards back into the
base.  The durability unit is the compaction: tickets still pending
(below the threshold) live only in memory until the next compaction or
an explicit :meth:`flush`, mirroring the at-least-once contract the
ingestion ledger already provides upstream.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import List, Optional, Union

from repro.core.dataset import FOTDataset
from repro.core.storage import append_columnar, is_columnar, load_columnar
from repro.engine.cache import AnalysisCache


class TransientAppendError(RuntimeError):
    """A retryable failure on the append path (fault injection and
    genuinely transient conditions; the router retries these under its
    backoff policy)."""


class LiveDataset:
    """An append-only dataset with amortized compaction and optional
    columnar persistence."""

    def __init__(
        self,
        base: Optional[FOTDataset] = None,
        *,
        compact_threshold_tickets: int = 65_536,
        cache: Optional[AnalysisCache] = None,
        persist_dir: Optional[Union[str, Path]] = None,
    ):
        if compact_threshold_tickets < 1:
            raise ValueError("compact_threshold_tickets must be >= 1")
        self._base = base if base is not None else FOTDataset()
        self._pending: List[FOTDataset] = []
        self._pending_tickets = 0
        self._threshold = compact_threshold_tickets
        self._cache = cache
        self._persist_dir = None if persist_dir is None else Path(persist_dir)
        self._lock = threading.Lock()
        self.compactions = 0
        self.appends = 0
        if self._persist_dir is not None:
            # A fresh persist dir only: constructing over an existing
            # persisted dataset would diverge memory from disk (or
            # double-count a seed base) — resume with open() instead.
            if is_columnar(self._persist_dir):
                raise ValueError(
                    f"{self._persist_dir} already holds a persisted dataset; "
                    "resume it with LiveDataset.open() instead of seeding a base"
                )
            if len(self._base):
                # A non-empty seed becomes the first durable shard, so
                # disk equals memory from the start.
                append_columnar(self._persist_dir, self._base)

    @classmethod
    def open(
        cls,
        persist_dir: Union[str, Path],
        *,
        compact_threshold_tickets: int = 65_536,
        cache: Optional[AnalysisCache] = None,
    ) -> "LiveDataset":
        """Resume a persisted live dataset: memory-map the shards
        written by previous compactions (empty if none exist yet) and
        keep appending to the same directory."""
        persist_dir = Path(persist_dir)
        base = load_columnar(persist_dir) if is_columnar(persist_dir) else None
        live = cls(
            None,
            compact_threshold_tickets=compact_threshold_tickets,
            cache=cache,
        )
        if base is not None:
            live._base = base
        live._persist_dir = persist_dir
        return live

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._base) + self._pending_tickets

    @property
    def pending_tickets(self) -> int:
        return self._pending_tickets

    @property
    def persist_dir(self) -> Optional[Path]:
        """Where compactions are persisted, or ``None`` (memory-only)."""
        return self._persist_dir

    @property
    def pending_batches(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    def append(self, batch: FOTDataset) -> int:
        """Stage an accepted batch; compacts once the pending volume
        crosses the threshold.  Returns the new total ticket count."""
        with self._lock:
            if len(batch):
                self._pending.append(batch)
                self._pending_tickets += len(batch)
                self.appends += 1
                if self._pending_tickets >= self._threshold:
                    self._compact()
            return len(self._base) + self._pending_tickets

    def _compact(self) -> None:
        """Merge every pending batch into the base; the caller holds
        ``self._lock``."""
        old = self._base
        if self._persist_dir is not None and self._pending:
            # Durability first: the new shard's blobs and the manifest
            # update land before the in-memory merge, so a crash during
            # the merge loses nothing that was reported compacted.
            delta = (
                self._pending[0]
                if len(self._pending) == 1
                else FOTDataset.concat_many(self._pending)
            )
            append_columnar(self._persist_dir, delta)
        self._base = FOTDataset.concat_many([self._base, *self._pending])
        self._pending = []
        self._pending_tickets = 0
        self.compactions += 1
        if self._cache is not None and len(old):
            self._cache.invalidate(old)

    def flush(self) -> None:
        """Force a compaction (and, when persisting, a durable shard)
        for whatever is pending — shutdown path."""
        with self._lock:
            if self._pending:
                self._compact()

    def current(self) -> FOTDataset:
        """An immutable snapshot containing every accepted ticket."""
        with self._lock:
            if self._pending:
                self._compact()
            return self._base


__all__ = ["LiveDataset", "TransientAppendError"]
