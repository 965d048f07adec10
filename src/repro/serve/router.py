"""The asyncio ticket-ingestion router.

One :class:`IngestRouter` owns the whole streaming pipeline::

    submit(source, records)        # sync, raises on backpressure/breaker
        -> bounded IngestQueue     # QueueFullError once the watermark hits
        -> worker task             # single consumer, append order = arrival
           validate (executor,     # batch-granular quarantine with a real
                     timeout)      #   wall-clock budget (slow-loris guard)
           append (retry+jitter)   # transient failures retried with backoff
           refresh (every N)       # headline report recomputed through the
                                   #   AnalysisCache over the live snapshot
        -> LiveDataset             # amortized compaction, cache invalidation
        -> DeadLetterStore         # every rejected batch parked, replayable

Accounting invariant (asserted by the soak bench and the observability
tests): every submitted ticket that enters the queue ends up in exactly
one of ``tickets_accepted``, ``tickets_quarantined`` or
``tickets_dead_lettered`` — nothing is ever silently dropped.

The clock, retry RNG and sleep function are injectable, so breaker
timing and backoff behavior are fully deterministic under test.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Sequence

from repro.analysis.full_report import full_report
from repro.core.dataset import FOTDataset
from repro.engine.cache import AnalysisCache
from repro.engine.telemetry import (
    KIND_REPORT,
    InMemoryTelemetrySink,
    RunTelemetry,
    StageTiming,
)
from repro.robustness.batch import (
    POISON_DIRTY,
    POISON_OVERSIZED,
    POISON_STRUCTURAL,
    BatchValidation,
    validate_batch,
)
from repro.serve.breaker import BreakerBoard, BreakerOpenError
from repro.serve.config import ServeConfig
from repro.serve.deadletter import (
    REASON_APPEND_FAILED,
    REASON_DIRTY,
    REASON_INTERNAL,
    REASON_OVERSIZED,
    REASON_STRUCTURAL,
    REASON_TIMEOUT,
    DeadLetterStore,
    MemoryDeadLetterStore,
)
from repro.serve.metrics import IngestMetrics
from repro.serve.queue import IngestQueue, QueueFullError
from repro.serve.retry import RetryExhaustedError, retry_async
from repro.serve.store import LiveDataset, TransientAppendError

_VERDICT_REASONS = {
    POISON_OVERSIZED: REASON_OVERSIZED,
    POISON_STRUCTURAL: REASON_STRUCTURAL,
    POISON_DIRTY: REASON_DIRTY,
}


@dataclass
class IngestBatch:
    """One queued unit of work."""

    seq: int
    source: str
    records: List[object]


@dataclass(frozen=True)
class SubmitReceipt:
    """What a successful ``submit`` returns (HTTP 202 body)."""

    seq: int
    source: str
    n_records: int
    queue_depth: int


@dataclass
class _Hooks:
    """Injection points for tests and the soak bench."""

    append_fault: Optional[Callable[[IngestBatch], None]] = None
    sleep: Optional[Callable[[float], Awaitable[None]]] = None
    clock: Optional[Callable[[], float]] = None
    retry_rng: Optional[random.Random] = None


class IngestRouter:
    """Validating, backpressured, observable FOT batch ingester."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        initial: Optional[FOTDataset] = None,
        cache: Optional[AnalysisCache] = None,
        append_fault: Optional[Callable[[IngestBatch], None]] = None,
        sleep: Optional[Callable[[float], Awaitable[None]]] = None,
        clock: Optional[Callable[[], float]] = None,
        retry_rng: Optional[random.Random] = None,
    ):
        self.config = config if config is not None else ServeConfig()
        self.metrics = IngestMetrics()
        self.cache = cache if cache is not None else AnalysisCache()
        self.live = LiveDataset(
            initial,
            compact_threshold_tickets=self.config.compact_threshold_tickets,
            cache=self.cache,
        )
        self.queue = IngestQueue(self.config.queue_high_watermark)
        self.breakers = BreakerBoard(
            self.config.breaker,
            clock=clock,
            on_transition=self.metrics.record_breaker_transition,
        )
        if self.config.dead_letter_dir is not None:
            self.dead_letters: DeadLetterStore = DeadLetterStore(
                self.config.dead_letter_dir
            )
        else:
            self.dead_letters = MemoryDeadLetterStore()
        self._hooks = _Hooks(
            append_fault=append_fault, sleep=sleep, clock=clock,
            retry_rng=retry_rng,
        )
        #: Execution telemetry for the periodic report refreshes; the
        #: latest run document is surfaced verbatim under ``/metrics``.
        self.telemetry = InMemoryTelemetrySink()
        self._seq = 0
        self._accepted_batches = 0
        self._worker: Optional["asyncio.Task[None]"] = None
        self.last_refresh_seconds: Optional[float] = None
        #: batches whose dead-letter write itself failed (never silently
        #: dropped — still countable and inspectable in memory).
        self.dead_letter_failures: List[IngestBatch] = []

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def submit(self, source: str, records: Sequence[object]) -> SubmitReceipt:
        """Enqueue a batch or fail fast.

        Raises:
            BreakerOpenError: the source's circuit breaker rejects it
                (HTTP 503).
            QueueFullError: the bounded queue is at its high watermark
                (HTTP 429) — the client should back off and retry.
        """
        self.metrics.batches_submitted += 1
        breaker = self.breakers.get(source)
        if not breaker.allow():
            self.metrics.batches_rejected_breaker += 1
            raise BreakerOpenError(source, breaker.retry_after())
        self._seq += 1
        batch = IngestBatch(seq=self._seq, source=source, records=list(records))
        try:
            self.queue.try_put(batch)
        except QueueFullError:
            # The batch never entered the pipeline: give back its seq
            # and any half-open probe slot so accounting stays exact.
            self.metrics.batches_rejected_queue_full += 1
            self._seq -= 1
            breaker.release_probe()
            raise
        self.metrics.tickets_submitted += len(batch.records)
        return SubmitReceipt(
            seq=batch.seq,
            source=source,
            n_records=len(batch.records),
            queue_depth=self.queue.depth,
        )

    async def submit_wait(
        self, source: str, records: Sequence[object],
        poll_seconds: float = 0.01,
    ) -> SubmitReceipt:
        """In-process cooperative submit: awaits through backpressure
        instead of raising (still fails fast on an open breaker)."""
        while True:
            try:
                return self.submit(source, records)
            except QueueFullError:
                await asyncio.sleep(poll_seconds)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the single consumer task (append order = arrival
        order).  Must be called from a running event loop."""
        if self._worker is None or self._worker.done():
            self._worker = asyncio.get_running_loop().create_task(
                self._worker_loop()
            )

    async def stop(self, drain: bool = True) -> None:
        if drain:
            await self.drain()
        # Capture-and-swap in one statement: a concurrent start() during
        # the await below sees _worker already cleared instead of racing
        # the post-await `self._worker = None` (RPL202).
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.cancel()
            try:
                await worker
            except asyncio.CancelledError:
                pass

    async def drain(self) -> None:
        """Wait until every queued batch has a terminal disposition."""
        await self.queue.join()

    async def _worker_loop(self) -> None:
        while True:
            batch = await self.queue.get()
            try:
                await self._process(batch)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # terminal safety net: park, never drop
                await self._dead_letter(batch, REASON_INTERNAL, repr(exc))
                self.breakers.get(batch.source).record_failure()
            finally:
                self.queue.task_done()

    async def _process(self, batch: IngestBatch) -> None:
        breaker = self.breakers.get(batch.source)
        loop = asyncio.get_running_loop()
        try:
            validation = await asyncio.wait_for(
                loop.run_in_executor(None, self._validate, batch),
                timeout=self.config.validate_timeout_seconds,
            )
        except asyncio.TimeoutError:
            self.metrics.batch_timeouts += 1
            await self._dead_letter(
                batch, REASON_TIMEOUT,
                f"validation exceeded "
                f"{self.config.validate_timeout_seconds:.1f}s",
            )
            breaker.record_failure()
            return

        if not validation.accepted:
            await self._dead_letter(
                batch,
                _VERDICT_REASONS.get(validation.verdict, REASON_INTERNAL),
                validation.reason,
            )
            breaker.record_failure()
            return

        try:
            await retry_async(
                lambda: self._append(batch, validation),
                self.config.retry,
                retry_on=(TransientAppendError,),
                sleep=self._hooks.sleep,
                rng=self._hooks.retry_rng,
                on_retry=self._count_retry,
            )
        except RetryExhaustedError as exc:
            self.metrics.append_failures += 1
            await self._dead_letter(batch, REASON_APPEND_FAILED, str(exc))
            breaker.record_failure()
            return

        self.metrics.batches_accepted += 1
        if validation.n_quarantined:
            self.metrics.batches_quarantined += 1
        self.metrics.tickets_accepted += validation.n_accepted
        self.metrics.tickets_quarantined += validation.n_quarantined
        breaker.record_success()
        self._accepted_batches += 1
        interval = self.config.refresh_interval_batches
        if interval and self._accepted_batches % interval == 0:
            await self._refresh(loop)

    # ------------------------------------------------------------------
    def _validate(self, batch: IngestBatch) -> BatchValidation:
        return validate_batch(
            batch.records,
            source=f"{batch.source}#{batch.seq}",
            max_tickets=self.config.max_batch_tickets,
            poison_skip_fraction=self.config.poison_skip_fraction,
        )

    async def _append(
        self, batch: IngestBatch, validation: BatchValidation
    ) -> None:
        if self._hooks.append_fault is not None:
            self._hooks.append_fault(batch)
        # append can trigger a compaction (manifest read + columnar
        # rewrite): real file I/O, so it runs off the event loop.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.live.append, validation.dataset)
        self.metrics.compactions = self.live.compactions

    def _count_retry(
        self, attempt: int, error: BaseException, delay: float
    ) -> None:
        self.metrics.retries += 1

    async def _dead_letter(
        self, batch: IngestBatch, reason: str, error: str
    ) -> None:
        # Counters first (on-loop, so the accounting invariant holds even
        # if the parking write below fails); the durable put does disk
        # I/O and runs in the executor.
        self.metrics.batches_dead_lettered += 1
        self.metrics.tickets_dead_lettered += len(batch.records)
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(
                None, self.dead_letters.put,
                batch.source, batch.records, reason, error,
            )
        except Exception:  # the parking lot itself failed: keep in memory
            self.dead_letter_failures.append(batch)

    async def replay_dead_letters(self, *, drop: bool = True) -> int:
        """Re-submit every parked batch through the full pipeline (after
        a loader fix or a threshold change); still-poison batches simply
        land back in the dead-letter store.  Returns the number of
        batches replayed; with ``drop`` the replayed entries are removed
        from the store first, so re-parked batches are not duplicated."""
        replayed = 0
        loop = asyncio.get_running_loop()
        parked = await loop.run_in_executor(
            None, lambda: list(self.dead_letters.iter_batches())
        )
        for entry, records in parked:
            if drop:
                await loop.run_in_executor(
                    None, self.dead_letters.remove, entry.seq
                )
            await self.submit_wait(entry.source, records)
            self.metrics.batches_replayed += 1
            replayed += 1
        return replayed

    async def _refresh(self, loop: "asyncio.AbstractEventLoop") -> None:
        """Recompute the headline report over the live snapshot through
        the analysis cache (off the event loop; ``current()`` may compact
        pending batches — file I/O — so it runs in the executor too; the
        single worker task means no other appender can race it)."""
        snapshot = await loop.run_in_executor(None, self.live.current)
        self.metrics.compactions = self.live.compactions
        started = time.perf_counter()
        cpu0 = time.process_time()
        await loop.run_in_executor(
            None,
            lambda: full_report(snapshot, cache=self.cache, headline_only=True),
        )
        self.last_refresh_seconds = time.perf_counter() - started
        self.metrics.refreshes += 1
        self.telemetry.record(
            RunTelemetry(
                kind=KIND_REPORT,
                stages=(
                    StageTiming(
                        name="refresh",
                        wall_seconds=self.last_refresh_seconds,
                        cpu_seconds=time.process_time() - cpu0,
                    ),
                ),
                cache=self.cache.stats.as_dict(),
            )
        )

    # ------------------------------------------------------------------
    # observability surface
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        """The ``/metrics`` document."""
        self.metrics.compactions = self.live.compactions
        return {
            "counters": self.metrics.snapshot(),
            "queue": self.queue.snapshot(),
            "breakers": self.breakers.states(),
            "live": {
                "tickets": len(self.live),
                "pending_batches": self.live.pending_batches,
                "compactions": self.live.compactions,
            },
            "dead_letter": {
                "count": len(self.dead_letters),
                "by_reason": self.dead_letters.counts_by_reason(),
                "write_failures": len(self.dead_letter_failures),
            },
            "cache": self.cache.stats.as_dict(),
            "execution": (
                self.telemetry.last.to_dict()
                if self.telemetry.last is not None
                else None
            ),
        }

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` document."""
        return self.metrics.health(
            queue_depth=self.queue.depth,
            queue_capacity=self.queue.high_watermark,
            open_breakers=self.breakers.states(),
        )


__all__ = ["IngestBatch", "SubmitReceipt", "IngestRouter"]
