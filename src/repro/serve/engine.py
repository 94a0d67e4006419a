"""The serving core: shared estimator state, plan coalescing, stats.

Three pieces compose the daemon's hot path:

* :class:`ServeEngine` — owns the loaded synopsis and one
  :class:`~repro.core.estimation.serving.WorkloadEstimator`, so every
  request from every user funnels into one plan-signature cache and one
  ``EstimatorStats``.  Plan signatures are name-free and include value
  predicates, which is what makes cross-user sharing sound: two users
  asking structurally identical twigs *with identical predicates* get
  byte-identical plans — and identical estimates.
* :class:`PlanCoalescer` — request coalescing.  In-flight requests are
  keyed by plan signature inside a short dispatch window; structurally
  identical plans collapse onto one representative execution and the
  whole window flushes as a single
  :func:`~repro.core.estimation.serving.estimate_many` batch (which
  shards over the copy-on-write fork pool once batches are large
  enough to amortize it).  Under a repetition-heavy user mix — the
  redbench-style banded workload — most of a window is duplicates, so
  the executed batch is far smaller than the arrival batch.  Flushed
  estimates are remembered per synopsis version, so a repeated plan is
  answered without another execution until the synopsis changes.
* :class:`ServingStats` — latency/throughput observability riding on
  the estimator counters: a bounded reservoir of per-request latencies
  (p50/p99), batch occupancy, coalescing rate, and the cross-user plan
  cache hit rate, all exported by the ``/stats`` endpoint.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from time import perf_counter
from typing import Any, Deque, Dict, List, Optional

from repro.core.estimation import WorkloadEstimator, estimate_many
from repro.core.estimation.engine import CompiledEstimator, EstimatorStats
from repro.core.estimation.plan import PlanSignature, compile_query, twig_of
from repro.core.synopsis import XClusterSynopsis
from repro.query.ast import TwigQuery
from repro.query.jsonast import QueryFormatError, twig_from_dict
from repro.query.xpath import XPathSyntaxError, parse_twig
from repro.update.maintainer import IncrementalMaintainer
from repro.update.ops import UpdateOp

#: Default coalescing window.  Zero means "flush on the next event-loop
#: iteration": every request whose bytes were readable in the same loop
#: tick — i.e. genuinely concurrent arrivals across connections — lands
#: in one batch, while a lone sequential client pays no added latency.
#: Raise it to trade tail latency for bigger batches.
DEFAULT_WINDOW_SECONDS = 0.0

#: Default cap on distinct plans per dispatched batch.
DEFAULT_MAX_BATCH = 64

#: Latency reservoir size: enough for stable p99 at serving rates
#: without unbounded growth on a long-lived daemon.
LATENCY_WINDOW = 8192

#: Cap on the coalescer's estimate memo: distinct plan signatures
#: remembered for the current synopsis version (oldest dropped first).
ESTIMATE_MEMO_ENTRIES = 16384


class ServingStats:
    """Latency/throughput counters layered over ``EstimatorStats``.

    Latencies are kept in a bounded reservoir (the most recent
    :data:`LATENCY_WINDOW` requests), so percentiles track current
    behaviour on a long-lived daemon rather than averaging over its
    whole life.
    """

    def __init__(
        self, estimator_stats: EstimatorStats, window: int = LATENCY_WINDOW
    ) -> None:
        self.estimator_stats = estimator_stats
        self._latencies: Deque[float] = deque(maxlen=window)
        self.requests_total = 0
        #: Requests absorbed by an already in-flight identical plan.
        self.coalesced_requests = 0
        #: Dispatches to ``estimate_many`` and what they carried.
        self.batches_dispatched = 0
        self.batched_requests_total = 0
        self.batched_plans_total = 0
        self.errors = 0
        self._started = perf_counter()

    def observe_latency(self, seconds: float) -> None:
        """Record one served request's wall-clock latency, in seconds."""
        self._latencies.append(seconds)
        self.requests_total += 1

    def record_batch(self, requests: int, plans: int) -> None:
        """Record one dispatched batch: requests served and distinct plans."""
        self.batches_dispatched += 1
        self.batched_requests_total += requests
        self.batched_plans_total += plans

    def latency_percentile(self, percentile: float) -> float:
        """The given percentile (in [0, 100]) of recent latencies, seconds."""
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        rank = max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)
        return ordered[min(rank, len(ordered) - 1)]

    @property
    def p50_ms(self) -> float:
        return self.latency_percentile(50.0) * 1000.0

    @property
    def p99_ms(self) -> float:
        return self.latency_percentile(99.0) * 1000.0

    @property
    def mean_batch_occupancy(self) -> float:
        """Mean requests carried per dispatched batch (≥ 1 when busy)."""
        if not self.batches_dispatched:
            return 0.0
        return self.batched_requests_total / self.batches_dispatched

    @property
    def coalesce_rate(self) -> float:
        """Fraction of requests that rode an in-flight identical plan."""
        if not self.requests_total:
            return 0.0
        return self.coalesced_requests / self.requests_total

    @property
    def uptime_seconds(self) -> float:
        return perf_counter() - self._started

    def snapshot(self) -> Dict[str, Any]:
        """The ``/stats`` payload: serving + estimator counters."""
        estimator = self.estimator_stats
        return {
            "requests_total": self.requests_total,
            "errors": self.errors,
            "uptime_seconds": self.uptime_seconds,
            "latency": {
                "p50_ms": self.p50_ms,
                "p99_ms": self.p99_ms,
                "window": len(self._latencies),
            },
            "coalescing": {
                "coalesced_requests": self.coalesced_requests,
                "coalesce_rate": self.coalesce_rate,
                "batches_dispatched": self.batches_dispatched,
                "mean_batch_occupancy": self.mean_batch_occupancy,
                "batched_plans_total": self.batched_plans_total,
            },
            "estimator": {
                "queries_estimated": estimator.queries_estimated,
                "plans_compiled": estimator.plans_compiled,
                "plan_cache_hits": estimator.plan_cache_hits,
                "plan_cache_hit_rate": estimator.plan_cache_hit_rate,
                "reach_cache_hit_rate": estimator.reach_cache_hit_rate,
                "selectivity_cache_hit_rate": estimator.selectivity_cache_hit_rate,
                "workers_used": estimator.workers_used,
            },
        }


class ServeEngine:
    """One loaded synopsis plus the shared estimation state serving it.

    All users of a synopsis share one ``WorkloadEstimator`` — its plan
    cache and stats object — so a plan compiled for one user is a cache
    hit for every later user asking the same shape, which is exactly
    the structure a repetition-banded workload rewards.
    """

    def __init__(
        self,
        synopsis: Optional[XClusterSynopsis] = None,
        workers: int = 1,
        max_path_length: int = 40,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
        maintainer: Optional[IncrementalMaintainer] = None,
    ) -> None:
        if (synopsis is None) == (maintainer is None):
            raise ValueError(
                "ServeEngine needs exactly one of a synopsis or a maintainer"
            )
        self.maintainer = maintainer
        # A maintainer-backed engine serves the maintainer's live
        # synopsis; grafts preserve object identity, so this binding
        # (and every derived cache, through the version protocol) stays
        # valid across ``/update`` batches.
        self.synopsis = synopsis if maintainer is None else maintainer.synopsis
        self.workers = max(1, workers)
        self.max_path_length = max_path_length
        self.workload = WorkloadEstimator([], max_path_length)
        self.stats = ServingStats(self.workload.stats)
        self.coalescer = PlanCoalescer(
            self, window_seconds=window_seconds, max_batch=max_batch
        )

    @property
    def estimator(self) -> CompiledEstimator:
        """The shared compiled estimator bound to the loaded synopsis."""
        return self.workload.estimator_for(self.synopsis)

    def apply_updates(self, ops: List[UpdateOp]) -> List[Dict[str, Any]]:
        """Apply a document-update batch through the live maintainer.

        Returns one result dict per applied op.  Raises ``ValueError``
        when the engine serves a static synopsis (no maintainer) or
        when an op is invalid against the current document — earlier
        ops in the batch stay applied, and the synopsis version has
        already advanced past them, so serving state remains coherent.
        """
        if self.maintainer is None:
            raise ValueError(
                "this engine serves a static synopsis; restart it from a "
                "document to accept updates"
            )
        results = []
        for op in ops:
            results.append(self.maintainer.apply(op))
        return results

    def plan_signature(self, query: TwigQuery) -> PlanSignature:
        """The plan signature of ``query``, compiled through the shared
        plan cache (so the lookup counts in the estimator's stats)."""
        return self.estimator.compile(query).signature

    def parse_request_query(self, payload: Dict[str, Any]) -> TwigQuery:
        """A twig from a request body: ``query`` (XPath) or ``ast``.

        Raises ``ValueError`` subclasses (``XPathSyntaxError`` /
        ``QueryFormatError``) on malformed input; the HTTP layer maps
        those to 400 responses.
        """
        if not isinstance(payload, dict):
            raise QueryFormatError("request body must be a JSON object")
        text = payload.get("query")
        ast = payload.get("ast")
        if (text is None) == (ast is None):
            raise QueryFormatError(
                "request needs exactly one of 'query' (XPath) or 'ast' (JSON AST)"
            )
        if text is not None:
            if not isinstance(text, str):
                raise QueryFormatError("'query' must be an XPath string")
            return parse_twig(text)
        return twig_from_dict(ast)

    def estimate_batch(self, queries: List[TwigQuery]) -> List[float]:
        """Synchronously estimate a batch through the shared state.

        Large batches shard over the process pool (fork children share
        the loaded snapshot pages copy-on-write); small ones execute
        in-process against the shared caches.
        """
        return estimate_many(
            self.synopsis,
            queries,
            workers=self.workers,
            max_path_length=self.max_path_length,
            estimator=self.estimator,
        )

    async def estimate(
        self, query: Optional[TwigQuery], signature: Optional[PlanSignature] = None
    ) -> float:
        """Estimate one request through the coalescer, recording latency.

        ``signature`` is ``query``'s plan signature when the caller
        already has it (the HTTP request memo does); only such a request
        can be answered from the coalescer's estimate memo, and its
        ``query`` may be ``None`` (see :meth:`PlanCoalescer.submit`).
        """
        started = perf_counter()
        try:
            value = await self.coalescer.submit(query, signature)
        except Exception:
            self.stats.errors += 1
            raise
        self.stats.observe_latency(perf_counter() - started)
        return value

    def stats_snapshot(self) -> Dict[str, Any]:
        """A point-in-time copy of the serving counters (see ``/stats``)."""
        snapshot = self.stats.snapshot()
        snapshot["memo"] = {"estimates": self.coalescer.memo_snapshot()}
        if self.maintainer is not None:
            maintenance = self.maintainer.stats.snapshot()
            maintenance["synopsis_version"] = self.synopsis.version
            maintenance["document_elements"] = len(self.maintainer.doc)
            snapshot["maintenance"] = maintenance
        return snapshot


class _PendingPlan:
    """One distinct in-flight plan and every request waiting on it."""

    __slots__ = ("query", "futures")

    def __init__(self, query: TwigQuery) -> None:
        self.query = query
        self.futures: List["asyncio.Future[float]"] = []


class PlanCoalescer:
    """Coalesce structurally identical in-flight plans into one batch.

    Requests submitted inside one dispatch window are grouped by plan
    signature; each signature is estimated once and its result fans out
    to every waiting future.  The window flushes after
    ``window_seconds`` or as soon as ``max_batch`` distinct plans are
    pending, whichever comes first.  All state is touched only from the
    event loop, so no locking is needed.

    Every flushed estimate is also remembered, keyed by plan signature,
    for the current ``engine.synopsis.version``: an estimate is a pure
    function of the synopsis and the plan, so a later request that
    brings the same signature returns the remembered float without a
    future, a loop turn, or a batch.  The memo is dropped whenever the
    version changes and holds at most :data:`ESTIMATE_MEMO_ENTRIES`
    signatures.
    This relies on every synopsis mutation bumping the version —
    :meth:`~repro.update.maintainer.IncrementalMaintainer.apply` does so
    after every op, including the summary-local ``ValueChange`` path
    that swaps a value summary in place.  The memo deliberately does not
    live in :class:`~repro.core.estimation.indexes.SynopsisIndex`: that
    index tolerates summary swaps that leave the version alone (its
    selectivity cache keys on the summary object), which a
    signature-keyed estimate cannot.
    """

    def __init__(
        self,
        engine: ServeEngine,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        self._engine = engine
        self._window = window_seconds
        self._max_batch = max_batch
        self._pending: Dict[PlanSignature, _PendingPlan] = {}
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._memo: Dict[PlanSignature, float] = {}
        self._memo_version: Optional[int] = None
        #: Requests answered from the estimate memo.
        self.memo_hits = 0

    @property
    def pending_plans(self) -> int:
        return len(self._pending)

    def memo_snapshot(self) -> Dict[str, int]:
        """Estimate-memo counters for ``/stats``."""
        return {"hits": self.memo_hits, "entries": len(self._memo)}

    def _current_memo(self) -> Dict[PlanSignature, float]:
        """The estimate memo, emptied first if the synopsis version moved."""
        version = self._engine.synopsis.version
        if version != self._memo_version:
            self._memo = {}
            self._memo_version = version
        return self._memo

    def remembered(self, signature: PlanSignature) -> Optional[float]:
        """The estimate memo's float for ``signature`` at the current
        synopsis version, counted as a hit; None on a miss."""
        estimate = self._current_memo().get(signature)
        if estimate is not None:
            self.memo_hits += 1
        return estimate

    async def submit(
        self, query: Optional[TwigQuery], signature: Optional[PlanSignature] = None
    ) -> float:
        """The estimate of ``query``, awaited from the next dispatched
        batch and coalesced with signature-identical in-flight plans.

        ``signature`` is ``query``'s plan signature when the caller has
        it, as the HTTP request memo does; only then is the estimate
        memo read first, and ``query`` may be ``None``: on a miss the
        twig is rebuilt from the signature (:func:`twig_of`), which
        estimates exactly alike.  Without a signature the query is
        compiled for one and always reaches ``engine.estimate_batch``,
        so an in-process caller sees every estimate executed, as before
        the memo existed.
        """
        if signature is None:
            signature = compile_query(query).signature
        else:
            estimate = self.remembered(signature)
            if estimate is not None:
                return estimate
        return await self.enqueue(query, signature)

    def enqueue(
        self, query: Optional[TwigQuery], signature: PlanSignature
    ) -> "asyncio.Future[float]":
        """A future of the estimate of ``signature``'s plan (``query``,
        or a twig rebuilt from the signature), reading no memo."""
        if query is None:
            query = twig_of(signature)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[float]" = loop.create_future()
        pending = self._pending.get(signature)
        if pending is None:
            pending = _PendingPlan(query)
            self._pending[signature] = pending
        else:
            self._engine.stats.coalesced_requests += 1
        pending.futures.append(future)
        if len(self._pending) >= self._max_batch:
            self.flush()
        elif self._flush_handle is None:
            self._flush_handle = loop.call_later(self._window, self.flush)
        return future

    def flush(self) -> None:
        """Dispatch everything pending as one ``estimate_many`` batch."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        pending = self._pending
        if not pending:
            return
        self._pending = {}
        plans = list(pending.values())
        requests = sum(len(plan.futures) for plan in plans)
        try:
            estimates = self._engine.estimate_batch(
                [plan.query for plan in plans]
            )
        except Exception as err:  # pragma: no cover - estimator is total
            for plan in plans:
                for future in plan.futures:
                    if not future.done():
                        future.set_exception(err)
            return
        self._engine.stats.record_batch(requests, len(plans))
        memo = self._current_memo()
        for (signature, plan), estimate in zip(pending.items(), estimates):
            memo[signature] = estimate
            if len(memo) > ESTIMATE_MEMO_ENTRIES:
                del memo[next(iter(memo))]
            for future in plan.futures:
                if not future.done():
                    future.set_result(estimate)
