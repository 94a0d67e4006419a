"""Collection-backed serving engine (``repro serve --collection``).

Implements the same engine surface :mod:`repro.serve.http` dispatches
against — ``parse_request_query`` / ``plan_signature`` / ``estimate`` /
``estimate_batch`` / ``stats_snapshot`` / a
:class:`~repro.serve.engine.PlanCoalescer` — but backed by a
:class:`~repro.collection.store.CollectionStore` instead of one loaded
synopsis:

* ``/estimate`` with a ``"doc"`` key routes to the document's own
  payload synopsis (shard by id hash, payload by content hash) through
  the store's LRU of open mmaps;
* ``/estimate`` without ``"doc"`` is collection-wide: the exact
  multiplicity-weighted sum over every payload, coalesced, batched and
  remembered in the estimate memo exactly like single-synopsis serving
  (the store's single shared plan cache makes one compiled twig serve
  all shards);
* ``"scope": "rollup"`` answers from the merged rollup synopsis
  without touching any shard — the cheap approximate path;
* ``/update`` is rejected: a collection directory is rebuilt or
  rebalanced offline, not mutated in place.

Latency and throughput ride the same :class:`ServingStats` as the
single-synopsis daemon, with the store's own counters (LRU hit rates,
per-shard budgets) nested under ``"collection"`` in ``/stats``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List

from repro.collection.store import CollectionStore
from repro.core.estimation.plan import PlanSignature, compile_query
from repro.query.ast import TwigQuery
from repro.serve.engine import (
    DEFAULT_MAX_BATCH,
    DEFAULT_WINDOW_SECONDS,
    PlanCoalescer,
    ServeEngine,
    ServingStats,
)


class _ReadOnlyVersion:
    """The ``engine.synopsis`` facade: just a manifest version number."""

    __slots__ = ("version",)

    def __init__(self, version: int) -> None:
        self.version = version


class CollectionServeEngine:
    """Serve ``/estimate`` traffic for a whole collection directory."""

    def __init__(
        self,
        store: CollectionStore,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        self.store = store
        self.synopsis = _ReadOnlyVersion(store.manifest.version)
        self.stats = ServingStats(store.stats)
        self.coalescer = PlanCoalescer(
            self, window_seconds=window_seconds, max_batch=max_batch
        )

    # The request-body grammar and the coalesced request path are those
    # of single-synopsis serving (and read only ``coalescer`` and
    # ``stats``), so share them.
    parse_request_query = ServeEngine.parse_request_query
    estimate = ServeEngine.estimate

    def apply_updates(self, ops: List[Any]) -> List[Dict[str, Any]]:
        """Reject updates: collection stores are served read-only."""
        raise ValueError(
            "a collection store is read-only; rebuild or rebalance the "
            "directory with `repro collection` instead of POST /update"
        )

    def plan_signature(self, query: TwigQuery) -> PlanSignature:
        """The plan signature of ``query`` (the estimate-memo key)."""
        return compile_query(query).signature

    def estimate_batch(self, queries: List[TwigQuery]) -> List[float]:
        """Collection-wide exact sums for one coalesced batch."""
        return [self.store.estimate_collection(query) for query in queries]

    async def estimate_doc(self, doc_id: str, query: TwigQuery) -> float:
        """One document-routed request (raises ``KeyError`` if unknown)."""
        started = perf_counter()
        try:
            value = self.store.estimate(doc_id, query)
        except KeyError:
            self.stats.errors += 1
            raise
        self.stats.observe_latency(perf_counter() - started)
        return value

    async def estimate_rollup(self, query: TwigQuery) -> float:
        """One request against the merged rollup synopsis."""
        started = perf_counter()
        value = self.store.estimate_rollup(query)
        self.stats.observe_latency(perf_counter() - started)
        return value

    def stats_snapshot(self) -> Dict[str, Any]:
        """Serving stats plus a nested ``collection`` store section."""
        snapshot = self.stats.snapshot()
        snapshot["memo"] = {"estimates": self.coalescer.memo_snapshot()}
        snapshot["collection"] = self.store.stats_snapshot()
        return snapshot


__all__ = ["CollectionServeEngine"]
