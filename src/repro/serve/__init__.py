"""The always-on synopsis serving tier (``python -m repro serve``).

A built synopsis is tiny next to its document — the paper's premise is
that it stays resident and answers selectivity questions for everyone.
This package makes that literal:

* :mod:`repro.serve.engine` — the serving core: one shared
  :class:`~repro.core.estimation.serving.WorkloadEstimator` per loaded
  synopsis (so the cross-query plan cache is shared across *users*),
  coalescing of structurally identical in-flight plans into a single
  batched dispatch, and latency/throughput observability riding on
  ``EstimatorStats``;
* :mod:`repro.serve.http` — a dependency-free asyncio HTTP front end
  accepting twig queries as XPath-subset text or JSON AST
  (:mod:`repro.query.jsonast`), with ``/stats`` exposing the serving
  counters.

Snapshots (:mod:`repro.core.snapshot`) are the intended cold-start
path: load is mmap-backed and lazy.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "repro.serve.collection": ("CollectionServeEngine",),
        "repro.serve.engine": ("PlanCoalescer", "ServeEngine", "ServingStats"),
        "repro.serve.http": ("ServeClient", "SynopsisServer", "run_server"),
    },
)
