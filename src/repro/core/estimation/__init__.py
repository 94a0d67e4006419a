"""Compiled twig-plan estimation: query serving at workload scale.

The scalar :class:`~repro.core.estimator.XClusterEstimator` walks the
synopsis afresh for every query.  This package splits estimation into a
query-side compile step and a synopsis-side lookup layer so a workload
is served from tables:

* :mod:`repro.core.estimation.plan` — :class:`CompiledPlan`: stable
  variable indexes, canonical edge keys, cross-query plan signatures;
* :mod:`repro.core.estimation.indexes` — :class:`SynopsisIndex`: the
  shared label index, per-(source, axis, label-test) transition rows,
  descendant closures, memoized reach frontiers, and the selectivity
  cache, with version-checked invalidation on synopsis mutation;
* :mod:`repro.core.estimation.engine` — :class:`CompiledEstimator` and
  the :class:`EstimatorStats` observability layer (compile/execute
  timers, cache hit rates, frontier telemetry);
* :mod:`repro.core.estimation.serving` — :func:`estimate_many` and
  :class:`WorkloadEstimator`: batched in-process serving through warm
  shared caches, and compile-once retargeting across synopses.

The compiled path is a bit-exact replay of the scalar sum-product (the
scalar estimator stays as the reference oracle; parity is pinned at
1e-9 by ``tests/test_estimation.py``).
"""

from repro.core.estimation.engine import (
    CompiledEstimator,
    EstimatorStats,
    PlanCache,
)
from repro.core.estimation.indexes import (
    EdgeKey,
    SynopsisIndex,
    TransitionRow,
    shared_index,
)
from repro.core.estimation.plan import (
    CompiledPlan,
    PlanSignature,
    PlanVariable,
    compile_query,
    edge_key_of,
    twig_of,
)
from repro.core.estimation.serving import WorkloadEstimator, estimate_many

__all__ = [
    "CompiledEstimator",
    "CompiledPlan",
    "EstimatorStats",
    "EdgeKey",
    "PlanCache",
    "PlanSignature",
    "PlanVariable",
    "SynopsisIndex",
    "TransitionRow",
    "WorkloadEstimator",
    "compile_query",
    "edge_key_of",
    "estimate_many",
    "shared_index",
    "twig_of",
]
