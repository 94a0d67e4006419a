"""Compiled twig-plan estimation: query serving at workload scale.

Estimation enumerates *query embeddings* — assignments of query
variables to synopsis nodes satisfying the structural and value
constraints — and sums their selectivities (paper Section 5), folded
into a memoized sum-product: for each query variable bound to a synopsis
node, the expected number of binding tuples multiplies across branches
and sums across the synopsis nodes each branch can embed into.  The
generalized **Path-Value Independence** assumption approximates the
selectivity of a path ``u[p]/c`` as ``|u| · σ_p(u) · count(u, c)``.
Descendant-axis counts are path-count sums over the synopsis graph,
capped at ``max_path_length`` because merges can introduce cycles.

This package splits that estimation into a query-side compile step and
a synopsis-side lookup layer so a workload is served from tables:

* :mod:`repro.core.estimation.plan` — :class:`CompiledPlan`: stable
  variable indexes, canonical edge keys, cross-query plan signatures;
* :mod:`repro.core.estimation.indexes` — :class:`SynopsisIndex`: the
  shared label index, per-(source, axis, label-test) transition rows,
  descendant closures, memoized reach frontiers, and the selectivity
  cache, with version-checked invalidation on synopsis mutation;
* :mod:`repro.core.estimation.engine` — :class:`CompiledEstimator`,
  the one-shot :func:`estimate_selectivity`, and the
  :class:`EstimatorStats` observability layer (compile/execute timers,
  cache hit rates, frontier telemetry);
* :mod:`repro.core.estimation.serving` — :func:`estimate_many` and
  :class:`WorkloadEstimator`: batched in-process serving through warm
  shared caches, and compile-once retargeting across synopses.

The compiled path is a bit-exact replay of the scalar sum-product of
the oracle :class:`repro.check.oracles.XClusterEstimator` (parity is
pinned by ``tests/test_estimation.py`` and the differential harness).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "repro.core.estimation.engine": (
            "CompiledEstimator",
            "EstimatorStats",
            "PlanCache",
            "estimate_selectivity",
        ),
        "repro.core.estimation.indexes": (
            "VIRTUAL_ROOT",
            "EdgeKey",
            "SynopsisIndex",
            "TransitionRow",
            "shared_index",
        ),
        "repro.core.estimation.plan": (
            "CompiledPlan",
            "PlanSignature",
            "PlanVariable",
            "compile_query",
            "edge_key_of",
            "twig_of",
            "variable_order",
        ),
        "repro.core.estimation.serving": (
            "WorkloadEstimator",
            "estimate_many",
        ),
    },
)
