"""XCluster core: the synopsis model, construction, and estimation.

This package implements the paper's primary contribution:

* :mod:`repro.core.synopsis` — the type-respecting node-partitioning
  graph-synopsis model with element counts, average per-edge child
  counters, and per-node value summaries (Definition 3.1);
* :mod:`repro.core.reference` — the detailed reference synopsis (a
  path-respecting count-stable refinement, Section 4.3);
* :mod:`repro.core.distance` — the localized Δ(S, S′) structure-value
  clustering error metric over atomic query paths (Section 4.1);
* :mod:`repro.core.scoring` — the vectorized candidate-scoring engine
  (per-node selectivity profiles and factored child moments);
* :mod:`repro.core.builder` — the two-phase XCLUSTERBUILD algorithm
  (structure-value merge with a marginal-loss candidate pool, then
  value-summary compression; Figures 5 and 6);
* :mod:`repro.core.estimation` — embedding-based twig selectivity
  estimation under generalized Path-Value Independence (Section 5),
  compiled into twig plans over synopsis-level transition/reach indexes
  with cross-query caching, batched workload serving, and the
  ``EstimatorStats`` observability layer;
* :mod:`repro.core.explain` — per-embedding breakdowns of an estimate;
* :mod:`repro.core.sizing` — byte-accurate storage accounting;
* :mod:`repro.core.baselines` — tag-only and structure-only summaries
  plus naive merge policies used by the ablation benchmarks.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "repro.core.synopsis": ("SynopsisNode", "XClusterSynopsis"),
        "repro.core.reference": (
            "build_reference_synopsis",
            "build_tag_synopsis",
        ),
        "repro.core.distance": ("merge_delta", "compression_delta"),
        "repro.core.scoring": ("ScoringEngine", "SelectivityProfile"),
        "repro.core.builder": (
            "BuildConfig",
            "BuildStats",
            "XClusterBuilder",
            "build_xcluster",
        ),
        "repro.core.approximate": (
            "DocumentSynthesizer",
            "synthesize_document",
        ),
        "repro.core.autobudget": (
            "AutoBudgetResult",
            "allocate_budget",
            "build_xcluster_auto",
        ),
        "repro.core.estimation.engine": (
            "CompiledEstimator",
            "EstimatorStats",
            "estimate_selectivity",
        ),
        "repro.core.estimation.indexes": ("SynopsisIndex",),
        "repro.core.estimation.plan": ("CompiledPlan",),
        "repro.core.estimation.serving": (
            "WorkloadEstimator",
            "estimate_many",
        ),
        "repro.core.explain": ("EstimateExplanation", "explain"),
        "repro.errors": ("SynopsisFormatError",),
        "repro.core.serialization": (
            "load_synopsis",
            "save_synopsis",
            "synopsis_from_dict",
            "synopsis_to_dict",
        ),
        "repro.core.snapshot": (
            "SNAPSHOT_MAGIC",
            "is_snapshot",
            "load_snapshot",
            "save_snapshot",
            "snapshot_to_bytes",
            "synopsis_from_snapshot",
        ),
        "repro.core.sizing": (
            "structural_size_bytes",
            "value_size_bytes",
            "total_size_bytes",
        ),
    },
)
