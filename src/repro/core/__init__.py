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

from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.core.reference import build_reference_synopsis, build_tag_synopsis
from repro.core.distance import merge_delta, compression_delta
from repro.core.scoring import ScoringEngine, SelectivityProfile
from repro.core.builder import BuildConfig, BuildStats, XClusterBuilder, build_xcluster
from repro.core.approximate import DocumentSynthesizer, synthesize_document
from repro.core.autobudget import (
    AutoBudgetResult,
    allocate_budget,
    build_xcluster_auto,
)
from repro.core.estimation import (
    CompiledEstimator,
    CompiledPlan,
    EstimatorStats,
    SynopsisIndex,
    WorkloadEstimator,
    estimate_many,
    estimate_selectivity,
)
from repro.core.explain import EstimateExplanation, explain
from repro.core.serialization import (
    SynopsisFormatError,
    load_synopsis,
    save_synopsis,
    synopsis_from_dict,
    synopsis_to_dict,
)
from repro.core.snapshot import (
    SNAPSHOT_MAGIC,
    is_snapshot,
    load_snapshot,
    save_snapshot,
    snapshot_to_bytes,
    synopsis_from_snapshot,
)
from repro.core.sizing import structural_size_bytes, value_size_bytes, total_size_bytes

__all__ = [
    "SynopsisNode",
    "XClusterSynopsis",
    "build_reference_synopsis",
    "build_tag_synopsis",
    "merge_delta",
    "compression_delta",
    "ScoringEngine",
    "SelectivityProfile",
    "BuildConfig",
    "BuildStats",
    "XClusterBuilder",
    "build_xcluster",
    "estimate_selectivity",
    "CompiledEstimator",
    "CompiledPlan",
    "EstimatorStats",
    "SynopsisIndex",
    "WorkloadEstimator",
    "estimate_many",
    "DocumentSynthesizer",
    "synthesize_document",
    "EstimateExplanation",
    "explain",
    "AutoBudgetResult",
    "allocate_budget",
    "build_xcluster_auto",
    "SynopsisFormatError",
    "save_synopsis",
    "load_synopsis",
    "synopsis_to_dict",
    "synopsis_from_dict",
    "SNAPSHOT_MAGIC",
    "is_snapshot",
    "save_snapshot",
    "load_snapshot",
    "snapshot_to_bytes",
    "synopsis_from_snapshot",
    "structural_size_bytes",
    "value_size_bytes",
    "total_size_bytes",
]
