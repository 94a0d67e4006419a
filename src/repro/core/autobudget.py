"""Automatic B_str / B_val allocation from a unified space budget.

The paper (Section 4.3) leaves open how to split a single total budget
``B`` between structure and values, suggesting "a binary search in the
range of possible Bstr/Bval ratios, based on the observed estimation
error on a sample workload".  This module implements exactly that: a
coarse ratio grid followed by a golden-section-style refinement around
the best point, scoring each candidate synopsis on a caller-supplied
sample of (query, exact count) pairs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.estimation import WorkloadEstimator
from repro.core.reference import LabelPath, build_reference_synopsis
from repro.core.synopsis import XClusterSynopsis
from repro.query.ast import TwigQuery
from repro.xmltree.columnar import Document

#: A sample workload: (query, exact selectivity) pairs.
SamplePair = Tuple[TwigQuery, int]

#: Ratio grid for the coarse pass (structural share of the total budget).
DEFAULT_RATIO_GRID = (0.02, 0.05, 0.1, 0.2, 0.35, 0.5)


@dataclass
class AutoBudgetResult:
    """Outcome of the automatic allocation search.

    Attributes:
        synopsis: the best synopsis found.
        structural_budget: the chosen ``B_str`` in bytes.
        value_budget: the chosen ``B_val`` in bytes.
        ratio: the structural share ``B_str / B``.
        error: the sample-workload error of the chosen synopsis.
        trials: every (ratio, error) pair evaluated, in evaluation order.
    """

    synopsis: XClusterSynopsis
    structural_budget: int
    value_budget: int
    ratio: float
    error: float
    trials: List[Tuple[float, float]]


def _sample_error(
    synopsis: XClusterSynopsis,
    sample: Sequence[SamplePair],
    workload_estimator: Optional[WorkloadEstimator] = None,
) -> float:
    """Average absolute relative error with the 10-percentile bound.

    A caller-held :class:`WorkloadEstimator` carries the compiled query
    plans across trial synopses — the ratio search scores the same
    sample against a dozen candidates, so only the per-synopsis indexes
    are rebuilt per trial.
    """
    counts = sorted(exact for _, exact in sample)
    index = max(0, (len(counts) + 9) // 10 - 1)
    bound = float(max(1, counts[index]))
    if workload_estimator is None:
        workload_estimator = WorkloadEstimator([query for query, _ in sample])
    estimates = workload_estimator.estimate_all(synopsis)
    total = 0.0
    for (_, exact), estimate in zip(sample, estimates):
        total += abs(exact - estimate) / max(exact, bound)
    return total / len(sample)


def allocate_budget(
    reference: XClusterSynopsis,
    total_budget: int,
    sample: Sequence[SamplePair],
    config: Optional[BuildConfig] = None,
    ratio_grid: Sequence[float] = DEFAULT_RATIO_GRID,
    refine_steps: int = 2,
) -> AutoBudgetResult:
    """Search the B_str/B_val split minimizing sample-workload error.

    Args:
        reference: the detailed reference synopsis (never mutated).
        total_budget: the unified budget ``B`` in bytes.
        sample: the observation workload (query, exact) pairs.
        config: builder knobs (budgets are overwritten per trial).
        ratio_grid: coarse structural-share candidates.
        refine_steps: bisection refinements around the coarse winner.

    Returns:
        The best synopsis with its chosen split and the trial history.
    """
    if total_budget <= 0:
        raise ValueError("total_budget must be positive")
    if not sample:
        raise ValueError("the sample workload must not be empty")
    config = config if config is not None else BuildConfig()

    trials: List[Tuple[float, float]] = []
    evaluated = {}
    workload_estimator = WorkloadEstimator([query for query, _ in sample])

    def evaluate(ratio: float):
        ratio = min(0.95, max(0.005, ratio))
        key = round(ratio, 4)
        if key in evaluated:
            return evaluated[key]
        synopsis = copy.deepcopy(reference)
        trial_config = copy.copy(config)
        trial_config.structural_budget = max(1, int(total_budget * ratio))
        trial_config.value_budget = max(1, total_budget - trial_config.structural_budget)
        XClusterBuilder(trial_config).compress(synopsis)
        error = _sample_error(synopsis, sample, workload_estimator)
        evaluated[key] = (error, synopsis, trial_config)
        trials.append((key, error))
        return evaluated[key]

    ratios = sorted(ratio_grid)
    results = [(evaluate(ratio)[0], ratio) for ratio in ratios]
    _, best_ratio = min(results)

    # Bisect toward the better neighbor of the coarse winner.
    position = ratios.index(best_ratio)
    low = ratios[max(0, position - 1)]
    high = ratios[min(len(ratios) - 1, position + 1)]
    for _ in range(refine_steps):
        for candidate in ((low + best_ratio) / 2, (best_ratio + high) / 2):
            error, _, _ = evaluate(candidate)
            if error < evaluated[round(best_ratio, 4)][0]:
                low, high = min(best_ratio, candidate), max(best_ratio, candidate)
                best_ratio = candidate

    best_error, best_synopsis, best_config = evaluated[round(best_ratio, 4)]
    return AutoBudgetResult(
        synopsis=best_synopsis,
        structural_budget=best_config.structural_budget,
        value_budget=best_config.value_budget,
        ratio=round(best_ratio, 4),
        error=best_error,
        trials=trials,
    )


def build_xcluster_auto(
    document: Document,
    total_budget: int,
    sample: Sequence[SamplePair],
    value_paths: Optional[Sequence[LabelPath]] = None,
    config: Optional[BuildConfig] = None,
) -> AutoBudgetResult:
    """One-call automatic construction from a unified budget."""
    config = config if config is not None else BuildConfig()
    reference = build_reference_synopsis(document, value_paths, config.summary)
    return allocate_budget(reference, total_budget, sample, config)
