"""The paper's evaluation metric (Section 6.1, "Evaluation Metric").

Accuracy is the *average absolute relative error* of result estimates:
for a query with true size ``c`` and estimate ``e``, the error is
``|c - e| / max(c, s)`` where the sanity bound ``s`` is the
10-percentile of the true counts in the workload (so 90% of queries have
true size at least ``s``, and tiny counts cannot dominate the average).

:func:`evaluate_synopsis` scores a synopsis over a classified workload
and returns an :class:`ErrorReport` with the Overall number plus the
per-class breakdown of Figure 8 and the low-count absolute errors of
Figure 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.estimation import estimate_many
from repro.core.synopsis import XClusterSynopsis
from repro.workload.generator import QueryClass, Workload, WorkloadQuery


def sanity_bound(true_counts: Sequence[int], percentile: float = 0.10) -> float:
    """The ``percentile`` quantile of the true counts (default: 10%)."""
    if not true_counts:
        return 1.0
    ordered = sorted(true_counts)
    index = min(len(ordered) - 1, max(0, math.ceil(percentile * len(ordered)) - 1))
    return float(max(1, ordered[index]))


def absolute_relative_error(true_count: float, estimate: float, bound: float) -> float:
    """``|c - e| / max(c, s)``."""
    return abs(true_count - estimate) / max(true_count, bound)


@dataclass
class ErrorReport:
    """Error breakdown of one synopsis over one workload.

    Attributes:
        overall: average relative error over every query.
        by_class: average relative error per :class:`QueryClass`.
        low_count_absolute: average absolute error of queries whose true
            size falls below the sanity bound, per class (Figure 9).
        low_count_true_mean: average true size of those low-count
            queries, per class.
        bound: the sanity bound used.
        query_count: workload size.
    """

    overall: float
    by_class: Dict[QueryClass, float]
    low_count_absolute: Dict[QueryClass, float]
    low_count_true_mean: Dict[QueryClass, float]
    bound: float
    query_count: int

    def class_error(self, query_class: QueryClass) -> float:
        """Average relative error of one class (NaN when class empty)."""
        return self.by_class.get(query_class, float("nan"))


def evaluate_estimates(
    pairs: Sequence[Tuple[WorkloadQuery, float]],
    bound: Optional[float] = None,
) -> ErrorReport:
    """Score pre-computed (query, estimate) pairs."""
    if not pairs:
        return ErrorReport(float("nan"), {}, {}, {}, 1.0, 0)
    if bound is None:
        bound = sanity_bound([wq.exact for wq, _ in pairs])

    errors: List[float] = []
    class_errors: Dict[QueryClass, List[float]] = {}
    low_absolute: Dict[QueryClass, List[float]] = {}
    low_true: Dict[QueryClass, List[float]] = {}
    for workload_query, estimate in pairs:
        error = absolute_relative_error(workload_query.exact, estimate, bound)
        errors.append(error)
        class_errors.setdefault(workload_query.query_class, []).append(error)
        if workload_query.exact < bound:
            low_absolute.setdefault(workload_query.query_class, []).append(
                abs(workload_query.exact - estimate)
            )
            low_true.setdefault(workload_query.query_class, []).append(
                float(workload_query.exact)
            )

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)

    return ErrorReport(
        overall=mean(errors),
        by_class={cls: mean(values) for cls, values in class_errors.items()},
        low_count_absolute={cls: mean(v) for cls, v in low_absolute.items()},
        low_count_true_mean={cls: mean(v) for cls, v in low_true.items()},
        bound=bound,
        query_count=len(pairs),
    )


def evaluate_synopsis(
    synopsis: XClusterSynopsis,
    workload: Workload,
    bound: Optional[float] = None,
) -> ErrorReport:
    """Estimate every workload query on ``synopsis`` and score it.

    Estimation runs on the compiled engine (:mod:`repro.core.estimation`).
    """
    estimates = estimate_many(synopsis, [wq.query for wq in workload.queries])
    pairs = list(zip(workload.queries, estimates))
    return evaluate_estimates(pairs, bound)
