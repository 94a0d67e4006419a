"""Workloads and the paper's evaluation metric (Section 6.1).

* :mod:`repro.workload.generator` — random *positive* twig queries
  (non-zero selectivity), sampled with a bias toward high-count paths,
  with value predicates attached at summarized nodes, stratified into
  the paper's reporting classes (Struct / Numeric / String / Text);
* :mod:`repro.workload.negative` — zero-selectivity variants used to
  verify that XClusters "consistently yield close to zero estimates";
* :mod:`repro.workload.metrics` — average absolute relative error with
  the 10-percentile *sanity bound*, plus the low-count absolute-error
  breakdown of Figure 9.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "repro.workload.generator": (
            "QueryClass",
            "TwigWorkloadGenerator",
            "Workload",
            "WorkloadQuery",
            "generate_workload",
        ),
        "repro.workload.negative": ("make_negative_workload",),
        "repro.workload.metrics": (
            "ErrorReport",
            "absolute_relative_error",
            "evaluate_estimates",
            "evaluate_synopsis",
            "sanity_bound",
        ),
    },
)
