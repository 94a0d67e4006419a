"""XCluster synopses for structured XML content — ICDE 2006 reproduction.

A complete implementation of the XCluster summarization model of
Polyzotis & Garofalakis: structure-value clustering synopses for XML
documents with heterogeneous (numeric / string / text) element values,
supporting selectivity estimation for twig queries with range, substring,
and IR-style keyword predicates.

Quickstart::

    from repro import (
        build_xcluster, estimate_selectivity, evaluate_selectivity, parse_twig,
    )
    from repro.datasets import generate_imdb

    dataset = generate_imdb(scale=0.2)
    synopsis = build_xcluster(
        dataset.tree, structural_budget=4096, value_budget=32768,
        value_paths=dataset.value_paths,
    )
    query = parse_twig("//movie[./year >= 2000]/title")
    print(estimate_selectivity(synopsis, query))      # synopsis estimate
    print(evaluate_selectivity(dataset.tree, query))  # exact count
"""

from repro.core import (
    BuildConfig,
    CompiledEstimator,
    WorkloadEstimator,
    XClusterBuilder,
    XClusterSynopsis,
    build_reference_synopsis,
    build_tag_synopsis,
    build_xcluster,
    estimate_many,
    estimate_selectivity,
    structural_size_bytes,
    total_size_bytes,
    value_size_bytes,
)
from repro.query import evaluate_selectivity, parse_twig
from repro.xmltree import XMLElement, XMLTree, parse_string

__version__ = "1.0.0"


def __getattr__(name):
    # The correctness harness pulls in the differential fuzzer, the
    # update maintainer, the dataset generators and the workload
    # generator; load it on first use rather than on every import (and
    # every CLI start) of the package (PEP 562).
    if name in ("audit_synopsis", "run_differential_check"):
        import repro.check

        return getattr(repro.check, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BuildConfig",
    "audit_synopsis",
    "run_differential_check",
    "CompiledEstimator",
    "WorkloadEstimator",
    "XClusterBuilder",
    "XClusterSynopsis",
    "build_reference_synopsis",
    "build_tag_synopsis",
    "build_xcluster",
    "estimate_many",
    "estimate_selectivity",
    "evaluate_selectivity",
    "parse_twig",
    "structural_size_bytes",
    "total_size_bytes",
    "value_size_bytes",
    "XMLElement",
    "XMLTree",
    "parse_string",
    "__version__",
]
