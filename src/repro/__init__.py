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

from repro import _lazy

# Name -> defining module, resolved on first access (PEP 562), so
# ``import repro`` and every CLI start load only what they use.  The
# check names pull in the whole correctness harness.
__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "repro.core.builder": (
            "BuildConfig",
            "XClusterBuilder",
            "build_xcluster",
        ),
        "repro.core.estimation.engine": (
            "CompiledEstimator",
            "estimate_selectivity",
        ),
        "repro.core.estimation.serving": ("WorkloadEstimator", "estimate_many"),
        "repro.core.reference": (
            "build_reference_synopsis",
            "build_tag_synopsis",
        ),
        "repro.core.sizing": (
            "structural_size_bytes",
            "total_size_bytes",
            "value_size_bytes",
        ),
        "repro.core.synopsis": ("XClusterSynopsis",),
        "repro.query.evaluator": ("evaluate_selectivity",),
        "repro.query.xpath": ("parse_twig",),
        "repro.xmltree.tree": ("XMLElement", "XMLTree"),
        "repro.xmltree.parser": ("parse_string",),
        "repro.check": ("audit_synopsis", "run_differential_check"),
    },
)

__version__ = "1.0.0"
__all__.append("__version__")
