"""End-to-end integration: the complete pipeline on each dataset.

One test per dataset walks the whole system — generate, summarize,
compress, persist, reload, estimate, and score — asserting the
cross-module contracts that no unit test covers in one breath.
"""

import pytest

from repro.core import (
    build_reference_synopsis,
    build_xcluster,
    estimate_selectivity,
    load_synopsis,
    save_synopsis,
    structural_size_bytes,
    synthesize_document,
    total_size_bytes,
    value_size_bytes,
)
from repro.core.builder import BuildConfig
from repro.query import parse_twig
from repro.query.evaluator import ExactEvaluator
from repro.workload import (
    evaluate_synopsis,
    generate_workload,
    make_negative_workload,
    sanity_bound,
)


@pytest.mark.parametrize("dataset_name", ["imdb_small", "xmark_small"])
def test_full_pipeline(dataset_name, request, tmp_path):
    dataset = request.getfixturevalue(dataset_name)

    # 1. Reference synopsis: valid, partitioning, tree-shaped.
    reference = build_reference_synopsis(dataset.tree, dataset.value_paths)
    reference.validate()
    assert reference.total_element_count() == dataset.element_count

    # 2. Budgeted construction meets both budgets.
    structural_budget = structural_size_bytes(reference) // 3
    value_budget = int(value_size_bytes(reference) * 0.45)
    synopsis = build_xcluster(
        dataset.tree,
        structural_budget,
        value_budget,
        dataset.value_paths,
        BuildConfig(pool_max=800, pool_min=400),
    )
    synopsis.validate()
    assert structural_size_bytes(synopsis) <= structural_budget
    assert value_size_bytes(synopsis) <= value_budget

    # 3. Persistence round-trip preserves estimates.
    path = str(tmp_path / "synopsis.json")
    save_synopsis(synopsis, path)
    reloaded = load_synopsis(path)
    probe = parse_twig(f"//{dataset.tree.root.children[0].label}")
    assert estimate_selectivity(reloaded, probe) == pytest.approx(
        estimate_selectivity(synopsis, probe)
    )
    assert total_size_bytes(reloaded) == total_size_bytes(synopsis)

    # 4. Workload accuracy is sane at this generous budget.
    workload = generate_workload(dataset, queries_per_class=6, seed=77)
    bound = sanity_bound([wq.exact for wq in workload.queries])
    report = evaluate_synopsis(synopsis, workload, bound)
    assert report.overall < 1.0
    reference_report = evaluate_synopsis(reference, workload, bound)
    assert reference_report.overall <= report.overall + 0.25

    # 5. Negative workloads estimate near zero.
    negative = make_negative_workload(dataset, workload, limit=10)
    if negative.queries:
        from repro.check.oracles import XClusterEstimator

        estimator = XClusterEstimator(synopsis)
        average = sum(
            estimator.estimate(wq.query) for wq in negative.queries
        ) / len(negative.queries)
        assert average < 2.0

    # 6. Synthesis produces a queryable surrogate of similar size.
    surrogate = synthesize_document(synopsis, seed=5)
    surrogate.validate()
    evaluator = ExactEvaluator(surrogate)
    assert 0.5 < len(surrogate) / dataset.element_count < 2.0
    assert evaluator.selectivity(probe) > 0
