"""Unit tests for workload generation, metrics, and negative workloads."""

import pytest

from repro.query.evaluator import evaluate_selectivity
from repro.workload import (
    evaluate_synopsis,
    generate_workload,
    make_negative_workload,
    sanity_bound,
)
from repro.workload.generator import (
    QueryClass,
    TwigWorkloadGenerator,
    WorkloadConfig,
)
from repro.workload.metrics import absolute_relative_error, evaluate_estimates


@pytest.fixture(scope="module")
def imdb_workload(imdb_small):
    return generate_workload(imdb_small, queries_per_class=6, seed=99)


class TestGenerator:
    def test_path_with_two_value_types(self):
        """Documents merged from several sources can type one path two
        ways; each type gets its own predicate pool."""
        from repro.datasets.dataset import Dataset
        from repro.xmltree import parse_string

        tree = parse_string(
            "<r>"
            + "".join(f"<v>name{i % 3}</v><v>{i}</v>" for i in range(12))
            + "</r>"
        )
        dataset = Dataset("mixed", tree, [("r", "v")])
        workload = TwigWorkloadGenerator(
            dataset, seed=4, config=WorkloadConfig(queries_per_class=3)
        ).generate()
        classes = {wq.query_class for wq in workload.queries}
        assert {QueryClass.NUMERIC, QueryClass.STRING} <= classes
        for wq in workload.queries:
            assert evaluate_selectivity(tree, wq.query) == wq.exact

    def test_stratified_classes(self, imdb_workload):
        for query_class in (
            QueryClass.STRUCT,
            QueryClass.NUMERIC,
            QueryClass.STRING,
            QueryClass.TEXT,
        ):
            assert len(imdb_workload.by_class(query_class)) == 6

    def test_all_queries_positive(self, imdb_small, imdb_workload):
        for workload_query in imdb_workload.queries:
            assert workload_query.exact > 0
            # Exactness is recorded faithfully.
            assert (
                evaluate_selectivity(imdb_small.tree, workload_query.query)
                == workload_query.exact
            )

    def test_predicate_types_match_class(self, imdb_workload):
        from repro.query.predicates import (
            KeywordPredicate,
            RangePredicate,
            SubstringPredicate,
        )

        expected = {
            QueryClass.NUMERIC: RangePredicate,
            QueryClass.STRING: SubstringPredicate,
            QueryClass.TEXT: KeywordPredicate,
        }
        for workload_query in imdb_workload.predicate_queries:
            predicates = [
                node.predicate
                for node in workload_query.query.nodes()
                if node.has_value_predicate
            ]
            assert predicates
            for predicate in predicates:
                assert isinstance(
                    predicate, expected[workload_query.query_class]
                )

    def test_structural_queries_have_no_predicates(self, imdb_workload):
        for workload_query in imdb_workload.structural_queries:
            assert workload_query.query.is_structural

    def test_deterministic(self, imdb_small):
        first = generate_workload(imdb_small, queries_per_class=4, seed=5)
        second = generate_workload(imdb_small, queries_per_class=4, seed=5)
        assert [wq.exact for wq in first.queries] == [wq.exact for wq in second.queries]

    def test_average_result_size(self, imdb_workload):
        assert imdb_workload.average_result_size() > 0
        assert imdb_workload.average_result_size(
            imdb_workload.structural_queries
        ) >= imdb_workload.average_result_size(imdb_workload.predicate_queries) * 0

    def test_xmark_generation(self, xmark_small):
        workload = generate_workload(xmark_small, queries_per_class=4, seed=11)
        assert len(workload.by_class(QueryClass.TEXT)) == 4

    def test_high_count_bias_zero_still_works(self, imdb_small):
        config = WorkloadConfig(queries_per_class=3, high_count_bias=0.0)
        workload = TwigWorkloadGenerator(imdb_small, 7, config).generate()
        assert len(workload) == 12


class TestMetrics:
    def test_sanity_bound_percentile(self):
        counts = list(range(1, 101))
        assert sanity_bound(counts, percentile=0.10) == 10.0

    def test_sanity_bound_minimum_one(self):
        assert sanity_bound([0, 0, 0]) == 1.0

    def test_sanity_bound_empty(self):
        assert sanity_bound([]) == 1.0

    def test_absolute_relative_error(self):
        assert absolute_relative_error(100, 90, 10) == pytest.approx(0.1)
        # Low-count queries are bounded by the sanity bound.
        assert absolute_relative_error(1, 21, 10) == pytest.approx(2.0)

    def test_evaluate_estimates_report(self, imdb_workload):
        pairs = [(wq, float(wq.exact)) for wq in imdb_workload.queries]
        report = evaluate_estimates(pairs)
        assert report.overall == pytest.approx(0.0)
        assert report.query_count == len(imdb_workload.queries)

    def test_per_class_breakdown(self, imdb_workload):
        pairs = [(wq, float(wq.exact) * 2) for wq in imdb_workload.queries]
        report = evaluate_estimates(pairs)
        assert report.overall > 0
        for query_class in (QueryClass.STRUCT, QueryClass.NUMERIC):
            assert report.class_error(query_class) > 0

    def test_low_count_tracking(self, imdb_workload):
        bound = sanity_bound([wq.exact for wq in imdb_workload.queries])
        pairs = [(wq, float(wq.exact) + 1.0) for wq in imdb_workload.queries]
        report = evaluate_estimates(pairs, bound)
        for values in report.low_count_absolute.values():
            assert values == pytest.approx(1.0)

    def test_evaluate_synopsis_runs(self, imdb_reference, imdb_workload):
        report = evaluate_synopsis(imdb_reference, imdb_workload)
        assert 0.0 <= report.overall < 2.0

    def test_empty_workload(self):
        report = evaluate_estimates([])
        assert report.query_count == 0


class TestNegativeWorkloads:
    def test_all_zero_selectivity(self, imdb_small, imdb_workload):
        negative = make_negative_workload(imdb_small, imdb_workload)
        assert len(negative) > 0
        for workload_query in negative.queries:
            assert workload_query.exact == 0
            assert (
                evaluate_selectivity(imdb_small.tree, workload_query.query) == 0
            )

    def test_reference_estimates_near_zero(self, imdb_small, imdb_reference, imdb_workload):
        from repro.check.oracles import XClusterEstimator

        negative = make_negative_workload(imdb_small, imdb_workload)
        estimator = XClusterEstimator(imdb_reference)
        estimates = [estimator.estimate(wq.query) for wq in negative.queries]
        assert sum(estimates) / len(estimates) < 1.0

    def test_limit(self, imdb_small, imdb_workload):
        negative = make_negative_workload(imdb_small, imdb_workload, limit=3)
        assert len(negative) <= 3

    def test_positive_workload_not_mutated(self, imdb_small, imdb_workload):
        before = [wq.query.to_xpath() for wq in imdb_workload.queries]
        make_negative_workload(imdb_small, imdb_workload)
        after = [wq.query.to_xpath() for wq in imdb_workload.queries]
        assert before == after
