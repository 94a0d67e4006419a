"""Compiled estimation engine: parity with the scalar oracle and the
cache/serving machinery around it.

The hard contract: the compiled path must match the scalar
``XClusterEstimator`` to 1e-9 on every query of the full test workloads
(it is in fact a bit-exact replay of the scalar float-accumulation
order).  The rest of the suite covers the edge cases named in the
issue — descendant axis from the virtual root, cyclic synopses at
``max_path_length``, empty frontiers mid-edge, and cache invalidation
after synopsis mutation — plus the batched serving layer.
"""

import copy

import pytest

from repro.core.estimation import (
    CompiledEstimator,
    WorkloadEstimator,
    compile_query,
    estimate_many,
    shared_index,
    twig_of,
)
from repro.core.estimator import VIRTUAL_ROOT, XClusterEstimator
from repro.core.synopsis import XClusterSynopsis
from repro.query import parse_twig
from repro.workload.generator import generate_workload
from repro.xmltree.types import ValueType

PARITY = 1e-9


def assert_parity(synopsis, queries, max_path_length=40):
    scalar = XClusterEstimator(synopsis, max_path_length)
    compiled = CompiledEstimator(synopsis, max_path_length)
    for query in queries:
        expected = scalar.estimate(query)
        actual = compiled.estimate(query)
        assert actual == pytest.approx(expected, rel=PARITY, abs=PARITY), (
            query.to_xpath()
        )


class TestScalarParity:
    def test_full_bibliography_workload(self, bibliography, bibliography_reference):
        workload = generate_workload(bibliography, 10, seed=99)
        assert_parity(
            bibliography_reference, [wq.query for wq in workload.queries]
        )

    def test_full_imdb_workload(self, imdb_small, imdb_reference):
        workload = generate_workload(imdb_small, 8, seed=5)
        assert_parity(imdb_reference, [wq.query for wq in workload.queries])

    def test_full_xmark_workload(self, xmark_small, xmark_reference):
        workload = generate_workload(xmark_small, 8, seed=11)
        assert_parity(xmark_reference, [wq.query for wq in workload.queries])

    def test_hand_written_shapes(self, bibliography_reference):
        queries = [
            parse_twig(text)
            for text in (
                "/dblp/author/paper",
                "//paper",
                "//author[./name]/paper[./year]/title",
                "/dblp/*/paper",
                "//paper/year[. <= 2000]",
                "//author//year",
            )
        ]
        assert_parity(bibliography_reference, queries)

    def test_paper_figure7_is_500(self):
        from tests.test_estimator import paper_figure7_synopsis

        synopsis = paper_figure7_synopsis()
        query = parse_twig("//A[./B/C[. = 0]]//E")
        assert CompiledEstimator(synopsis).estimate(query) == pytest.approx(500.0)


class TestEdgeCases:
    def test_descendant_axis_from_virtual_root(self, bibliography_reference):
        """``//label`` starts a descendant step at VIRTUAL_ROOT: the root
        cluster itself must be eligible (reachable with +1 path)."""
        root_label = bibliography_reference.root.label
        assert_parity(
            bibliography_reference,
            [parse_twig(f"//{root_label}"), parse_twig("//*")],
        )

    def test_cyclic_synopsis_hits_max_path_length(self):
        synopsis = XClusterSynopsis()
        root = synopsis.add_node("r", ValueType.NULL, 1)
        recursive = synopsis.add_node("s", ValueType.NULL, 10)
        synopsis.set_root(root)
        synopsis.add_edge(root, recursive, 2.0)
        synopsis.add_edge(recursive, recursive, 0.5)
        for max_path_length in (1, 3, 20):
            assert_parity(
                synopsis,
                [parse_twig("//s"), parse_twig("//s//s")],
                max_path_length=max_path_length,
            )
        estimate = CompiledEstimator(synopsis, max_path_length=20).estimate(
            parse_twig("//s")
        )
        # Geometric series 2 * (1 + 0.5 + ...) -> 4, truncated.
        assert 3.5 < estimate <= 4.0

    def test_empty_frontier_mid_edge(self, bibliography_reference):
        """A step that matches nothing must short-circuit to 0 on both
        paths (and the empty frontier is itself cached)."""
        estimator = CompiledEstimator(bibliography_reference)
        queries = [
            parse_twig("/dblp/nosuch/paper"),
            parse_twig("//paper/nosuch//year"),
        ]
        assert_parity(bibliography_reference, queries)
        for query in queries:
            assert estimator.estimate(query) == 0.0
        repeat = estimator.stats.reach_cache_hits
        for query in queries:
            assert estimator.estimate(query) == 0.0
        assert estimator.stats.reach_cache_hits > repeat

    def test_max_path_length_validation(self, bibliography_reference):
        with pytest.raises(ValueError):
            CompiledEstimator(bibliography_reference, max_path_length=0)

    def test_index_for_wrong_synopsis_rejected(self, bibliography_reference):
        other = XClusterSynopsis()
        other.set_root(other.add_node("r", ValueType.NULL, 1))
        with pytest.raises(ValueError):
            CompiledEstimator(other, index=shared_index(bibliography_reference))


class TestCacheInvalidation:
    def make_synopsis(self):
        synopsis = XClusterSynopsis()
        root = synopsis.add_node("r", ValueType.NULL, 1)
        a1 = synopsis.add_node("a", ValueType.NULL, 4)
        a2 = synopsis.add_node("a", ValueType.NULL, 6)
        leaf = synopsis.add_node("b", ValueType.NULL, 12)
        synopsis.set_root(root)
        synopsis.add_edge(root, a1, 4.0)
        synopsis.add_edge(root, a2, 6.0)
        synopsis.add_edge(a1, leaf, 2.0)
        synopsis.add_edge(a2, leaf, 0.5)
        return synopsis, a1, a2

    def test_merge_invalidates_shared_tables(self):
        synopsis, a1, a2 = self.make_synopsis()
        estimator = CompiledEstimator(synopsis)
        # Branching twig: the estimate squares per-cluster child counts,
        # so the weighted-average merge genuinely changes it (a single
        # path's total would be invariant under the merge semantics).
        query = parse_twig("//a[./b]/b")
        before = estimator.estimate(query)
        assert before == pytest.approx(
            XClusterEstimator(synopsis).estimate(query)
        )
        synopsis.merge_nodes(a1.node_id, a2.node_id)
        after = estimator.estimate(query)
        assert estimator.stats.index_invalidations == 1
        assert after == pytest.approx(
            XClusterEstimator(synopsis).estimate(query), rel=PARITY
        )
        # The merged synopsis averages child counts, so the structural
        # estimate genuinely changes; a stale cache would return `before`.
        assert after != before

    def test_version_counter_bumps_on_mutation(self):
        synopsis, a1, a2 = self.make_synopsis()
        version = synopsis.version
        synopsis.merge_nodes(a1.node_id, a2.node_id)
        assert synopsis.version > version


class TestSharedCaches:
    def test_index_shared_across_estimator_instances(self, bibliography_reference):
        first = CompiledEstimator(bibliography_reference)
        second = CompiledEstimator(bibliography_reference)
        assert first.index is second.index
        query = parse_twig("//author//year")
        first.estimate(query)
        misses = second.stats.reach_cache_misses
        second.estimate(query)
        assert second.stats.reach_cache_misses == misses  # all frontiers reused
        assert second.stats.reach_cache_hits > 0

    def test_plan_cache_shared_across_equal_queries(self, bibliography_reference):
        estimator = CompiledEstimator(bibliography_reference)
        first = estimator.compile(parse_twig("//author[./name]/paper"))
        second = estimator.compile(parse_twig("//author[./name]/paper"))
        assert first is second
        assert estimator.stats.plan_cache_hits == 1
        assert estimator.stats.plans_compiled == 1

    def test_plan_signature_ignores_variable_names(self):
        plan_a = compile_query(parse_twig("//author/paper"))
        plan_b = compile_query(parse_twig("//author/paper"))
        assert plan_a.signature == plan_b.signature
        assert plan_a.variable_count == 3  # root + two steps

    def test_twig_of_a_signature_estimates_alike(self, imdb_small, imdb_reference):
        queries = [wq.query for wq in generate_workload(imdb_small, 4, seed=3).queries]
        fresh = CompiledEstimator(imdb_reference)
        for query in queries:
            signature = compile_query(query).signature
            rebuilt = twig_of(signature)
            assert compile_query(rebuilt).signature == signature
            assert fresh.estimate(rebuilt) == CompiledEstimator(
                imdb_reference
            ).estimate(query)

    def test_repeat_workload_hits_caches(self, imdb_small, imdb_reference):
        workload = generate_workload(imdb_small, 4, seed=3)
        queries = [wq.query for wq in workload.queries]
        serving = WorkloadEstimator(queries)
        first = serving.estimate_all(imdb_reference)
        warm_misses = serving.stats.reach_cache_misses
        second = serving.estimate_all(imdb_reference)
        assert first == second
        assert serving.stats.reach_cache_misses == warm_misses
        assert serving.stats.reach_cache_hit_rate > 0.4
        assert serving.stats.queries_estimated == 2 * len(queries)


class TestServing:
    def test_estimate_many_matches_per_query(self, imdb_small, imdb_reference):
        workload = generate_workload(imdb_small, 4, seed=21)
        queries = [wq.query for wq in workload.queries]
        scalar = XClusterEstimator(imdb_reference)
        expected = [scalar.estimate(query) for query in queries]
        batched = estimate_many(imdb_reference, queries)
        assert batched == pytest.approx(expected, rel=PARITY)

    def test_estimate_many_parallel_matches_serial(self, imdb_small, imdb_reference):
        """workers=4 shards over a fork pool (silently serial where
        process pools are unavailable); results are order-preserving
        and identical either way."""
        workload = generate_workload(imdb_small, 5, seed=22)
        queries = [wq.query for wq in workload.queries]
        serial = estimate_many(imdb_reference, queries, workers=1)
        parallel = estimate_many(imdb_reference, queries, workers=4)
        assert parallel == serial

    def test_estimate_many_rejects_mismatched_estimator(
        self, imdb_reference, bibliography_reference
    ):
        estimator = CompiledEstimator(bibliography_reference)
        with pytest.raises(ValueError):
            estimate_many(imdb_reference, [parse_twig("//paper")], estimator=estimator)

    def test_workload_estimator_retargets_across_synopses(
        self, bibliography, bibliography_reference
    ):
        workload = generate_workload(bibliography, 6, seed=8)
        queries = [wq.query for wq in workload.queries]
        serving = WorkloadEstimator(queries)
        reference_estimates = serving.estimate_all(bibliography_reference)
        mutated = copy.deepcopy(bibliography_reference)
        papers = sorted(mutated.nodes_by_label("paper"), key=lambda n: n.node_id)
        if len(papers) >= 2:
            mutated.merge_nodes(papers[0].node_id, papers[1].node_id)
        retargeted = serving.estimate_all(mutated)
        assert retargeted == pytest.approx(
            [XClusterEstimator(mutated).estimate(q) for q in queries], rel=PARITY
        )
        # Plans were compiled exactly once despite the synopsis change.
        assert serving.stats.plans_compiled <= len(queries)
        back = serving.estimate_all(bibliography_reference)
        assert back == pytest.approx(reference_estimates, rel=PARITY)

    def test_evaluate_synopsis_uses_compiled_engine(
        self, bibliography, bibliography_reference
    ):
        from repro.workload.metrics import evaluate_synopsis

        workload = generate_workload(bibliography, 5, seed=13)
        serial = evaluate_synopsis(bibliography_reference, workload)
        parallel = evaluate_synopsis(bibliography_reference, workload, workers=2)
        assert serial.overall == pytest.approx(parallel.overall, rel=PARITY)


class TestStats:
    def test_counters_and_rates(self, bibliography_reference):
        estimator = CompiledEstimator(bibliography_reference)
        query = parse_twig("//author[./name]/paper[./year >= 1990]/title")
        estimator.estimate(query)
        estimator.estimate(query)
        stats = estimator.stats
        assert stats.queries_estimated == 2
        assert stats.plans_compiled == 1
        assert stats.plan_cache_hits == 1
        assert stats.plan_cache_hit_rate == pytest.approx(0.5)
        assert stats.transition_rows_built > 0
        assert stats.reach_cache_hits > 0
        assert 0.0 < stats.reach_cache_hit_rate < 1.0
        assert stats.execute_seconds >= 0.0
        assert stats.plan_compile_seconds >= 0.0
        assert stats.max_frontier_nodes >= 1
        assert stats.average_frontier_nodes > 0.0

    def test_selectivity_cache_counters(self, bibliography_reference):
        estimator = CompiledEstimator(bibliography_reference)
        query = parse_twig("//paper/year[. <= 2000]")
        estimator.estimate(query)
        misses = estimator.stats.selectivity_cache_misses
        assert misses > 0
        estimator.estimate(query)
        assert estimator.stats.selectivity_cache_hits >= misses


class TestNegativeWorkloads:
    """Zero-selectivity twigs: the paper reports XClusters "consistently
    yield close to zero estimates" on negative workloads; both engines
    must agree on (near-)zero, and exactly zero structural misses must
    estimate exactly zero."""

    def test_impossible_label_is_exactly_zero(self, bibliography_reference):
        query = parse_twig("//no_such_element")
        assert XClusterEstimator(bibliography_reference).estimate(query) == 0.0
        assert CompiledEstimator(bibliography_reference).estimate(query) == 0.0

    def test_impossible_branch_is_exactly_zero(self, bibliography_reference):
        query = parse_twig("//book[./no_such_element]/title")
        assert XClusterEstimator(bibliography_reference).estimate(query) == 0.0
        assert CompiledEstimator(bibliography_reference).estimate(query) == 0.0

    def test_impossible_child_chain_is_exactly_zero(self, xmark_reference):
        # A valid label placed under a parent that never has it.
        query = parse_twig("/site/no_such_element/site")
        assert XClusterEstimator(xmark_reference).estimate(query) == 0.0
        assert CompiledEstimator(xmark_reference).estimate(query) == 0.0

    def test_generated_negative_workload_parity(self, imdb_small, imdb_reference):
        from repro.workload.negative import make_negative_workload

        positive = generate_workload(imdb_small, queries_per_class=4, seed=321)
        negative = make_negative_workload(imdb_small, positive, seed=321)
        assert negative.queries, "mutation produced no negative queries"
        assert_parity(imdb_reference, [wq.query for wq in negative.queries])

    def test_negative_estimates_are_near_zero(self, imdb_small, imdb_reference):
        from repro.workload.negative import make_negative_workload

        positive = generate_workload(imdb_small, queries_per_class=4, seed=321)
        negative = make_negative_workload(imdb_small, positive, seed=321)
        compiled = CompiledEstimator(imdb_reference)
        for workload_query in negative.queries:
            estimate = compiled.estimate(workload_query.query)
            # The reference synopsis is exact per path; negative twigs
            # must estimate (essentially) zero binding tuples on it.
            assert estimate == pytest.approx(0.0, abs=1e-6), (
                workload_query.query.to_xpath()
            )

    def test_out_of_domain_range_is_zero_in_both_engines(self, imdb_reference):
        valued = [
            node
            for node in imdb_reference.valued_nodes()
            if node.value_type is ValueType.NUMERIC
        ]
        assert valued
        # Probe far above every numeric domain in the synopsis.
        query = parse_twig("//movie[./year >= 99999999]")
        expected = XClusterEstimator(imdb_reference).estimate(query)
        actual = CompiledEstimator(imdb_reference).estimate(query)
        assert expected == pytest.approx(0.0, abs=1e-9)
        assert actual == pytest.approx(expected, rel=PARITY, abs=PARITY)
