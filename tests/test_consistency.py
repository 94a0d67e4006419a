"""Cross-layer consistency checks between independent constructions."""

import copy

import pytest

from repro.core import build_tag_synopsis, estimate_selectivity
from repro.core.baselines import compress_with_policy, random_policy
from repro.check.oracles import XClusterEstimator
from repro.query import parse_twig
from repro.query.evaluator import evaluate_selectivity


class TestMergeConvergesToTagSynopsis:
    """Merging every compatible pair must converge to the tag partition:
    the same clustering the tag synopsis builds directly."""

    def test_counts_match_tag_synopsis(self, imdb_small, imdb_reference):
        merged = copy.deepcopy(imdb_reference)
        compress_with_policy(merged, 0, random_policy, seed=5)
        tag = build_tag_synopsis(imdb_small.tree, imdb_small.value_paths)

        def census(synopsis):
            table = {}
            for node in synopsis:
                key = (node.label, node.value_type)
                table[key] = table.get(key, 0) + node.count
            return table

        assert census(merged) == census(tag)
        # Fully merged: exactly one cluster per (label, type) like tag.
        assert len(merged) == len(tag)

    def test_edge_counts_match_tag_synopsis(self, imdb_small, imdb_reference):
        merged = copy.deepcopy(imdb_reference)
        compress_with_policy(merged, 0, random_policy, seed=5)
        tag = build_tag_synopsis(imdb_small.tree, imdb_small.value_paths)

        def edges(synopsis):
            table = {}
            for node in synopsis:
                for child_id, average in node.children.items():
                    child = synopsis.node(child_id)
                    key = (node.label, child.label)
                    table[key] = table.get(key, 0.0) + average * node.count
            return table

        merged_edges = edges(merged)
        tag_edges = edges(tag)
        assert set(merged_edges) == set(tag_edges)
        for key, total in tag_edges.items():
            assert merged_edges[key] == pytest.approx(total, rel=1e-9), key


class TestEstimatorIdentities:
    def test_whole_label_estimate_equals_cluster_counts(self, imdb_reference):
        estimator = XClusterEstimator(imdb_reference)
        for label in ("movie", "actor", "title", "year"):
            clusters = imdb_reference.nodes_by_label(label)
            expected = float(sum(node.count for node in clusters))
            estimate = estimator.estimate(parse_twig(f"//{label}"))
            assert estimate == pytest.approx(expected, rel=1e-9)

    def test_child_step_sums_edge_counts(self, imdb_small, imdb_reference):
        query = parse_twig("//movie/genre")
        exact = evaluate_selectivity(imdb_small.tree, query)
        estimate = estimate_selectivity(imdb_reference, query)
        assert estimate == pytest.approx(float(exact), rel=1e-9)

    def test_branch_decomposition(self, imdb_small, imdb_reference):
        """For single-context spines, [./a][./b] multiplies branch sums."""
        both = estimate_selectivity(
            imdb_reference, parse_twig("/imdb/movie[./genre]/year")
        )
        exact = evaluate_selectivity(
            imdb_small.tree, parse_twig("/imdb/movie[./genre]/year")
        )
        # The reference captures genre-count/year correlations per
        # cluster, so the decomposed estimate stays near-exact.
        assert both == pytest.approx(float(exact), rel=0.05)


class TestWorkloadReferenceAgreement:
    def test_xmark_reference_structural_exactness(self, xmark_small, xmark_reference):
        for text in (
            "//item",
            "//open_auction/bidder",
            "/site/people/person/profile",
            "//closed_auction//description",
        ):
            query = parse_twig(text)
            exact = evaluate_selectivity(xmark_small.tree, query)
            estimate = estimate_selectivity(xmark_reference, query)
            assert estimate == pytest.approx(float(exact), rel=1e-6), text
