"""Unit tests for XCluster selectivity estimation.

Includes a faithful re-construction of the paper's Section 5 worked
example (Figure 7): the estimate must come out to exactly 500 binding
tuples.
"""

import pytest

from repro.check.oracles import XClusterEstimator
from repro.core.estimation import estimate_selectivity
from repro.core.reference import build_reference_synopsis
from repro.core.synopsis import XClusterSynopsis
from repro.query import parse_twig
from repro.query.evaluator import evaluate_selectivity
from repro.values.histogram import Histogram, HistogramBucket
from repro.values.summary import HistogramSummary
from repro.xmltree import parse_string
from repro.xmltree.types import ValueType


def paper_figure7_synopsis():
    """The synopsis of the paper's estimation example.

    count(R,A) = 10, count(A,B) = 10, count(B,C) = 5 with σ_C(p) = 0.1,
    and count(A,Da) = 5, count(Da,Ea) = 2: each element of A yields
    (10·5·0.1) · (5·2) = 50 binding tuples, and R has 10 descendants in
    A — 500 in total.
    """
    synopsis = XClusterSynopsis()
    r = synopsis.add_node("R", ValueType.NULL, 1)
    a = synopsis.add_node("A", ValueType.NULL, 10)
    b = synopsis.add_node("B", ValueType.NULL, 100)
    # σ over [0, 9] of a range predicate covering one tenth of the mass.
    histogram = Histogram([HistogramBucket(0, 9, 500.0)])
    c = synopsis.add_node("C", ValueType.NUMERIC, 500, HistogramSummary(histogram))
    da = synopsis.add_node("D", ValueType.NULL, 50)
    ea = synopsis.add_node("E", ValueType.NULL, 100)
    synopsis.set_root(r)
    synopsis.add_edge(r, a, 10.0)
    synopsis.add_edge(a, b, 10.0)
    synopsis.add_edge(b, c, 5.0)
    synopsis.add_edge(a, da, 5.0)
    synopsis.add_edge(da, ea, 2.0)
    return synopsis


class TestPaperExample:
    def test_figure7_estimate_is_500(self):
        synopsis = paper_figure7_synopsis()
        # [. = 0] selects exactly 1 of the 10 integer points: σ = 0.1.
        query = parse_twig("//A[./B/C[. = 0]]//E")
        assert estimate_selectivity(synopsis, query) == pytest.approx(500.0)

    def test_descendant_count_composition(self):
        synopsis = paper_figure7_synopsis()
        estimator = XClusterEstimator(synopsis)
        reach = estimator.reach(synopsis.root_id, parse_twig("//E").nodes()[1].edge)
        e_id = synopsis.nodes_by_label("E")[0].node_id
        assert reach[e_id] == pytest.approx(100.0)  # 10 * 5 * 2


class TestAgainstExactEvaluation:
    def test_reference_is_exact_for_child_only_structural_queries(self, bibliography, bibliography_reference):
        for text in ("/dblp/author", "/dblp/author/paper", "/dblp/author/paper/year"):
            query = parse_twig(text)
            exact = evaluate_selectivity(bibliography.tree, query)
            estimate = estimate_selectivity(bibliography_reference, query)
            assert estimate == pytest.approx(exact), text

    def test_reference_exact_for_descendant_queries(self, bibliography, bibliography_reference):
        for text in ("//paper", "//title", "//author//year"):
            query = parse_twig(text)
            exact = evaluate_selectivity(bibliography.tree, query)
            estimate = estimate_selectivity(bibliography_reference, query)
            assert estimate == pytest.approx(exact), text

    def test_reference_exact_for_branching_queries(self, bibliography, bibliography_reference):
        query = parse_twig("//author[./name]/paper[./year]/title")
        exact = evaluate_selectivity(bibliography.tree, query)
        estimate = estimate_selectivity(bibliography_reference, query)
        assert estimate == pytest.approx(exact)

    def test_reference_exact_for_numeric_prefix_predicates(self, bibliography, bibliography_reference):
        query = parse_twig("//paper/year[. <= 2000]")
        exact = evaluate_selectivity(bibliography.tree, query)
        estimate = estimate_selectivity(bibliography_reference, query)
        assert estimate == pytest.approx(exact)

    def test_keyword_predicate_on_reference(self, bibliography, bibliography_reference):
        query = parse_twig("//paper/keywords[. ftcontains(xml)]")
        exact = evaluate_selectivity(bibliography.tree, query)
        estimate = estimate_selectivity(bibliography_reference, query)
        assert estimate == pytest.approx(exact)

    def test_imdb_structural_queries_near_exact(self, imdb_small, imdb_reference):
        for text in ("//movie", "//movie/cast/actor", "//show//episode"):
            query = parse_twig(text)
            exact = evaluate_selectivity(imdb_small.tree, query)
            estimate = estimate_selectivity(imdb_reference, query)
            assert estimate == pytest.approx(exact, rel=1e-6), text


class TestEstimatorMechanics:
    def test_nonexistent_label_estimates_zero(self, bibliography_reference):
        assert estimate_selectivity(bibliography_reference, parse_twig("//nope")) == 0.0

    def test_wildcard_steps(self, bibliography, bibliography_reference):
        query = parse_twig("/dblp/*/paper")
        exact = evaluate_selectivity(bibliography.tree, query)
        assert estimate_selectivity(bibliography_reference, query) == pytest.approx(exact)

    def test_wrong_typed_predicate_estimates_zero(self, bibliography_reference):
        query = parse_twig("//paper/year[. contains(x)]")
        assert estimate_selectivity(bibliography_reference, query) == 0.0

    def test_cycle_safety(self):
        """Self-loops (from merged recursive elements) must not hang."""
        synopsis = XClusterSynopsis()
        root = synopsis.add_node("r", ValueType.NULL, 1)
        recursive = synopsis.add_node("s", ValueType.NULL, 10)
        synopsis.set_root(root)
        synopsis.add_edge(root, recursive, 2.0)
        synopsis.add_edge(recursive, recursive, 0.5)
        estimator = XClusterEstimator(synopsis, max_path_length=20)
        estimate = estimator.estimate(parse_twig("//s"))
        # Geometric series 2 * (1 + 0.5 + 0.25 + ...) -> 4, truncated.
        assert 3.5 < estimate <= 4.0

    def test_max_path_length_validation(self):
        synopsis = XClusterSynopsis()
        synopsis.set_root(synopsis.add_node("r", ValueType.NULL, 1))
        import pytest as _pytest

        with _pytest.raises(ValueError):
            XClusterEstimator(synopsis, max_path_length=0)
