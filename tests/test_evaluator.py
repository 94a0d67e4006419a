"""Unit tests for exact twig evaluation (the ground-truth engine)."""

import pytest

from repro.query import parse_twig
from repro.check.oracles import match_elements
from repro.query.evaluator import ExactEvaluator, evaluate_selectivity
from repro.query.xpath import parse_edge_path
from repro.xmltree import parse_string


@pytest.fixture
def bib(bibliography):
    return bibliography.tree


def test_match_elements_child_axis():
    tree = parse_string("<a><b/><b/><c/></a>")
    matched = match_elements(tree.root, parse_edge_path("./b"))
    assert len(matched) == 2
    assert all(multiplicity == 1 for _, multiplicity in matched)


def test_match_elements_descendant_axis():
    tree = parse_string("<a><b><c/></b><c/></a>")
    matched = match_elements(tree.root, parse_edge_path(".//c"))
    assert len(matched) == 2


def test_match_elements_multiplicity_counts_paths():
    # .//*//c : c is reachable via multiple intermediate wildcard matches.
    tree = parse_string("<a><b><d><c/></d></b></a>")
    matched = match_elements(tree.root, parse_edge_path(".//*//c"))
    # paths: a->b->..c, a->d->c via (b,d): b and d both match the wildcard.
    assert len(matched) == 1
    assert matched[0][1] == 2


class TestSelectivity:
    def test_single_path(self):
        tree = parse_string("<a><b/><b/></a>")
        assert evaluate_selectivity(tree, parse_twig("/a/b")) == 2

    def test_root_label_must_match(self):
        tree = parse_string("<a><b/></a>")
        assert evaluate_selectivity(tree, parse_twig("/wrong/b")) == 0

    def test_descendant_from_root(self):
        tree = parse_string("<a><b><c/></b><c/></a>")
        assert evaluate_selectivity(tree, parse_twig("//c")) == 2

    def test_branches_multiply(self):
        tree = parse_string("<a><b/><b/><c/><c/><c/></a>")
        # Each (b, c) combination is a binding tuple: 2 * 3.
        assert evaluate_selectivity(tree, parse_twig("/a[./b]/c")) * 2 == 12

    def test_zero_when_branch_unsatisfied(self):
        tree = parse_string("<a><b/></a>")
        assert evaluate_selectivity(tree, parse_twig("/a[./nope]/b")) == 0

    def test_numeric_predicate(self):
        tree = parse_string("<a><y>5</y><y>15</y></a>")
        assert evaluate_selectivity(tree, parse_twig("/a/y[. > 10]")) == 1

    def test_substring_predicate(self):
        tree = parse_string("<a><t>Star Wars</t><t>Dune</t></a>")
        assert evaluate_selectivity(tree, parse_twig("/a/t[. contains(tar)]")) == 1

    def test_keyword_predicate(self):
        words = " ".join(["xml summary synopsis tree data model query plan ok"])
        tree = parse_string(f"<a><d>{words}</d></a>")
        assert evaluate_selectivity(
            tree, parse_twig("/a/d[. ftcontains(xml, tree)]")
        ) == 1
        assert evaluate_selectivity(
            tree, parse_twig("/a/d[. ftcontains(xml, missing)]")
        ) == 0


class TestOnBibliography:
    """Hand-computed selectivities on the paper's Figure 1 document."""

    def test_all_papers(self, bib):
        assert evaluate_selectivity(bib, parse_twig("//paper")) == 2

    def test_papers_after_2000(self, bib):
        assert evaluate_selectivity(bib, parse_twig("//paper[./year > 2000]")) == 1

    def test_paper_example_shape(self, bib):
        query = parse_twig(
            "//paper[./year > 2000][./abstract ftcontains(synopsis, xml)]"
            "/title[. contains(Twig)]"
        )
        assert evaluate_selectivity(bib, query) == 1

    def test_books_by_year(self, bib):
        assert evaluate_selectivity(bib, parse_twig("//book[./year = 2002]")) == 1

    def test_author_with_paper_and_book(self, bib):
        assert evaluate_selectivity(bib, parse_twig("//author[./paper][./book]")) == 0

    def test_author_branch_combination(self, bib):
        # The first author has 2 papers; tuples = papers * name = 2.
        assert (
            evaluate_selectivity(
                bib, parse_twig("//author[./name contains(Ann)]/paper")
            )
            == 2
        )

    def test_wildcard_publications(self, bib):
        # All title elements under any publication: 3.
        assert evaluate_selectivity(bib, parse_twig("//author/*/title")) == 3

    def test_memoization_consistency(self, bib):
        evaluator = ExactEvaluator(bib)
        query = parse_twig("//paper[./year >= 2000]/title")
        assert evaluator.selectivity(query) == evaluator.selectivity(query) == 2
        assert evaluator.matches(query)
