"""Unit tests for the twig AST and the XPath-subset parser."""

import pytest

from repro.query import (
    AxisStep,
    EdgePath,
    QueryNode,
    TwigQuery,
    XPathSyntaxError,
    parse_edge_path,
    parse_twig,
)
from repro.query.predicates import (
    KeywordPredicate,
    RangePredicate,
    SubstringPredicate,
)


class TestAst:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            AxisStep("sideways", "a")

    def test_step_label_required(self):
        with pytest.raises(ValueError):
            AxisStep("child", "")

    def test_wildcard_matches_anything(self):
        step = AxisStep("descendant", "*")
        assert step.matches_label("anything")
        assert step.is_wildcard

    def test_edge_path_needs_steps(self):
        with pytest.raises(ValueError):
            EdgePath(())

    def test_edge_path_target_label(self):
        edge = EdgePath((AxisStep("child", "a"), AxisStep("descendant", "b")))
        assert edge.target_label == "b"
        assert len(edge) == 2

    def test_root_has_no_edge(self):
        with pytest.raises(ValueError):
            TwigQuery(QueryNode("q", EdgePath((AxisStep("child", "a"),))))

    def test_non_root_needs_edge(self):
        twig = TwigQuery()
        with pytest.raises(ValueError):
            twig.root.add_child(QueryNode("child"))

    def test_counts(self):
        twig = parse_twig("//a[./b > 3]/c")
        assert twig.variable_count == 4  # root, a, b, c
        assert twig.predicate_count == 1
        assert not twig.is_structural


class TestParser:
    def test_simple_path(self):
        twig = parse_twig("/a/b")
        nodes = twig.nodes()
        assert [n.edge.steps[0].label for n in nodes[1:]] == ["a", "b"]
        assert [n.edge.steps[0].axis for n in nodes[1:]] == ["child", "child"]

    def test_descendant_axis(self):
        twig = parse_twig("//a")
        assert twig.nodes()[1].edge.steps[0].axis == "descendant"

    def test_wildcard(self):
        twig = parse_twig("/a/*/c")
        assert twig.nodes()[2].edge.steps[0].is_wildcard

    def test_numeric_comparisons(self):
        cases = {
            "//a[./y > 5]": RangePredicate(low=6),
            "//a[./y >= 5]": RangePredicate(low=5),
            "//a[./y < 5]": RangePredicate(high=4),
            "//a[./y <= 5]": RangePredicate(high=5),
            "//a[./y = 5]": RangePredicate(5, 5),
            "//a[./y in [2, 8]]": RangePredicate(2, 8),
        }
        for text, expected in cases.items():
            twig = parse_twig(text)
            predicates = [n.predicate for n in twig.nodes() if n.has_value_predicate]
            assert predicates == [expected], text

    def test_contains(self):
        twig = parse_twig("//t[. contains(Tree)]")
        leaf = twig.nodes()[1]
        assert leaf.predicate == SubstringPredicate("Tree")

    def test_ftcontains_multiple_terms(self):
        twig = parse_twig("//abs[. ftcontains(synopsis, xml)]")
        leaf = twig.nodes()[1]
        assert leaf.predicate == KeywordPredicate(["synopsis", "xml"])

    def test_paper_example_query(self):
        text = (
            "//paper[./year > 2000]"
            "[./abstract ftcontains(synopsis, xml)]"
            "/title[. contains(Tree)]"
        )
        twig = parse_twig(text)
        assert twig.variable_count == 5
        assert twig.predicate_count == 3

    def test_branch_with_bare_label(self):
        twig = parse_twig("//paper[year > 2000]")
        year = twig.nodes()[2]
        assert year.edge.steps[0].label == "year"
        assert year.predicate == RangePredicate(low=2001)

    def test_structural_branch(self):
        twig = parse_twig("//a[./b/c]")
        assert twig.variable_count == 4
        assert twig.is_structural

    def test_descendant_branch(self):
        twig = parse_twig("//a[.//b ftcontains(t)]")
        b = twig.nodes()[2]
        assert b.edge.steps[0].axis == "descendant"
        assert b.predicate == KeywordPredicate(["t"])

    def test_predicate_on_current_node(self):
        twig = parse_twig("//y[. >= 10]")
        assert twig.nodes()[1].predicate == RangePredicate(low=10)

    def test_empty_branch_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_twig("//a[]")

    def test_double_predicate_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_twig("//a[. > 1][. > 2]")

    def test_missing_leading_axis(self):
        with pytest.raises(XPathSyntaxError):
            parse_twig("a/b")

    def test_trailing_garbage(self):
        with pytest.raises(XPathSyntaxError):
            parse_twig("//a]]")

    def test_roundtrip_through_to_xpath(self):
        for text in ("//a/b", "//a[./y >= 3]/b", "//t[. contains(x)]"):
            twig = parse_twig(text)
            reparsed = parse_twig(twig.to_xpath())
            assert reparsed.variable_count == twig.variable_count
            assert reparsed.predicate_count == twig.predicate_count


class TestEdgePathParser:
    def test_simple(self):
        edge = parse_edge_path("./a//b")
        assert [step.axis for step in edge.steps] == ["child", "descendant"]

    def test_without_leading_dot(self):
        edge = parse_edge_path("/a")
        assert edge.target_label == "a"

    def test_malformed(self):
        with pytest.raises(XPathSyntaxError):
            parse_edge_path("a/b")
        with pytest.raises(XPathSyntaxError):
            parse_edge_path("./")


class TestNestingBound:
    """XPath and the JSON AST accept exactly the same twig depths."""

    def test_branch_bomb_is_a_syntax_error(self):
        with pytest.raises(XPathSyntaxError, match="deeper than"):
            parse_twig("//a" + "[./b" * 500 + "]" * 500)

    def test_bound_matches_the_json_ast(self):
        from repro.query.ast import MAX_TWIG_DEPTH
        from repro.query.jsonast import (
            QueryFormatError,
            twig_from_dict,
            twig_to_dict,
        )

        deepest = parse_twig("//a" * MAX_TWIG_DEPTH)
        restored = twig_from_dict(twig_to_dict(deepest))
        assert restored.to_xpath() == deepest.to_xpath()
        branched = "//a" + "[./b" * (MAX_TWIG_DEPTH - 1) + "]" * (MAX_TWIG_DEPTH - 1)
        assert twig_from_dict(twig_to_dict(parse_twig(branched)))
        with pytest.raises(XPathSyntaxError):
            parse_twig("//a" * (MAX_TWIG_DEPTH + 1))
        with pytest.raises(XPathSyntaxError):
            parse_twig("//a" + "[./b" * MAX_TWIG_DEPTH + "]" * MAX_TWIG_DEPTH)
        too_deep = twig_to_dict(deepest)
        too_deep["children"] = [
            {"name": "top", "edge": [["child", "r"]], "children": [
                dict(too_deep["children"][0])
            ]}
        ]
        with pytest.raises(QueryFormatError):
            twig_from_dict(too_deep)
