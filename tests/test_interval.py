"""The pre/post interval-join evaluator vs the tree-walk oracle.

The contract is **bit-exact** equality of binding-tuple counts (paper
Section 2): an element reachable from its context via several distinct
axis paths contributes once per path, and both engines must count those
paths identically.  Tests cover the new pre/post/level columns, hand
computable multiplicity cases, randomized parity over fuzz documents
with ``//``-heavy and wildcard twig mutations, the one-engine entry
point over both substrates, and the deep-document regression for the
oracle's iterative walk.
"""

from __future__ import annotations

import pytest

from repro.check.diffharness import DocumentConfig, DocumentGenerator
from repro.check.oracles import TreeWalkEvaluator
from repro.datasets import generate_xmark
from repro.datasets.dataset import Dataset
from repro.query import parse_twig
from repro.query.ast import AxisStep, EdgePath, QueryNode, TwigQuery
from repro.query.evaluator import ExactEvaluator, evaluate_selectivity
from repro.query.interval import IntervalEvaluator
from repro.workload.generator import generate_workload
from repro.xmltree import parse_string
from repro.xmltree.columnar import ColumnarDocument, freeze, ingest_string
from repro.xmltree.tree import XMLElement, XMLTree

XML = (
    '<a x="1"><b><c>one two three</c><d/></b>'
    '<b y="2"><e>7</e></b><c>word</c></a>'
)


def _chain(labels):
    """A single root-to-leaf chain tree from a label list."""
    root = XMLElement(labels[0])
    node = root
    for label in labels[1:]:
        node = node.add(label)
    return XMLTree(root)


def _twig(*steps):
    """A one-variable twig whose edge is the given (axis, label) steps."""
    query = TwigQuery(QueryNode("q0"))
    query.root.add_child(
        QueryNode("q1", EdgePath(tuple(AxisStep(a, l) for a, l in steps)))
    )
    return query


def _assert_parity(tree, queries):
    oracle = TreeWalkEvaluator(tree)
    engine = IntervalEvaluator(freeze(tree))
    for query in queries:
        if isinstance(query, str):
            query = parse_twig(query)
        assert oracle.selectivity(query) == engine.selectivity(query), (
            query.to_xpath()
        )


class TestPrePostColumns:
    def test_ingest_and_freeze_agree_bit_exactly(self):
        streamed = ingest_string(XML)
        frozen = freeze(parse_string(XML))
        assert list(streamed.post) == list(frozen.post)
        assert list(streamed.level) == list(frozen.level)

    def test_postorder_is_a_permutation_closing_children_first(self):
        doc = ingest_string(XML)
        ranks = list(doc.post)
        assert sorted(ranks) == list(range(len(doc)))
        parent = doc.parent
        for index in range(1, len(doc)):
            # Every child closes before its parent.
            assert doc.post[index] < doc.post[parent[index]]

    def test_level_is_root_distance(self):
        doc = ingest_string(XML)
        parent = doc.parent
        for index in range(len(doc)):
            depth = 0
            node = index
            while parent[node] >= 0:
                node = parent[node]
                depth += 1
            assert doc.level[index] == depth

    def test_is_descendant_matches_interval_definition(self):
        doc = ingest_string(XML)
        ends = doc.subtree_ends()
        for a in range(len(doc)):
            for d in range(len(doc)):
                expected = a < d < ends[a]
                assert doc.is_descendant(d, a) == expected

    def test_subtree_ends_cover_contiguous_subtrees(self):
        doc = ingest_string(XML)
        ends = doc.subtree_ends()
        assert ends[0] == len(doc)
        for index in range(len(doc)):
            assert index < ends[index] <= len(doc)

    def test_label_positions_partition_the_preorder(self):
        doc = ingest_string(XML)
        positions = doc.label_positions()
        seen = sorted(
            index for column in positions for index in column
        )
        assert seen == list(range(len(doc)))
        for label_id, column in enumerate(positions):
            assert list(column) == sorted(column)
            assert all(doc.labels[i] == label_id for i in column)


class TestHandComputedMultiplicity:
    """The Section 2 "once per path" rule on hand-checkable documents."""

    def test_descendant_descendant_counts_intermediate_choices(self):
        # Chain a1>a2>a3>a4: the two-step edge .//a//a reaches target
        # a_k via each of its k-1 proper ancestors as the intermediate,
        # so a2 counts 1, a3 counts 2, a4 counts 3.  Total 6.
        tree = _chain(["a", "a", "a", "a"])
        query = _twig(("descendant", "a"), ("descendant", "a"))
        assert TreeWalkEvaluator(tree).selectivity(query) == 6
        assert IntervalEvaluator(freeze(tree)).selectivity(query) == 6

    def test_wildcard_steps_multiply_paths(self):
        # Chain r>a>b>c: .//*//* reaches a via intermediate {r}, b via
        # {r, a}, c via {r, a, b}.  Total 1 + 2 + 3 = 6.
        tree = _chain(["r", "a", "b", "c"])
        query = _twig(("descendant", "*"), ("descendant", "*"))
        expected = TreeWalkEvaluator(tree).selectivity(query)
        assert expected == 6
        assert IntervalEvaluator(freeze(tree)).selectivity(query) == expected

    def test_branching_twig_multiplies_branch_totals(self):
        # //a with two a-children: q1 binds a1 (2 child a's * their
        # own subtree tuples) — parity plus the exact product shape.
        root = XMLElement("a")
        left = root.add("a")
        left.add("b")
        root.add("a")
        tree = XMLTree(root)
        query = parse_twig("//a/a")
        oracle = TreeWalkEvaluator(tree).selectivity(query)
        assert oracle == 2  # a1 has two a-children; a2/a3 have none
        assert IntervalEvaluator(freeze(tree)).selectivity(query) == oracle

    def test_multi_path_reachable_element_counts_once_per_path(self):
        tree = _chain(["a", "a", "a"])
        # One variable, edge //a//a: a3 reachable via a1 and a2.
        query = _twig(("descendant", "a"), ("descendant", "a"))
        assert TreeWalkEvaluator(tree).selectivity(query) == 1 + 2
        assert IntervalEvaluator(freeze(tree)).selectivity(query) == 3


class TestParityHandwritten:
    def test_small_document_query_zoo(self):
        tree = parse_string(XML)
        self_queries = [
            "/a",
            "//b",
            "/a/b/c",
            "//c",
            "//*",
            "/a//c",
            "//b[./e >= 3]",
            "//b//d",
            "/nosuchroot",
            "//nosuchlabel",
            "/a/*",
            "//*/c",
        ]
        _assert_parity(tree, self_queries)

    def test_xmark_query_zoo(self):
        dataset = generate_xmark(0.05, 11)
        _assert_parity(
            dataset.tree,
            [
                "/site",
                "//item",
                "/site//item/name",
                "//open_auction[./bidder]/bidder",
                "//person//name",
                "//*//name",
                "/site/regions//item[.//name]",
            ],
        )

    def test_predicates_filter_the_final_frontier(self):
        tree = parse_string(XML)
        _assert_parity(
            tree,
            [
                "//e[. >= 7]",
                "//e[. >= 8]",
                "//c[. contains(wor)]",
                "//b[./e <= 6]",
            ],
        )


class TestParityRandomized:
    def test_fuzz_documents_and_workloads(self, seeded_rng):
        generator = DocumentGenerator(DocumentConfig())
        for _ in range(6):
            tree = generator.generate(seeded_rng)
            dataset = Dataset("fuzz", tree, tree.value_paths())
            workload = generate_workload(
                dataset, queries_per_class=3,
                seed=seeded_rng.randrange(2**32),
            )
            oracle = TreeWalkEvaluator(tree)
            engine = IntervalEvaluator(freeze(tree))
            for wq in workload.queries:
                count = oracle.selectivity(wq.query)
                assert engine.selectivity(wq.query) == count
                assert wq.exact == count  # generator graded correctly

    def test_descendant_heavy_mutations(self, seeded_rng):
        """Property: parity survives //-flips and wildcard widening."""
        generator = DocumentGenerator(DocumentConfig())
        tree = generator.generate(seeded_rng)
        dataset = Dataset("fuzz", tree, tree.value_paths())
        workload = generate_workload(dataset, queries_per_class=3, seed=5)
        oracle = TreeWalkEvaluator(tree)
        engine = IntervalEvaluator(freeze(tree))
        for wq in workload.queries:
            for _ in range(3):
                mutated = parse_twig(wq.query.to_xpath())
                for node in mutated.nodes():
                    if node.edge is None:
                        continue
                    node.edge = EdgePath(
                        tuple(
                            AxisStep(
                                "descendant"
                                if seeded_rng.random() < 0.5
                                else step.axis,
                                "*"
                                if seeded_rng.random() < 0.25
                                else step.label,
                            )
                            for step in node.edge.steps
                        )
                    )
                assert oracle.selectivity(mutated) == engine.selectivity(
                    mutated
                ), mutated.to_xpath()


class TestDispatch:
    def test_exact_evaluator_accepts_columnar_documents(self):
        doc = ingest_string(XML)
        query = parse_twig("//b//c")
        assert ExactEvaluator(doc).selectivity(query) == 1
        assert evaluate_selectivity(doc, query) == 1

    def test_interval_engine_accepts_trees(self):
        tree = parse_string(XML)
        query = parse_twig("//b")
        evaluator = ExactEvaluator(tree)  # frozen once, at the entry
        assert isinstance(evaluator.doc, ColumnarDocument)
        assert evaluator.selectivity(query) == 2

    def test_unknown_engine_is_rejected(self):
        # There is one engine: any ``engine=`` argument is a TypeError.
        with pytest.raises(TypeError):
            ExactEvaluator(parse_string(XML), engine="quantum")

    def test_matches_agrees_across_engines(self):
        tree = parse_string(XML)
        for text in ("//b", "//nosuchlabel"):
            query = parse_twig(text)
            assert ExactEvaluator(tree).matches(query) == TreeWalkEvaluator(
                tree
            ).matches(query)


class TestDeepDocuments:
    def test_descendants_walks_a_deep_chain_iteratively(self):
        tree = _chain(["n"] * 5000 + ["leaf"])
        assert sum(1 for _ in tree.root.descendants()) == 5000

    def test_oracle_evaluates_a_deep_chain(self):
        # Far beyond the default recursion limit: a recursive walk (or
        # per-level generator delegation) would blow the stack here.
        tree = _chain(["n"] * 5000 + ["leaf"])
        query = parse_twig("//leaf")
        assert TreeWalkEvaluator(tree).selectivity(query) == 1
        assert IntervalEvaluator(freeze(tree)).selectivity(query) == 1

    def test_deep_chain_descendant_multiplicities(self):
        tree = _chain(["n"] * 800)
        query = _twig(("descendant", "n"), ("descendant", "n"))
        expected = TreeWalkEvaluator(tree).selectivity(query)
        # Target n_k is reachable via any of its k-1 proper ancestors:
        # sum of 1..799.
        assert expected == 799 * 800 // 2
        assert IntervalEvaluator(freeze(tree)).selectivity(query) == expected


class TestEdgeCases:
    def test_bare_root_query_counts_one(self):
        tree = parse_string(XML)
        query = TwigQuery(QueryNode("q0"))
        assert TreeWalkEvaluator(tree).selectivity(query) == 1
        assert IntervalEvaluator(freeze(tree)).selectivity(query) == 1

    def test_single_element_document(self):
        tree = XMLTree(XMLElement("only"))
        _assert_parity(tree, ["/only", "//only", "//other", "/only/*"])

    def test_attribute_steps(self):
        tree = parse_string(XML)
        _assert_parity(tree, ["//@x", "/a/@x", "//b/@y", "//@nope"])
