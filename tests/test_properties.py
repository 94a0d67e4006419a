"""Cross-cutting property-based tests over random documents.

These tie the substrates together: random trees go through reference
construction, compression, and estimation, and the structural invariants
of the paper must hold at every step.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import (
    build_reference_synopsis,
    build_tag_synopsis,
    structural_size_bytes,
)
from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.estimation import estimate_selectivity
from repro.query import parse_twig
from repro.query.evaluator import evaluate_selectivity
from repro.xmltree import XMLElement, XMLTree


@st.composite
def random_trees(draw):
    """Small random documents with a fixed label alphabet and values."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    labels = ["a", "b", "c", "d"]

    def grow(node: XMLElement, depth: int) -> None:
        if depth >= 4:
            return
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.25:
                node.add(rng.choice(labels), rng.randint(0, 20))
            elif roll < 0.4:
                node.add(rng.choice(labels), rng.choice(["foo", "bar", "bazaar"]))
            elif roll < 0.5:
                node.add(
                    rng.choice(labels),
                    frozenset(rng.sample(["t1", "t2", "t3", "t4"], rng.randint(1, 3))),
                )
            else:
                grow(node.add(rng.choice(labels)), depth + 1)

    root = XMLElement("root")
    grow(root, 0)
    return XMLTree(root)


@given(random_trees())
@settings(max_examples=30, deadline=None)
def test_reference_partition_invariants(tree):
    synopsis = build_reference_synopsis(tree)
    synopsis.validate()
    # Extents partition the document.
    assert synopsis.total_element_count() == len(tree)
    # Tree-shaped: every non-root node has exactly one parent cluster.
    for node in synopsis:
        if node.node_id == synopsis.root_id:
            assert not node.parents
        else:
            assert len(node.parents) == 1
    # Count stability: averages of a count-stable partition are integral.
    for node in synopsis:
        for average in node.children.values():
            assert average == pytest.approx(round(average), abs=1e-9)


@given(random_trees())
@settings(max_examples=30, deadline=None)
def test_reference_estimates_structural_queries_exactly(tree):
    synopsis = build_reference_synopsis(tree)
    for text in ("//a", "//b", "/root/a", "/root/*/c", "//a//b"):
        query = parse_twig(text)
        exact = evaluate_selectivity(tree, query)
        estimate = estimate_selectivity(synopsis, query)
        assert estimate == pytest.approx(float(exact), abs=1e-6), text


def _is_acyclic(synopsis):
    state = {}

    def visit(node_id):
        state[node_id] = "visiting"
        for child_id in synopsis.node(node_id).children:
            mark = state.get(child_id)
            if mark == "visiting":
                return False
            if mark is None and not visit(child_id):
                return False
        state[node_id] = "done"
        return True

    return all(
        visit(node_id) for node_id in list(synopsis.nodes) if node_id not in state
    )


@given(random_trees())
@settings(max_examples=20, deadline=None)
def test_tag_synopsis_exact_for_whole_label_counts(tree):
    """//x over an *acyclic* tag synopsis counts every x element exactly.

    Recursive tags make the tag graph cyclic, where bounded path
    expansion is only an approximation — those cases are skipped here
    and covered by test_estimates_never_negative.
    """
    synopsis = build_tag_synopsis(tree)
    assume(_is_acyclic(synopsis))
    for label in ("a", "b", "c", "d"):
        exact = evaluate_selectivity(tree, parse_twig(f"//{label}"))
        estimate = estimate_selectivity(synopsis, parse_twig(f"//{label}"))
        assert estimate == pytest.approx(float(exact), rel=1e-6, abs=1e-6)


@given(random_trees(), st.integers(min_value=2, max_value=10))
@settings(max_examples=20, deadline=None)
def test_compression_preserves_graph_invariants(tree, divisor):
    synopsis = build_reference_synopsis(tree)
    total = synopsis.total_element_count()
    budget = max(17, structural_size_bytes(synopsis) // divisor)
    config = BuildConfig(
        structural_budget=budget, value_budget=10**9, pool_max=200, pool_min=100
    )
    XClusterBuilder(config).compress(synopsis)
    synopsis.validate()
    assert synopsis.total_element_count() == total
    # Whole-label counts survive arbitrary merging (in acyclic results):
    # //x is estimated from cluster counts alone.
    assume(_is_acyclic(synopsis))
    for label in ("a", "b"):
        exact = evaluate_selectivity(tree, parse_twig(f"//{label}"))
        estimate = estimate_selectivity(synopsis, parse_twig(f"//{label}"))
        assert estimate == pytest.approx(float(exact), rel=1e-6, abs=1e-6)


@given(random_trees())
@settings(max_examples=20, deadline=None)
def test_estimates_never_negative(tree):
    synopsis = build_reference_synopsis(tree)
    for text in ("//a[./b]/c", "//d[. >= 5]", "//b[. contains(ba)]"):
        assert estimate_selectivity(synopsis, parse_twig(text)) >= 0.0
