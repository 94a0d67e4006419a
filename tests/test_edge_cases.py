"""Edge-case coverage across modules: the corners integration misses."""

import random

import pytest

from repro.check.oracles import XClusterEstimator
from repro.core.pool import candidate_pairs, similarity_key
from repro.core.synopsis import XClusterSynopsis
from repro.query import parse_edge_path, parse_twig
from repro.query.ast import AxisStep
from repro.workload.generator import (
    TwigWorkloadGenerator,
    WorkloadConfig,
    _weighted_choice,
)
from repro.xmltree import parse_string
from repro.xmltree.types import ValueType


class TestEstimatorMultiStepEdges:
    """The estimator supports multi-step edge paths directly."""

    @pytest.fixture
    def synopsis(self):
        synopsis = XClusterSynopsis()
        r = synopsis.add_node("r", ValueType.NULL, 1)
        a = synopsis.add_node("a", ValueType.NULL, 4)
        b = synopsis.add_node("b", ValueType.NULL, 8)
        c = synopsis.add_node("c", ValueType.NULL, 24)
        synopsis.set_root(r)
        synopsis.add_edge(r, a, 4.0)
        synopsis.add_edge(a, b, 2.0)
        synopsis.add_edge(b, c, 3.0)
        return synopsis

    def test_two_step_child_path(self, synopsis):
        estimator = XClusterEstimator(synopsis)
        a_id = synopsis.nodes_by_label("a")[0].node_id
        reach = estimator.reach(a_id, parse_edge_path("./b/c"))
        c_id = synopsis.nodes_by_label("c")[0].node_id
        assert reach[c_id] == pytest.approx(6.0)

    def test_child_then_descendant(self, synopsis):
        estimator = XClusterEstimator(synopsis)
        r_id = synopsis.root_id
        reach = estimator.reach(r_id, parse_edge_path("./a//c"))
        c_id = synopsis.nodes_by_label("c")[0].node_id
        assert reach[c_id] == pytest.approx(4.0 * 2.0 * 3.0)

    def test_unreachable_label(self, synopsis):
        estimator = XClusterEstimator(synopsis)
        assert estimator.reach(synopsis.root_id, parse_edge_path("./zzz")) == {}

    def test_wildcard_step(self, synopsis):
        estimator = XClusterEstimator(synopsis)
        reach = estimator.reach(synopsis.root_id, parse_edge_path("./*/b"))
        b_id = synopsis.nodes_by_label("b")[0].node_id
        assert reach[b_id] == pytest.approx(8.0)


class TestPoolInternals:
    def test_similarity_key_orders_like_structures_together(self, imdb_reference):
        movies = imdb_reference.nodes_by_label("movie")
        keys = [similarity_key(imdb_reference, node) for node in movies]
        # Keys are comparable and deterministic.
        assert sorted(keys) == sorted(keys)

    def test_candidate_pairs_neighbor_mode(self, imdb_reference):
        # Force the neighbor path by using a large synthetic group.
        synopsis = XClusterSynopsis()
        root = synopsis.add_node("r", ValueType.NULL, 1)
        synopsis.set_root(root)
        members = []
        for index in range(40):
            node = synopsis.add_node("x", ValueType.NULL, index + 1)
            synopsis.add_edge(root, node, 1.0)
            members.append(node)
        pairs = list(candidate_pairs(synopsis, members, neighbors=3))
        # Neighbor mode: ~3 pairs per node, far fewer than 40*39/2.
        assert 0 < len(pairs) < 40 * 39 // 2
        assert all(u != v for u, v in pairs)

    def test_candidate_pairs_small_group_exhaustive(self, imdb_reference):
        synopsis = XClusterSynopsis()
        root = synopsis.add_node("r", ValueType.NULL, 1)
        synopsis.set_root(root)
        members = []
        for index in range(5):
            node = synopsis.add_node("x", ValueType.NULL, index + 1)
            synopsis.add_edge(root, node, 1.0)
            members.append(node)
        pairs = list(candidate_pairs(synopsis, members, neighbors=2))
        assert len(pairs) == 10


class TestWorkloadInternals:
    @pytest.fixture
    def generator(self, imdb_small):
        return TwigWorkloadGenerator(
            imdb_small, seed=3, config=WorkloadConfig(queries_per_class=2)
        )

    def test_weighted_choice_prefers_heavy_items(self):
        rng = random.Random(0)
        items = [("light", 1), ("heavy", 99)]
        draws = [_weighted_choice(rng, items) for _ in range(200)]
        assert draws.count("heavy") > 150

    def test_spine_protect_leaf_forces_child_axis(self, generator):
        path = ("imdb", "movie", "cast", "actor", "name")
        for _ in range(30):
            steps = generator._spine_steps(path, protect_leaf=True)
            assert steps[-1].axis == "child"
            assert steps[-1].label == "name"

    def test_spine_unprotected_may_end_descendant(self, generator):
        path = ("imdb", "movie", "cast", "actor", "name")
        axes = {
            generator._spine_steps(path)[-1].axis for _ in range(60)
        }
        assert "descendant" in axes  # compression does happen

    def test_needle_frequency_bias(self, imdb_small):
        config = WorkloadConfig(
            queries_per_class=2, high_count_bias=0.0, min_needle_frequency=3
        )
        generator = TwigWorkloadGenerator(imdb_small, seed=9, config=config)
        pool = next(
            pool
            for pool in generator._pools.values()
            if pool.value_type is ValueType.STRING and len(pool.elements) > 20
        )
        element = pool.elements[0]
        frequent_enough = 0
        trials = 30
        for _ in range(trials):
            predicate = generator._string_predicate(element)
            frequency = pool.substring_index.lookup(predicate.needle)
            if frequency is None or frequency >= 3:
                frequent_enough += 1
        assert frequent_enough > trials * 0.5

    def test_branch_predicate_twig_shape(self, generator, imdb_small):
        target = next(
            element
            for element in imdb_small.tree
            if element.label_path() == ("imdb", "movie", "year")
        )
        predicate = generator._numeric_predicate(target)
        twig = generator._build_branch_predicate_twig(target, predicate)
        assert twig is not None
        predicated = [n for n in twig.nodes() if n.has_value_predicate]
        assert len(predicated) == 1
        assert predicated[0].edge.target_label == "year"
        # Some variable (the anchor) carries both the predicate branch
        # and a structural continuation into a sibling subtree.
        assert any(len(node.children) >= 2 for node in twig.nodes())


class TestParserResilience:
    def test_deeply_nested_document(self):
        depth = 120
        text = "".join(f"<n{i}>" for i in range(depth))
        text += "".join(f"</n{i}>" for i in reversed(range(depth)))
        tree = parse_string(text)
        assert len(tree) == depth

    def test_many_siblings(self):
        text = "<r>" + "<x/>" * 5000 + "</r>"
        tree = parse_string(text)
        assert len(tree) == 5001

    def test_unicode_content(self):
        tree = parse_string("<a><s>ünïcodé çontent</s></a>")
        assert "ünïcodé" in tree.root.children[0].value

    def test_whitespace_only_content_is_null(self):
        tree = parse_string("<a><b>   \n\t </b></a>")
        assert tree.root.children[0].value is None


class TestTwigRendering:
    def test_render_parse_fixpoint(self):
        texts = [
            "//a/b/c",
            "//a[./b >= 2]/c",
            "//a[./b][./c contains(x)]/d[. ftcontains(t)]",
            "/a/*//b",
        ]
        for text in texts:
            first = parse_twig(text)
            second = parse_twig(first.to_xpath())
            assert second.variable_count == first.variable_count
            assert second.predicate_count == first.predicate_count
            # Rendering is a fixpoint after one round trip.
            assert parse_twig(second.to_xpath()).to_xpath() == second.to_xpath()


class TestAxisStepEquality:
    def test_steps_hashable(self):
        assert AxisStep("child", "a") == AxisStep("child", "a")
        assert len({AxisStep("child", "a"), AxisStep("child", "a")}) == 1
        assert AxisStep("child", "a") != AxisStep("descendant", "a")
