"""Unit and integration tests for XCLUSTERBUILD and its candidate pool."""

import copy

import pytest

from repro.core import (
    build_reference_synopsis,
    build_xcluster,
    structural_size_bytes,
    value_size_bytes,
)
from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.pool import CandidatePool, build_pool, candidate_pairs
from repro.core.sizing import merge_size_saving


@pytest.fixture
def reference(imdb_small):
    return build_reference_synopsis(imdb_small.tree, imdb_small.value_paths)


class TestSizing:
    def test_merge_size_saving_matches_actual(self, reference):
        synopsis = copy.deepcopy(reference)
        groups = {}
        for node in synopsis:
            if node.node_id != synopsis.root_id:
                groups.setdefault(node.merge_key(), []).append(node.node_id)
        pairs = [members[:2] for members in groups.values() if len(members) >= 2]
        assert pairs, "need at least one mergeable pair"
        for u_id, v_id in pairs[:10]:
            before = structural_size_bytes(synopsis)
            predicted = merge_size_saving(synopsis, u_id, v_id)
            synopsis.merge_nodes(u_id, v_id)
            after = structural_size_bytes(synopsis)
            assert before - after == predicted


class TestPool:
    def test_build_pool_scores_candidates(self, reference):
        synopsis = copy.deepcopy(reference)
        levels = synopsis.levels()
        pool = build_pool(synopsis, 500, 1, levels)
        assert len(pool) > 0
        candidate = pool.pop_best()
        assert candidate is not None
        assert candidate.delta >= 0.0
        assert candidate.size_saving >= 1

    def test_candidates_are_plain_tuples(self, reference):
        synopsis = copy.deepcopy(reference)
        pool = build_pool(synopsis, 500, 1, synopsis.levels())
        candidate = pool.pop_best()
        assert isinstance(candidate, tuple)
        assert candidate[:3] == (
            candidate.marginal_loss, candidate.u_id, candidate.v_id
        )

    def test_pool_capacity_enforced(self, reference):
        synopsis = copy.deepcopy(reference)
        levels = synopsis.levels()
        pool = build_pool(synopsis, 5, 3, levels)
        assert len(pool) <= 5

    def test_pop_discards_dead_candidates(self, reference):
        synopsis = copy.deepcopy(reference)
        levels = synopsis.levels()
        pool = build_pool(synopsis, 500, 1, levels)
        first = pool.pop_best()
        merged = synopsis.merge_nodes(first.u_id, first.v_id)
        pool.bump_versions([merged.node_id])
        while True:
            nxt = pool.pop_best()
            if nxt is None:
                break
            assert nxt.u_id in synopsis.nodes
            assert nxt.v_id in synopsis.nodes
            break

    def test_rescoring_after_version_bump(self, reference):
        synopsis = copy.deepcopy(reference)
        pool = CandidatePool(synopsis, 100, 16)
        groups = {}
        for node in synopsis:
            if node.node_id != synopsis.root_id:
                groups.setdefault(node.merge_key(), []).append(node.node_id)
        members = next(m for m in groups.values() if len(m) >= 2)
        pool.push_pair(members[0], members[1])
        pool.bump_versions([members[0]])
        candidate = pool.pop_best()  # must be rescored, not stale
        assert candidate is not None
        assert candidate.version == pool._pair_version(candidate.u_id, candidate.v_id)

    def test_candidate_pairs_exhaustive_for_small_groups(self, reference):
        nodes = reference.nodes_by_label("movie")[:4]
        if len(nodes) >= 2:
            pairs = list(candidate_pairs(reference, nodes, neighbors=2))
            expected = len(nodes) * (len(nodes) - 1) // 2
            assert len(pairs) == expected


class TestBuilder:
    def test_structural_budget_met(self, reference):
        synopsis = copy.deepcopy(reference)
        target = structural_size_bytes(synopsis) // 3
        config = BuildConfig(
            structural_budget=target,
            value_budget=10**9,
            pool_max=2000,
            pool_min=1000,
        )
        builder = XClusterBuilder(config)
        builder.compress(synopsis)
        assert structural_size_bytes(synopsis) <= target
        assert builder.stats.structural_budget_met
        assert builder.stats.merges_applied > 0
        synopsis.validate()

    def test_value_budget_met(self, reference):
        synopsis = copy.deepcopy(reference)
        target = value_size_bytes(synopsis) // 2
        config = BuildConfig(
            structural_budget=10**9,
            value_budget=target,
            pool_max=2000,
            pool_min=1000,
        )
        builder = XClusterBuilder(config)
        builder.compress(synopsis)
        assert value_size_bytes(synopsis) <= target
        assert builder.stats.value_budget_met
        assert builder.stats.value_steps_applied > 0
        assert builder.stats.merges_applied == 0

    def test_no_compression_when_within_budget(self, reference):
        synopsis = copy.deepcopy(reference)
        config = BuildConfig(structural_budget=10**9, value_budget=10**9)
        builder = XClusterBuilder(config)
        builder.compress(synopsis)
        assert builder.stats.merges_applied == 0
        assert builder.stats.value_steps_applied == 0
        assert len(synopsis) == len(reference)

    def test_extreme_budget_stops_gracefully(self, reference):
        synopsis = copy.deepcopy(reference)
        config = BuildConfig(
            structural_budget=1, value_budget=1, pool_max=500, pool_min=250
        )
        builder = XClusterBuilder(config)
        builder.compress(synopsis)  # must terminate
        synopsis.validate()
        # The root plus at least one node per distinct (tag, type) remain.
        assert len(synopsis) >= 1

    def test_build_from_tree(self, imdb_small):
        synopsis = build_xcluster(
            imdb_small.tree,
            structural_budget=2048,
            value_budget=16384,
            value_paths=imdb_small.value_paths,
            config=BuildConfig(pool_max=1000, pool_min=500),
        )
        synopsis.validate()
        assert structural_size_bytes(synopsis) <= 2048

    def test_determinism(self, imdb_small):
        def build():
            return build_xcluster(
                imdb_small.tree,
                structural_budget=3000,
                value_budget=20000,
                value_paths=imdb_small.value_paths,
                config=BuildConfig(pool_max=1000, pool_min=500),
            )

        first = build()
        second = build()
        assert len(first) == len(second)
        assert structural_size_bytes(first) == structural_size_bytes(second)
        assert value_size_bytes(first) == value_size_bytes(second)

    def test_element_count_invariant_under_compression(self, reference):
        synopsis = copy.deepcopy(reference)
        total_before = synopsis.total_element_count()
        config = BuildConfig(
            structural_budget=structural_size_bytes(synopsis) // 4,
            value_budget=value_size_bytes(synopsis) // 4,
            pool_max=1000,
            pool_min=500,
        )
        XClusterBuilder(config).compress(synopsis)
        assert synopsis.total_element_count() == total_before
