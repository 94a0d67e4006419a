"""Tests for the vectorized candidate-scoring engine.

The contract under test: the profile-backed :class:`ScoringEngine` is a
drop-in numerical replacement for the scalar Δ implementations in
:mod:`repro.core.distance` (parity to float rounding), so the production
builder and the scalar :class:`~repro.check.oracles.ReferenceBuilder`
make the same merge decisions.
"""

import heapq
import random
import string

import pytest

from repro.check.oracles import ReferenceBuilder, reference_stepper
from repro.core import build_reference_synopsis, build_xcluster
from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.distance import compression_delta, merge_delta
from repro.core.pool import CandidatePool, MergeCandidate
from repro.core.scoring import ScoringEngine, predicate_key
from repro.core.sizing import structural_size_bytes, value_size_bytes
from repro.core.synopsis import XClusterSynopsis
from repro.values.histogram import Histogram
from repro.values.kernels.queue import make_stepper
from repro.values.pst import PrunedSuffixTree
from repro.values.summary import StringSummary, SummaryConfig, build_summary
from repro.xmltree.types import ValueType

TOLERANCE = dict(rel=1e-9, abs=1e-9)


def random_values(rng: random.Random, value_type: ValueType):
    """A random value collection for one summarized cluster."""
    size = rng.randint(2, 40)
    if value_type is ValueType.NUMERIC:
        return [rng.randint(0, 500) for _ in range(size)]
    if value_type is ValueType.STRING:
        return [
            "".join(rng.choices(string.ascii_lowercase[:6], k=rng.randint(2, 8)))
            for _ in range(size)
        ]
    return [
        frozenset(
            rng.sample(["red", "green", "blue", "cyan", "teal", "plum"],
                       rng.randint(1, 4))
        )
        for _ in range(size)
    ]


def make_random_synopsis(rng: random.Random, value_type: ValueType, group=4):
    """A root, one merge-compatible summarized group, and random children."""
    config = SummaryConfig()
    synopsis = XClusterSynopsis()
    root = synopsis.add_node("r", ValueType.NULL, 1)
    synopsis.set_root(root)
    shared_children = [
        synopsis.add_node(f"c{index}", ValueType.NULL, 1) for index in range(3)
    ]
    members = []
    for _ in range(group):
        values = random_values(rng, value_type)
        vsumm = (
            build_summary(value_type, values, config)
            if rng.random() > 0.15
            else None  # sometimes unsummarized: the absorb case
        )
        node = synopsis.add_node("y", value_type, len(values), vsumm)
        synopsis.add_edge(root, node, 1.0)
        for child in shared_children:
            if rng.random() < 0.6:
                synopsis.add_edge(node, child, rng.uniform(0.5, 6.0))
        members.append(node)
    return synopsis, members


class TestMergeDeltaParity:
    @pytest.mark.parametrize(
        "value_type", [ValueType.NUMERIC, ValueType.STRING, ValueType.TEXT]
    )
    def test_randomized_parity(self, value_type):
        rng = random.Random(hash(value_type.name) & 0xFFFF)
        for trial in range(12):
            synopsis, members = make_random_synopsis(rng, value_type)
            engine = ScoringEngine(synopsis, predicate_limit=24)
            scalar_cache = {}
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    u, v = members[i], members[j]
                    expected = merge_delta(synopsis, u, v, 24, scalar_cache)
                    got = engine.merge_delta(u, v)
                    assert got == pytest.approx(expected, **TOLERANCE)

    def test_leaf_merge_parity(self):
        rng = random.Random(7)
        config = SummaryConfig()
        synopsis = XClusterSynopsis()
        root = synopsis.add_node("r", ValueType.NULL, 1)
        synopsis.set_root(root)
        u = synopsis.add_node(
            "y", ValueType.NUMERIC, 5,
            build_summary(ValueType.NUMERIC, [1, 2, 3, 4, 5], config),
        )
        v = synopsis.add_node(
            "y", ValueType.NUMERIC, 3,
            build_summary(ValueType.NUMERIC, [100, 200, 300], config),
        )
        synopsis.add_edge(root, u, 1.0)
        synopsis.add_edge(root, v, 1.0)
        engine = ScoringEngine(synopsis, predicate_limit=16)
        expected = merge_delta(synopsis, u, v, 16, {})
        assert engine.merge_delta(u, v) == pytest.approx(expected, **TOLERANCE)
        assert expected > 0.0

    def test_reference_synopsis_parity(self, imdb_small):
        """Parity over a real reference synopsis (all summary kinds)."""
        synopsis = build_reference_synopsis(
            imdb_small.tree, imdb_small.value_paths
        )
        engine = ScoringEngine(synopsis, predicate_limit=32)
        scalar_cache = {}
        groups = {}
        for node in synopsis:
            if node.node_id != synopsis.root_id:
                groups.setdefault(node.merge_key(), []).append(node)
        checked = 0
        for members in groups.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    u, v = members[i], members[j]
                    expected = merge_delta(synopsis, u, v, 32, scalar_cache)
                    assert engine.merge_delta(u, v) == pytest.approx(
                        expected, **TOLERANCE
                    )
                    checked += 1
        assert checked > 10


class TestCompressionDeltaParity:
    @pytest.mark.parametrize(
        "value_type", [ValueType.NUMERIC, ValueType.STRING, ValueType.TEXT]
    )
    def test_randomized_parity(self, value_type):
        rng = random.Random(hash(value_type.name) & 0xFF)
        for trial in range(10):
            synopsis, members = make_random_synopsis(rng, value_type)
            engine = ScoringEngine(synopsis, predicate_limit=24)
            for node in members:
                if node.vsumm is None or not node.vsumm.can_compress:
                    continue
                compressed = node.vsumm.compress(2)
                if compressed is None:
                    continue
                expected = compression_delta(node, compressed, 24, {})
                got = engine.compression_delta(node, compressed)
                assert got == pytest.approx(expected, **TOLERANCE)


class TestHistogramCDF:
    def test_cdf_matches_linear_scan(self):
        rng = random.Random(99)
        for _ in range(25):
            values = [rng.randint(0, 300) for _ in range(rng.randint(1, 200))]
            histogram = Histogram.from_values(values, rng.randint(1, 32))
            for _ in range(40):
                low = rng.randint(-20, 320)
                high = low + rng.randint(0, 120)
                assert histogram.selectivity_cdf(low, high) == pytest.approx(
                    histogram.selectivity(low, high), rel=1e-9, abs=1e-12
                )

    def test_empty_histogram(self):
        histogram = Histogram(())
        assert histogram.selectivity_cdf(0, 10) == 0.0


class TestProfiles:
    def test_profile_reused_across_scores(self, imdb_small):
        synopsis = build_reference_synopsis(
            imdb_small.tree, imdb_small.value_paths
        )
        engine = ScoringEngine(synopsis, predicate_limit=16)
        groups = {}
        for node in synopsis:
            if node.node_id != synopsis.root_id:
                groups.setdefault(node.merge_key(), []).append(node)
        members = next(m for m in groups.values() if len(m) >= 3)
        engine.merge_delta(members[0], members[1])
        misses_after_first = engine.profile_misses
        engine.merge_delta(members[0], members[2])
        assert engine.profile_hits >= 1
        assert engine.profile_misses == misses_after_first + 1  # only the new node

    def test_profile_invalidated_on_summary_swap(self):
        config = SummaryConfig()
        synopsis = XClusterSynopsis()
        root = synopsis.add_node("r", ValueType.NULL, 1)
        synopsis.set_root(root)
        node = synopsis.add_node(
            "y", ValueType.NUMERIC, 4,
            build_summary(ValueType.NUMERIC, [1, 5, 9, 13], config),
        )
        synopsis.add_edge(root, node, 1.0)
        engine = ScoringEngine(synopsis, predicate_limit=16)
        first = engine.profile_for(node)
        assert engine.profile_for(node) is first
        node.vsumm = build_summary(ValueType.NUMERIC, [2, 4], config)
        second = engine.profile_for(node)
        assert second is not first
        assert second.vsumm is node.vsumm

    def test_bump_versions_drops_profiles(self):
        rng = random.Random(4)
        synopsis, members = make_random_synopsis(rng, ValueType.NUMERIC)
        engine = ScoringEngine(synopsis, predicate_limit=16)
        pool = CandidatePool(synopsis, 100, 16, engine=engine)
        node = members[0]
        engine.profile_for(node)
        assert node.node_id in engine.profiles
        pool.bump_versions([node.node_id])
        assert node.node_id not in engine.profiles


class TestPoolCapacityPolicy:
    def _pool_with_candidates(self, count, max_size):
        synopsis = XClusterSynopsis()
        root = synopsis.add_node("r", ValueType.NULL, 1)
        synopsis.set_root(root)
        pool = CandidatePool(synopsis, max_size, 16, slack=1.5)
        for index in range(count):
            loss = float(index)
            heapq.heappush(
                pool._heap, MergeCandidate(loss, index * 2, index * 2 + 1, loss, 1)
            )
        return pool

    def test_overflow_within_slack_not_trimmed(self):
        pool = self._pool_with_candidates(14, 10)  # 14 < 10 * 1.5
        pool.enforce_capacity()
        assert len(pool) == 14
        assert pool.trims == 0

    def test_overflow_beyond_slack_trims_to_max(self):
        pool = self._pool_with_candidates(16, 10)  # 16 > 10 * 1.5
        pool.enforce_capacity()
        assert len(pool) == 10
        assert pool.trims == 1
        assert pool.candidates_trimmed == 6

    def test_strict_trim(self):
        pool = self._pool_with_candidates(12, 10)
        pool.enforce_capacity(strict=True)
        assert len(pool) == 10

    def test_trims_keep_best_candidates(self):
        pool = self._pool_with_candidates(30, 10)
        pool.enforce_capacity(strict=True)
        losses = sorted(c.marginal_loss for c in pool._heap)
        assert losses == [float(i) for i in range(10)]


class TestBuilderIntegration:
    def test_build_xcluster_does_not_mutate_config(self, imdb_small):
        config = BuildConfig(pool_max=1000, pool_min=500)
        original_structural = config.structural_budget
        original_value = config.value_budget
        build_xcluster(
            imdb_small.tree,
            structural_budget=2048,
            value_budget=16384,
            value_paths=imdb_small.value_paths,
            config=config,
        )
        assert config.structural_budget == original_structural
        assert config.value_budget == original_value

    def test_scalar_and_vectorized_builds_agree(self, imdb_small):
        """The production builder and the scalar-Δ ReferenceBuilder."""

        def build(builder_class):
            synopsis = build_reference_synopsis(
                imdb_small.tree, imdb_small.value_paths
            )
            config = BuildConfig(
                structural_budget=structural_size_bytes(synopsis) // 3,
                value_budget=value_size_bytes(synopsis) // 2,
                pool_max=2000,
                pool_min=1000,
            )
            builder = builder_class(config)
            builder.compress(synopsis)
            return builder.stats, synopsis

        scalar_stats, scalar_synopsis = build(ReferenceBuilder)
        vector_stats, vector_synopsis = build(XClusterBuilder)
        assert vector_stats.merges_applied == scalar_stats.merges_applied
        assert len(vector_synopsis) == len(scalar_synopsis)
        assert structural_size_bytes(vector_synopsis) == structural_size_bytes(
            scalar_synopsis
        )

    def test_build_stats_profiling_counters(self, imdb_small):
        synopsis = build_reference_synopsis(
            imdb_small.tree, imdb_small.value_paths
        )
        config = BuildConfig(
            structural_budget=structural_size_bytes(synopsis) // 3,
            value_budget=value_size_bytes(synopsis) // 2,
            pool_max=2000,
            pool_min=1000,
        )
        builder = XClusterBuilder(config)
        builder.compress(synopsis)
        stats = builder.stats
        assert stats.pool_build_seconds > 0.0
        assert stats.merge_phase_seconds >= stats.pool_build_seconds
        assert stats.value_phase_seconds > 0.0
        assert stats.scoring_calls > 0
        assert stats.selectivity_cache_hits + stats.selectivity_cache_misses > 0
        assert 0.0 <= stats.selectivity_cache_hit_rate <= 1.0
        assert stats.profile_hits > 0
        assert stats.profile_hit_rate > 0.0


class TestCanonicalPredicates:
    @pytest.mark.parametrize(
        "value_type", [ValueType.NUMERIC, ValueType.STRING, ValueType.TEXT]
    )
    def test_memoized_and_equal_to_atomic(self, value_type):
        rng = random.Random(11)
        summary = build_summary(
            value_type, random_values(rng, value_type), SummaryConfig()
        )
        canonical = summary.canonical_atomic_predicates(16)
        assert canonical is summary.canonical_atomic_predicates(16)
        assert list(canonical) == summary.atomic_predicates(16)
        other_limit = summary.canonical_atomic_predicates(8)
        assert list(other_limit) == summary.atomic_predicates(8)


def built_synopsis(dataset, **overrides):
    """A synopsis through both phases (phase 2 takes real steps)."""
    synopsis = build_reference_synopsis(dataset.tree, dataset.value_paths)
    config = BuildConfig(
        structural_budget=structural_size_bytes(synopsis) // 2,
        value_budget=value_size_bytes(synopsis) // 3,
        **overrides,
    )
    builder = XClusterBuilder(config)
    builder.compress(synopsis)
    assert builder.stats.value_steps_applied > 0
    return builder, synopsis


class TestCountBackedProfiles:
    """A PST's own σ come from its counts; they must equal the trie walk."""

    @pytest.mark.parametrize("dataset", ["xmark", "imdb"])
    def test_profile_sigmas_equal_resolve(self, dataset, xmark_small, imdb_small):
        source = xmark_small if dataset == "xmark" else imdb_small
        reference = build_reference_synopsis(source.tree, source.value_paths)
        builder, synopsis = built_synopsis(source)
        strings = 0
        for graph, engine in (
            (reference, ScoringEngine(reference, predicate_limit=32)),
            (synopsis, builder._engine),
            (synopsis, ScoringEngine(synopsis, predicate_limit=32)),
        ):
            for node in graph:
                profile = engine.profile_for(node)
                strings += isinstance(node.vsumm, StringSummary)
                for predicate, key, sigma in zip(
                    profile.predicates, profile.keys, profile.sigmas
                ):
                    assert key == predicate_key(predicate)
                    assert sigma == engine._resolve(node, predicate, key, {})
                    if key is not None:
                        assert sigma == node.vsumm.fast_selectivity(predicate)
        assert strings > 0

    def test_atomic_table_memoized_on_the_summary(self, imdb_reference):
        engine = ScoringEngine(imdb_reference, predicate_limit=16)
        node = next(
            n for n in imdb_reference if isinstance(n.vsumm, StringSummary)
        )
        table = engine.atomic_table(node.vsumm)
        assert ScoringEngine(imdb_reference, 16).atomic_table(node.vsumm) is table
        assert ScoringEngine(imdb_reference, 8).atomic_table(node.vsumm) is not table
        predicates, keys, index, _ = table
        assert list(predicates[1:]) == node.vsumm.atomic_predicates(16)
        assert all(index[key] == position for position, key in enumerate(keys))


class TestTouchedOnlyCompressionDelta:
    """Along a kernel ``st_cmprs`` chain, Δ evaluated over the pruned
    substrings only equals the full predicate loop bit for bit."""

    @staticmethod
    def string_node(rng):
        synopsis = XClusterSynopsis()
        root = synopsis.add_node("r", ValueType.NULL, 1)
        synopsis.set_root(root)
        values = [
            "".join(rng.choices("abcdef", k=rng.randint(2, 10))) for _ in range(60)
        ]
        node = synopsis.add_node(
            "y", ValueType.STRING, len(values),
            build_summary(ValueType.STRING, values, SummaryConfig()),
        )
        synopsis.add_edge(root, node, 1.0)
        synopsis.add_edge(node, synopsis.add_node("c", ValueType.NULL, 1), 2.5)
        return synopsis, node

    def test_equals_full_loop_along_chain_with_rollbacks(self, seeded_rng):
        synopsis, node = self.string_node(seeded_rng)
        engine = ScoringEngine(synopsis, predicate_limit=16)
        stepper = make_stepper(node.vsumm)
        applied = rolled_back = nonzero = 0
        while True:
            profile = engine.profile_for(node)
            compressed = stepper.advance(seeded_rng.randint(1, 6))
            if compressed is None:
                break
            assert compressed.pruned
            touched = engine.compression_delta(node, compressed, profile)
            # The same view without the pruned mark takes the full loop.
            unmarked = StringSummary(compressed.pst, compressed._ranked)
            assert touched == engine.compression_delta(node, unmarked, profile)
            nonzero += touched > 0.0
            if seeded_rng.random() < 0.3:
                stepper.rollback()
                rolled_back += 1
            else:
                node.vsumm = compressed
                applied += 1
        assert applied and rolled_back and nonzero

    def test_reference_stepper_leaves_summaries_unmarked(self):
        _, node = self.string_node(random.Random(5))
        assert reference_stepper(node.vsumm).advance(4).pruned is None


class TestProfileSigmaAudit:
    def test_corrupted_sigma_is_reported(self, xmark_small):
        builder, synopsis = built_synopsis(xmark_small)
        engine = builder._engine
        assert engine.audit_profiles() == []
        node_id, profile = next(
            (node_id, profile)
            for node_id, profile in engine.profiles.items()
            if node_id in synopsis.nodes
            and profile.vsumm is synopsis.nodes[node_id].vsumm
            and len(profile.sigmas) > 1
        )
        profile.sigmas[1] = profile.sigmas[1] * 0.5 + 0.25
        issues = engine.audit_profiles()
        assert len(issues) == 1
        assert f"node {node_id}" in issues[0] and "σ" in issues[0]

    def test_audited_build_catches_wrong_count_backed_sigma(
        self, monkeypatch, xmark_small
    ):
        exact = PrunedSuffixTree.indexed_selectivity
        monkeypatch.setattr(
            PrunedSuffixTree,
            "indexed_selectivity",
            lambda tree, count: exact(tree, count) * 0.5,
        )
        builder, _ = built_synopsis(xmark_small, audit=True)
        assert any(
            violation.invariant == "scoring-profile"
            for violation in builder.stats.audit_violations
        )
