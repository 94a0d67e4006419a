"""Kernel-vs-oracle parity for the value-summary kernel engine.

Every kernel in :mod:`repro.values.kernels` must reproduce its scalar
reference *exactly* — same prune/merge/demotion decisions, same counts,
same float arithmetic — since the production builder and the
:class:`~repro.check.oracles.ReferenceBuilder` must make the same
decisions.  These tests pin that equivalence with fixed regression
cases, hypothesis-generated inputs, and end-to-end builds on both.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.oracles import ReferenceBuilder, reference_stepper
from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.reference import build_reference_synopsis
from repro.core.sizing import (
    structural_size_bytes,
    value_size_breakdown,
    value_size_bytes,
)
from repro.core.snapshot import snapshot_to_bytes
from repro.datasets import generate_imdb, generate_xmark
from repro.values.ebth import EndBiasedTermHistogram
from repro.values.histogram import Histogram
from repro.values.kernels.ebth import EBTHCompressionKernel, fuse_ebth
from repro.values.kernels.histogram import (
    HistogramCompressionKernel,
    compress_histogram,
)
from repro.values.kernels.pst import PSTPruneKernel, prune_leaves_reference
from repro.values.kernels.queue import make_stepper
from repro.values.pst import PrunedSuffixTree
from repro.values.summary import HistogramSummary, StringSummary, TextSummary
from repro.values.termvector import TermCentroid, Vocabulary


# -- strategies ---------------------------------------------------------------


@st.composite
def random_psts(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    words = [
        "".join(rng.choice("abcd") for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(1, 40))
    ]
    return PrunedSuffixTree.from_strings(words, max_depth=rng.randint(2, 4))


@st.composite
def random_histograms(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    values = [rng.randint(0, 200) for _ in range(rng.randint(1, 400))]
    return Histogram.from_values(values, rng.randint(2, 32))


@st.composite
def random_ebth_pairs(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    vocabulary = Vocabulary()
    terms = ["t%d" % i for i in range(12)]

    def histogram():
        sets = [
            frozenset(rng.sample(terms, rng.randint(1, 6)))
            for _ in range(rng.randint(1, 25))
        ]
        ebth = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(sets), vocabulary
        )
        demote = rng.randint(0, max(0, ebth.exact_term_count - 1))
        return ebth.compress(demote) if demote else ebth

    return histogram(), histogram()


def ordered_substrings(tree):
    """Substrings in pre-order, each parent's children sorted by symbol
    (pins the canonical child order the encoders emit)."""
    out = []

    def visit(prefix):
        for substring, count in sorted(tree.counts.items()):
            if len(substring) == len(prefix) + 1 and substring.startswith(prefix):
                out.append((substring, count))
                visit(substring)

    visit("")
    return out


# -- st_cmprs: prune order regression + kernel parity -------------------------


class TestPSTPruning:
    #: The exact per-deletion re-rank prune order for the fixed corpus
    #: below.  Pinned deliberately: the pre-kernel prune_leaves ranked a
    #: whole batch once and deleted through the stale ranking, so sibling
    #: errors and newly-exposed leaves were scored against a tree that no
    #: longer existed.  Any change to this sequence is a behavior change.
    CORPUS = ["abab", "abc", "bca", "cab"]
    EXPECTED_ORDER = ["aba", "bab", "bca", "abc", "cab", "ab", "bc", "ca", "ba"]

    def build(self):
        return PrunedSuffixTree.from_strings(self.CORPUS, max_depth=3)

    def prune_order(self, prune_one):
        tree = self.build()
        order = []
        while True:
            before = {s for s, _ in tree.substrings()}
            if prune_one(tree) == 0:
                break
            (gone,) = before - {s for s, _ in tree.substrings()}
            order.append(gone)
        return order

    def test_prune_leaves_order_pinned(self):
        assert self.prune_order(lambda t: t.prune_leaves(1)) == self.EXPECTED_ORDER

    def test_reference_oracle_order_pinned(self):
        assert (
            self.prune_order(lambda t: prune_leaves_reference(t, 1))
            == self.EXPECTED_ORDER
        )

    def test_single_call_equals_stepwise(self):
        stepwise = self.build()
        while stepwise.prune_leaves(1):
            pass
        bulk = self.build()
        bulk.prune_leaves(len(self.EXPECTED_ORDER))
        assert sorted(bulk.substrings()) == sorted(stepwise.substrings())

    @given(random_psts(), st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_reference(self, tree, count):
        kernel_tree = tree.copy()
        oracle_tree = tree.copy()
        pruned_kernel = PSTPruneKernel(kernel_tree).prune(count)
        pruned_oracle = prune_leaves_reference(oracle_tree, count)
        assert pruned_kernel == pruned_oracle
        assert sorted(kernel_tree.substrings()) == sorted(oracle_tree.substrings())
        assert kernel_tree.node_count == oracle_tree.node_count
        assert kernel_tree.check_monotonicity()

    @given(random_psts(), st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_chained_prunes_are_a_fixed_point(self, tree, first, second):
        chained = tree.copy()
        kernel = PSTPruneKernel(chained)
        total = kernel.prune(first) + kernel.prune(second)
        bulk = tree.copy()
        assert prune_leaves_reference(bulk, first + second) == total
        assert sorted(chained.substrings()) == sorted(bulk.substrings())


def trie_fusion_order(left, right):
    """Pre-order of the trie fusion: summed counts over the union of
    each node's children, in canonical (sorted) child order."""
    out = []

    def children(tree, prefix):
        return [
            substring
            for substring in tree.counts
            if len(substring) == len(prefix) + 1 and substring.startswith(prefix)
        ]

    def visit(prefix):
        left_children = children(left, prefix)
        right_only = [
            substring
            for substring in children(right, prefix)
            if substring not in left.counts
        ]
        for substring in sorted(left_children + right_only):
            count = left.counts.get(substring, 0) + right.counts.get(substring, 0)
            out.append((substring, count))
            visit(substring)

    visit("")
    return out


class TestPSTFusion:
    @given(random_psts(), random_psts())
    @settings(max_examples=50, deadline=None)
    def test_fusion_matches_reference_including_order(self, left, right):
        fused = left.fuse(right)
        assert ordered_substrings(fused) == trie_fusion_order(left, right)
        assert fused.node_count == len(set(left.counts) | set(right.counts))
        assert fused.string_count == left.string_count + right.string_count
        assert fused.max_depth == max(left.max_depth, right.max_depth)
        assert fused.invariant_issues() == []

    @given(random_psts())
    @settings(max_examples=20, deadline=None)
    def test_fusion_with_empty(self, tree):
        empty = PrunedSuffixTree(tree.max_depth)
        assert ordered_substrings(tree.fuse(empty)) == ordered_substrings(tree)
        assert ordered_substrings(empty.fuse(tree)) == ordered_substrings(tree)


# -- hist_cmprs ----------------------------------------------------------------


class TestHistogramKernel:
    @given(random_histograms(), st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_compress_matches_reference(self, histogram, remove):
        assert (
            compress_histogram(histogram, remove).buckets
            == histogram.compress(remove).buckets
        )

    @given(random_histograms(), st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_chained_merges_match_chained_compress(self, histogram, first, second):
        kernel = HistogramCompressionKernel(histogram)
        kernel.merge(first)
        assert kernel.snapshot().buckets == histogram.compress(first).buckets
        kernel.merge(second)
        assert (
            kernel.snapshot().buckets
            == histogram.compress(first).compress(second).buckets
        )

    def test_rejects_negative(self):
        histogram = Histogram.from_values([1, 2, 3], 3)
        with pytest.raises(ValueError):
            compress_histogram(histogram, -1)

    def test_boundaries_cached_and_stable(self):
        histogram = Histogram.from_values([1, 5, 9, 13], 4)
        first = histogram.boundaries()
        assert histogram.boundaries() is first
        assert list(first) == [bucket.hi for bucket in histogram.buckets]


# -- tv_cmprs ------------------------------------------------------------------


class TestEBTHKernel:
    @given(random_ebth_pairs())
    @settings(max_examples=60, deadline=None)
    def test_fusion_matches_reference(self, pair):
        left, right = pair
        reference = left.fuse(right)
        kernel = fuse_ebth(left, right)
        assert set(kernel.exact) == set(reference.exact)
        for term_id, weight in reference.exact.items():
            assert abs(kernel.exact[term_id] - weight) <= 1e-12
        assert kernel.bucket_average == reference.bucket_average
        assert kernel.bucket_member_count == reference.bucket_member_count
        assert kernel.count == reference.count
        assert list(kernel.bitmap) == list(reference.bitmap)

    @given(random_ebth_pairs(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_chained_demotion_matches_chained_compress(self, pair, first, second):
        ebth, _ = pair
        kernel = EBTHCompressionKernel(ebth)
        kernel.demote(first)
        reference = ebth.compress(first)
        snapshot = kernel.snapshot()
        assert snapshot.exact == reference.exact
        assert snapshot.bucket_average == reference.bucket_average
        kernel.demote(second)
        reference = reference.compress(second)
        snapshot = kernel.snapshot()
        assert snapshot.exact == reference.exact
        assert snapshot.bucket_average == reference.bucket_average
        assert snapshot.bucket_member_count == reference.bucket_member_count


    def test_kernel_validates_its_source_once(self):
        vocabulary = Vocabulary()
        ebth = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets([frozenset({"a", "b"}), frozenset({"a"})]),
            vocabulary,
        )
        ebth.exact[vocabulary.intern("zzz")] = 0.5  # no bitmap bit
        assert any("no bitmap bit" in issue for issue in ebth.invariant_issues())
        with pytest.raises(ValueError):
            EBTHCompressionKernel(ebth)


# -- steppers ------------------------------------------------------------------


class TestSteppers:
    def summaries(self):
        rng = random.Random(11)
        words = [
            "".join(rng.choice("abc") for _ in range(rng.randint(2, 7)))
            for _ in range(30)
        ]
        vocabulary = Vocabulary()
        sets = [
            frozenset(rng.sample(["u", "v", "w", "x", "y", "z"], rng.randint(1, 4)))
            for _ in range(20)
        ]
        return [
            HistogramSummary(
                Histogram.from_values([rng.randint(0, 99) for _ in range(200)], 16)
            ),
            StringSummary(PrunedSuffixTree.from_strings(words, max_depth=3)),
            TextSummary(
                EndBiasedTermHistogram.from_centroid(
                    TermCentroid.from_term_sets(sets), vocabulary
                )
            ),
        ]

    def test_kernel_and_reference_chains_agree(self):
        for summary in self.summaries():
            kernel = make_stepper(summary)
            reference = reference_stepper(summary)
            for _ in range(6):
                advanced_k = kernel.advance(2)
                advanced_r = reference.advance(2)
                assert (advanced_k is None) == (advanced_r is None)
                if advanced_k is None:
                    break
                assert advanced_k.size_bytes() == advanced_r.size_bytes()
                assert kernel.expected is advanced_k
                assert reference.expected is advanced_r

    def string_stepper(self):
        summary = self.summaries()[1]
        return summary, make_stepper(summary)

    def test_pst_advance_shares_one_working_trie(self):
        summary, stepper = self.string_stepper()
        first = stepper.advance(2)
        second = stepper.advance(2)
        assert first.pst is second.pst
        assert first.pst is not summary.pst  # the node's own trie is copied once

    def test_pst_rollback_restores_trie_exactly(self):
        _, stepper = self.string_stepper()
        committed = stepper.advance(3)
        trie = committed.pst
        before = ordered_substrings(trie)
        node_count = trie.node_count
        pending = stepper.advance(5)
        assert pending.pst is trie
        assert trie.node_count < node_count
        stepper.rollback()
        assert ordered_substrings(trie) == before  # child order included
        assert trie.node_count == node_count
        assert trie.invariant_issues() == []
        assert stepper.expected is committed
        stepper.rollback()  # nothing left to undo
        assert ordered_substrings(trie) == before

    def test_pst_chain_continues_after_rollback(self):
        _, stepper = self.string_stepper()
        _, oracle = self.string_stepper()
        stepper.advance(3)
        oracle.advance(3)
        stepper.advance(4)
        stepper.rollback()
        for _ in range(4):
            resumed = stepper.advance(4)
            expected = oracle.advance(4)
            assert (resumed is None) == (expected is None)
            if resumed is None:
                break
            assert ordered_substrings(resumed.pst) == ordered_substrings(
                expected.pst
            )
            assert stepper._ranked == oracle._ranked

    def test_pst_ranked_list_tracks_the_trie(self):
        _, stepper = self.string_stepper()
        while True:
            advanced = stepper.advance(3)
            if advanced is None:
                break
            fresh = sorted(
                (-count, substring) for substring, count in advanced.pst.substrings()
            )
            assert stepper._ranked == fresh
            for limit in (1, 5, 32, 10_000):
                assert advanced.atomic_predicates(limit) == StringSummary(
                    advanced.pst.copy()
                ).atomic_predicates(limit)


# -- heap-selected rankings ----------------------------------------------------


class TestHeapSelections:
    @given(random_psts(), st.integers(min_value=1, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_top_substrings_matches_full_sort(self, tree, limit):
        full = sorted(tree.substrings(), key=lambda item: (-item[1], item[0]))
        assert tree.top_substrings(limit) == full[:limit]

    def test_top_terms_matches_full_sort(self):
        rng = random.Random(3)
        sets = [
            frozenset(rng.sample(["a", "b", "c", "d", "e"], rng.randint(1, 4)))
            for _ in range(25)
        ]
        centroid = TermCentroid.from_term_sets(sets)
        full = sorted(centroid.weights.items(), key=lambda item: (-item[1], item[0]))
        for limit in (1, 3, 100):
            assert centroid.top_terms(limit) == full[:limit]


# -- end-to-end: production vs reference builder --------------------------------


class TestBuilderEngineParity:
    def build(self, dataset, builder_class=XClusterBuilder):
        synopsis = build_reference_synopsis(dataset.tree, dataset.value_paths)
        config = BuildConfig(
            structural_budget=structural_size_bytes(synopsis),  # phase 2 only
            value_budget=value_size_bytes(synopsis) // 3,
        )
        builder = builder_class(config)
        builder.compress(synopsis)
        return builder.stats, synopsis

    def test_engines_apply_identical_value_steps(self, imdb_small):
        kernel_stats, kernel_synopsis = self.build(imdb_small)
        reference_stats, reference_synopsis = self.build(
            imdb_small, ReferenceBuilder
        )
        assert (
            kernel_stats.value_steps_applied == reference_stats.value_steps_applied
        )
        assert (
            kernel_stats.final_value_bytes == reference_stats.final_value_bytes
        )
        kernel_sizes = {
            node.node_id: node.vsumm.size_bytes()
            for node in kernel_synopsis.valued_nodes()
        }
        reference_sizes = {
            node.node_id: node.vsumm.size_bytes()
            for node in reference_synopsis.valued_nodes()
        }
        assert kernel_sizes == reference_sizes
        assert value_size_breakdown(kernel_synopsis) == value_size_breakdown(
            reference_synopsis
        )

    def test_budget_stop_with_pending_string_candidates(self, xmark_small):
        """Phase 2 stops on the budget while STRING nodes that already took
        steps still hold pending candidates on their shared working tries;
        rollback must leave each node's trie exactly as committed."""

        def build(builder_class):
            synopsis = build_reference_synopsis(
                xmark_small.tree, xmark_small.value_paths
            )
            original = {
                node.node_id: node.vsumm.pst.node_count
                for node in synopsis.valued_nodes()
                if isinstance(node.vsumm, StringSummary)
            }
            config = BuildConfig(
                structural_budget=structural_size_bytes(synopsis),
                value_budget=value_size_bytes(synopsis) * 3 // 4,
            )
            builder = builder_class(config)
            builder.compress(synopsis)
            assert builder.stats.value_budget_met
            return synopsis, original

        kernel, original = build(XClusterBuilder)
        reference, _ = build(ReferenceBuilder)
        strings = [
            node
            for node in kernel.valued_nodes()
            if isinstance(node.vsumm, StringSummary)
        ]
        assert any(
            node.vsumm.can_compress
            and node.vsumm.pst.node_count < original[node.node_id]
            for node in strings
        )
        for node in strings:
            other = reference.nodes[node.node_id].vsumm
            assert ordered_substrings(node.vsumm.pst) == ordered_substrings(
                other.pst
            )
            assert node.vsumm.size_bytes() == other.size_bytes()
            assert node.vsumm.invariant_issues() == []

    @pytest.mark.parametrize(
        "dataset, value_budget",
        [("xmark", 32768), ("imdb", 8000)],
    )
    def test_engine_matrix_snapshots_identical(self, dataset, value_budget):
        """Production and reference builders give byte-identical
        snapshots: vectorized Δ with kernel steppers against scalar Δ
        with the scalar compression oracles."""
        if dataset == "xmark":
            source = generate_xmark(scale=0.1, seed=7)
            value_paths = None
        else:
            source = generate_imdb(scale=0.05, seed=42)
            value_paths = source.value_paths
        snapshots = []
        for builder_class in (XClusterBuilder, ReferenceBuilder):
            synopsis = build_reference_synopsis(source.tree, value_paths)
            builder = builder_class(
                BuildConfig(structural_budget=4096, value_budget=value_budget)
            )
            builder.compress(synopsis)
            assert builder.stats.value_steps_applied > 0
            snapshots.append(snapshot_to_bytes(synopsis))
        assert snapshots[0] == snapshots[1]

    def test_phase_timers_populate(self, imdb_small):
        stats, _ = self.build(imdb_small)
        if stats.value_steps_applied:
            compression_seconds = (
                stats.hist_cmprs_seconds
                + stats.st_cmprs_seconds
                + stats.tv_cmprs_seconds
                + stats.other_cmprs_seconds
            )
            assert compression_seconds > 0.0
            assert stats.value_delta_seconds > 0.0
            assert stats.value_phase_seconds >= compression_seconds
