"""Unit and property tests for pruned suffix trees."""

import gc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.oracles import greedy_estimate_count
from repro.core import build_xcluster
from repro.core.serialization import synopsis_from_dict, synopsis_to_dict
from repro.core.snapshot import (
    _PST_HEAD,
    _PST_NODE,
    SynopsisFormatError,
    _decode_pst_payload,
    _encode_pst,
    _Section,
    snapshot_to_bytes,
    synopsis_from_snapshot,
)
from repro.values import PrunedSuffixTree, StringSummary
from repro.values.kernels.pst import PSTPruneKernel, prune_leaves_reference


def small_tree() -> PrunedSuffixTree:
    return PrunedSuffixTree.from_strings(
        ["star wars", "star trek", "stardust", "dark star"], max_depth=5
    )


class TestConstruction:
    def test_string_count(self):
        assert small_tree().string_count == 4

    def test_document_frequency_semantics(self):
        tree = PrunedSuffixTree.from_strings(["aaa", "ab"], max_depth=3)
        # "a" occurs many times but in exactly 2 strings.
        assert tree.lookup("a") == 2
        assert tree.lookup("aa") == 1

    def test_lookup_absent(self):
        assert small_tree().lookup("xyz") is None

    def test_max_depth_limits_substrings(self):
        tree = PrunedSuffixTree.from_strings(["abcdef"], max_depth=3)
        assert tree.lookup("abc") == 1
        assert tree.lookup("abcd") is None

    def test_max_depth_validation(self):
        with pytest.raises(ValueError):
            PrunedSuffixTree(max_depth=0)

    def test_node_cap_prunes(self):
        full = PrunedSuffixTree.from_strings(["abcdefgh"], max_depth=5)
        capped = PrunedSuffixTree.from_strings(["abcdefgh"], max_depth=5, max_nodes=10)
        assert capped.node_count <= 10 < full.node_count


class TestEstimation:
    def test_exact_for_indexed(self):
        tree = small_tree()
        assert tree.estimate_count("star") == pytest.approx(4.0)
        assert tree.estimate_count("trek") == pytest.approx(1.0)

    def test_empty_query(self):
        assert small_tree().estimate_count("") == 4.0

    def test_absent_symbol_is_zero(self):
        assert small_tree().estimate_count("qqq") == 0.0
        assert small_tree().estimate_count("z") == 0.0

    def test_markov_chaining_for_long_queries(self):
        tree = small_tree()
        estimate = tree.estimate_count("star war")  # longer than max_depth
        assert 0.0 < estimate <= 4.0

    def test_selectivity_clamped(self):
        tree = small_tree()
        assert 0.0 <= tree.selectivity("star wars movie") <= 1.0

    def test_empty_tree(self):
        tree = PrunedSuffixTree()
        assert tree.estimate_count("a") == 0.0
        assert tree.selectivity("a") == 0.0


class TestOneWalkEstimate:
    """The one-walk ``estimate_count`` equals the greedy oracle bit for bit."""

    @staticmethod
    def random_tree(rng, alphabet):
        def strings(count):
            return [
                "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
                for _ in range(count)
            ]

        tree = PrunedSuffixTree.from_strings(
            strings(rng.randint(1, 15)), max_depth=rng.randint(1, 6)
        )
        if rng.random() < 0.5:
            other = PrunedSuffixTree.from_strings(
                strings(rng.randint(1, 8)), max_depth=rng.randint(1, 6)
            )
            tree = tree.fuse(other)
        if rng.random() < 0.7:
            tree.prune_leaves(rng.randint(1, max(1, tree.node_count)))
        return tree

    def test_matches_greedy_oracle(self, seeded_rng):
        absent = longer = chained = 0
        for _ in range(150):
            alphabet = "abcde"[: seeded_rng.randint(2, 5)]
            tree = self.random_tree(seeded_rng, alphabet)
            for _ in range(25):
                query = "".join(
                    seeded_rng.choices(alphabet + "xz", k=seeded_rng.randint(0, 14))
                )
                expected = greedy_estimate_count(tree, query)
                assert tree.estimate_count(query) == expected, query
                absent += "x" in query or "z" in query
                longer += len(query) > tree.max_depth
                chained += 0.0 < expected and tree.lookup(query) is None
        assert absent and longer and chained

    def test_indexed_selectivity_is_the_walked_selectivity(self, seeded_rng):
        for _ in range(40):
            tree = self.random_tree(seeded_rng, "abc")
            for substring, count in tree.substrings():
                assert tree.indexed_selectivity(count) == tree.selectivity(substring)

    def test_long_query_over_pruned_tree(self):
        tree = small_tree()
        tree.prune_leaves(20)
        for query in ("star wars", "dark stardust", "trek star war", "zstar"):
            assert tree.estimate_count(query) == greedy_estimate_count(tree, query)


class TestPruning:
    def test_prune_reduces_nodes(self):
        tree = small_tree()
        before = tree.node_count
        pruned = tree.prune_leaves(10)
        assert pruned == 10
        assert tree.node_count == before - 10

    def test_prune_keeps_depth_one_symbols(self):
        tree = small_tree()
        symbols = set("star wars trek dust dark")
        tree.prune_leaves(10_000)
        for symbol in symbols:
            assert tree.lookup(symbol) is not None

    def test_prune_preserves_monotonicity(self):
        tree = small_tree()
        tree.prune_leaves(25)
        assert tree.check_monotonicity()

    def test_estimates_stay_positive_for_present_substrings(self):
        tree = small_tree()
        tree.prune_leaves(30)
        assert tree.estimate_count("star") > 0.0

    def test_can_prune_flag(self):
        tree = small_tree()
        assert tree.can_prune
        tree.prune_leaves(10_000)
        assert not tree.can_prune


class TestFusion:
    def test_counts_sum(self):
        left = PrunedSuffixTree.from_strings(["abc"], max_depth=3)
        right = PrunedSuffixTree.from_strings(["abd", "abc"], max_depth=3)
        fused = left.fuse(right)
        assert fused.string_count == 3
        assert fused.lookup("ab") == 3
        assert fused.lookup("abc") == 2
        assert fused.lookup("abd") == 1

    def test_fusion_monotone(self):
        fused = small_tree().fuse(small_tree())
        assert fused.check_monotonicity()
        assert fused.string_count == 8

    def test_fusion_union_of_substrings(self):
        left = PrunedSuffixTree.from_strings(["xy"], max_depth=2)
        right = PrunedSuffixTree.from_strings(["zw"], max_depth=2)
        fused = left.fuse(right)
        for needle in ("xy", "zw", "x", "w"):
            assert fused.lookup(needle) == 1


class TestEnumeration:
    def test_top_substrings_ranked(self):
        top = small_tree().top_substrings(3)
        assert top[0][1] >= top[-1][1]
        assert top[0][0] in ("s", "t", "a", "r", "st", "ta", "ar", "sta", "tar", "star")

    def test_size_bytes(self):
        tree = small_tree()
        assert tree.size_bytes() == 9 * tree.node_count


@st.composite
def string_lists(draw):
    alphabet = st.sampled_from("abcd ")
    string = st.text(alphabet=alphabet, min_size=1, max_size=12)
    return draw(st.lists(string, min_size=1, max_size=12))


@given(string_lists())
def test_lookup_is_exact_document_frequency(strings):
    tree = PrunedSuffixTree.from_strings(strings, max_depth=4)
    probes = {s[i : i + k] for s in strings for i in range(len(s)) for k in (1, 2, 3)}
    for probe in probes:
        if not probe:
            continue
        truth = sum(1 for s in strings if probe in s)
        if len(probe) <= 4:
            assert tree.lookup(probe) == truth


@given(string_lists())
def test_monotonicity_invariant(strings):
    tree = PrunedSuffixTree.from_strings(strings, max_depth=4)
    assert tree.check_monotonicity()


@given(string_lists(), st.integers(min_value=1, max_value=30))
@settings(max_examples=40)
def test_pruning_invariants(strings, prune_count):
    tree = PrunedSuffixTree.from_strings(strings, max_depth=4)
    tree.prune_leaves(prune_count)
    assert tree.check_monotonicity()
    # Depth-1 symbol layer always survives.
    for symbol in {c for s in strings for c in s}:
        assert tree.lookup(symbol) is not None


@given(string_lists(), string_lists())
@settings(max_examples=40)
def test_fusion_counts_are_sums(left_strings, right_strings):
    left = PrunedSuffixTree.from_strings(left_strings, max_depth=3)
    right = PrunedSuffixTree.from_strings(right_strings, max_depth=3)
    fused = left.fuse(right)
    assert fused.string_count == len(left_strings) + len(right_strings)
    probes = {s[:2] for s in left_strings + right_strings if s}
    for probe in probes:
        expected = (left.lookup(probe) or 0) + (right.lookup(probe) or 0)
        assert fused.lookup(probe) == expected


# -- the flat layout -------------------------------------------------------------


def brute_force_counts(strings, max_depth):
    """Document frequency of every substring up to ``max_depth``."""
    counts = Counter()
    for string in strings:
        counts.update(
            {
                string[start:stop]
                for start in range(len(string))
                for stop in range(start + 1, min(start + max_depth, len(string)) + 1)
            }
        )
    return counts


@given(string_lists(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_counts_are_brute_force_document_frequencies(strings, max_depth):
    tree = PrunedSuffixTree.from_strings(strings, max_depth=max_depth)
    assert tree.counts == brute_force_counts(strings, max_depth)
    assert tree.string_count == len(strings)
    assert tree.invariant_issues() == []


@given(
    string_lists(),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=40),
    st.lists(st.text(alphabet="abcdx ", max_size=12), max_size=15),
)
@settings(max_examples=60, deadline=None)
def test_estimate_count_equals_greedy_oracle(strings, max_depth, prune, queries):
    tree = PrunedSuffixTree.from_strings(strings, max_depth=max_depth)
    tree.prune_leaves(prune)
    for query in queries:
        assert tree.estimate_count(query) == greedy_estimate_count(tree, query)


@given(string_lists(), st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_kernel_prunes_the_reference_sequence(strings, max_depth):
    kernel_tree = PrunedSuffixTree.from_strings(strings, max_depth=max_depth)
    reference_tree = kernel_tree.copy()
    removed = []
    PSTPruneKernel(kernel_tree).prune(10_000, removed)
    sequence = []
    while True:
        before = set(reference_tree.counts)
        if prune_leaves_reference(reference_tree, 1) == 0:
            break
        (gone,) = before - set(reference_tree.counts)
        sequence.append(gone)
    assert [substring for _, substring in removed] == sequence
    assert kernel_tree.counts == reference_tree.counts


class TestFlatInvariants:
    def tree(self):
        return PrunedSuffixTree.from_strings(["abc", "abd", "bc"], max_depth=3)

    def test_healthy(self):
        assert self.tree().invariant_issues() == []

    def test_monotonicity(self):
        tree = self.tree()
        tree.counts["ab"] = tree.counts["a"] + 1
        assert any("monotonicity" in issue for issue in tree.invariant_issues())
        assert not tree.check_monotonicity()

    def test_non_positive_count(self):
        tree = self.tree()
        tree.counts["abd"] = 0
        assert any("non-positive" in issue for issue in tree.invariant_issues())

    def test_over_depth_key(self):
        tree = self.tree()
        tree.counts["abcd"] = 1
        assert any("max_depth" in issue for issue in tree.invariant_issues())

    def test_prefix_closure(self):
        tree = self.tree()
        tree.counts["zq"] = 1
        assert any("prefix closure" in issue for issue in tree.invariant_issues())


def test_built_synopsis_string_counts_are_untracked(xmark_small):
    synopsis = build_xcluster(
        xmark_small.tree,
        structural_budget=1024,
        value_budget=4096,
        value_paths=xmark_small.value_paths,
    )
    restored = synopsis_from_snapshot(snapshot_to_bytes(synopsis), lazy=False)
    checked = 0
    for built in (synopsis, restored, synopsis_from_dict(synopsis_to_dict(synopsis))):
        for node in built.valued_nodes():
            if isinstance(node.vsumm, StringSummary):
                assert not gc.is_tracked(node.vsumm.pst.counts)
                checked += 1
    assert checked


class TestSnapshotDecoding:
    @staticmethod
    def decode(nodes, node_count=None):
        payload = bytearray(
            _PST_HEAD.pack(3, 2, len(nodes) if node_count is None else node_count)
        )
        for codepoint, children, count in nodes:
            payload += _PST_NODE.pack(codepoint, children, count)
        return _decode_pst_payload(_Section(bytes(payload), 0, len(payload)), 0)

    def test_well_formed(self):
        summary = self.decode([(ord("a"), 1, 2), (ord("b"), 0, 1), (ord("b"), 0, 1)])
        assert summary.pst.counts == {"a": 2, "ab": 1, "b": 1}

    def test_truncated_subtree_rejected(self):
        with pytest.raises(SynopsisFormatError, match="truncated"):
            self.decode([(ord("a"), 2, 2), (ord("b"), 0, 1)])

    def test_bad_symbol_rejected(self):
        with pytest.raises(SynopsisFormatError, match="symbol"):
            self.decode([(0x110000, 0, 1)])

    def test_repeated_node_rejected(self):
        with pytest.raises(SynopsisFormatError, match="repeats"):
            self.decode([(ord("a"), 0, 1), (ord("a"), 0, 1)])

    def test_missing_nodes_rejected(self):
        with pytest.raises(SynopsisFormatError):
            self.decode([(ord("a"), 0, 1)], node_count=2)

    def test_orphan_substring_cannot_be_encoded(self):
        tree = PrunedSuffixTree.from_strings(["ab"], max_depth=2)
        tree.counts["zq"] = 1
        with pytest.raises(SynopsisFormatError, match="indexed parent"):
            _encode_pst(StringSummary(tree), bytearray())
