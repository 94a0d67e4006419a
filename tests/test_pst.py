"""Unit and property tests for pruned suffix trees."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.oracles import greedy_estimate_count
from repro.values import PrunedSuffixTree


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
