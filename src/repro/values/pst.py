"""Pruned Suffix Trees (PSTs) for STRING substring selectivity.

Following the substring-estimation line of work the paper builds on
(Jagadish–Ng–Srivastava, PODS 1999), a PST is a trie over the substrings
of a string collection.  Each node represents one substring and stores its
*document frequency* — the number of strings in the collection containing
it — which makes counts monotone along every root-to-node path (the PST
*monotonicity constraint*): a string containing ``sc`` necessarily
contains ``s``.

Estimation for an unindexed query string uses the greedy
*maximal-overlap* Markovian decomposition: the query is parsed into
maximal indexed substrings and their conditional probabilities are
chained, ``P(q) = P(s1) * Π P(si | overlap(si-1, si))``.

Per the paper's modification of the original proposal, the tree always
records at least one node for each symbol that appears in the string
distribution (so the classic pruning threshold is redundant and negative
queries on absent symbols estimate to exactly zero), and compression
(``st_cmprs``) prunes leaves in increasing order of *pruning error* — the
difference between a leaf's exact count and the Markovian estimate the
remaining tree would produce for it.

The trie is stored flat, as one ``substring → count`` dict with no
node objects.  A trie is prefix-closed, so the parent of node ``s`` is
``s[:-1]`` (the root, ``""``, carries ``string_count``) and its
children are the indexed substrings one symbol longer.  Dict order
carries no meaning: the encoders and the sampler read each parent's
children sorted by symbol (:meth:`PrunedSuffixTree.child_lists`), and
pruning ranks by a total key, so a tree's bytes and behaviour depend on
its counts alone.  A dict holding only ``str`` and ``int`` is never
tracked by the garbage collector.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Bytes per stored PST node: symbol (1) + count (4) + structure encoding (4).
NODE_BYTES = 9


class PrunedSuffixTree:
    """A pruned suffix tree over a collection of strings."""

    def __init__(self, max_depth: int = 6) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        #: Indexed substring -> document frequency (prefix-closed).
        self.counts: Dict[str, int] = {}
        #: Number of strings summarized (the root count).
        self.string_count = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_strings(
        cls,
        strings: Iterable[str],
        max_depth: int = 6,
        max_nodes: Optional[int] = None,
    ) -> "PrunedSuffixTree":
        """Build a PST by inserting every substring (up to ``max_depth``)
        of every string, then optionally pruning down to ``max_nodes``.
        Each distinct string is inserted once, with its multiplicity."""
        tree = cls(max_depth)
        for string, times in Counter(strings).items():
            tree.insert_string(string, times)
        if max_nodes is not None and tree.node_count > max_nodes:
            tree.prune_leaves(tree.node_count - max_nodes)
        return tree

    def insert_string(self, string: str, times: int = 1) -> None:
        """Index ``times`` copies of one string: each of its distinct
        substrings (length ≤ ``max_depth``) gets its document frequency
        incremented by ``times``."""
        self.string_count += times
        counts = self.counts
        get = counts.get
        for substring in self._distinct_substrings(string):
            counts[substring] = get(substring, 0) + times

    def remove_string(self, string: str, times: int = 1) -> None:
        """Undo :meth:`insert_string` of ``times`` copies of ``string``
        (which the counts must hold): a substring whose document
        frequency falls to zero leaves the trie."""
        self.string_count -= times
        counts = self.counts
        for substring in self._distinct_substrings(string):
            remaining = counts[substring] - times
            if remaining:
                counts[substring] = remaining
            else:
                del counts[substring]

    def _distinct_substrings(self, string: str) -> Dict[str, None]:
        """The distinct substrings of ``string`` up to ``max_depth``."""
        depth = self.max_depth
        length = len(string)
        return dict.fromkeys(
            [
                string[start:stop]
                for start in range(length)
                for stop in range(start + 1, min(start + depth, length) + 1)
            ]
        )

    def copy(self) -> "PrunedSuffixTree":
        """An independent copy (same substrings and counts)."""
        clone = PrunedSuffixTree(self.max_depth)
        clone.counts = dict(self.counts)
        clone.string_count = self.string_count
        return clone

    # -- lookups ------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of substring nodes (root excluded)."""
        return len(self.counts)

    def lookup(self, substring: str) -> Optional[int]:
        """The stored count of ``substring``, or ``None`` if not indexed."""
        if not substring:
            return self.string_count
        return self.counts.get(substring)

    def child_lists(self) -> Dict[str, List[str]]:
        """Every internal node's children (``""`` is the root), each list
        sorted by symbol: the canonical child order, so what reads it
        (the encoders, :meth:`StringSummary.sample_value`) depends on the
        counts alone, never on the order keys entered the dict."""
        children: Dict[str, List[str]] = {}
        for substring in sorted(self.counts):
            children.setdefault(substring[:-1], []).append(substring)
        return children

    # -- estimation -----------------------------------------------------------

    def estimate_count(self, query: str) -> float:
        """Estimated number of strings containing ``query`` as a substring.

        Exact for indexed substrings; greedy maximal-overlap Markov
        chaining otherwise.  Returns 0 when the query uses a symbol that
        never occurs in the collection.

        Each continuation at ``position`` takes the smallest overlap
        start whose longest indexed match reaches past ``position``.  A
        start that fails (or succeeds) at one position fails at every
        later one, so the scan over starts only moves forward.  The dict
        is prefix-closed, so a start reaches past ``position`` exactly
        when ``query[start:position + 1]`` is indexed; from there the
        match grows one symbol per probe until the next one misses or
        ``max_depth`` is reached.  The greedy oracle that re-derives and
        re-looks-up each piece is
        :func:`repro.check.oracles.greedy_estimate_count`.
        """
        total = self.string_count
        if total == 0:
            return 0.0
        if not query:
            return float(total)
        counts = self.counts
        depth = self.max_depth
        end = len(query)
        probability = 1.0
        position = 0
        start = 0
        while position < end:
            first = max(start, position - depth + 1)
            for start in range(first, position + 1):
                reached = position + 1
                joint = counts.get(query[start:reached])
                if joint is None:
                    continue
                limit = min(start + depth, end)
                while reached < limit:
                    longer = counts.get(query[start : reached + 1])
                    if longer is None:
                        break
                    joint = longer
                    reached += 1
                break
            else:
                return 0.0  # query[position] is an absent symbol
            conditioning = counts[query[start:position]] if start < position else total
            if not conditioning:
                return 0.0
            probability *= joint / conditioning
            position = reached
            start += 1
        return probability * total

    def selectivity(self, query: str) -> float:
        """Estimated fraction of strings containing ``query``."""
        if self.string_count == 0:
            return 0.0
        estimate = self.estimate_count(query) / self.string_count
        return min(1.0, max(0.0, estimate))

    def indexed_selectivity(self, count: int) -> float:
        """``selectivity(s)`` of an indexed substring ``s`` with ``count``.

        For an indexed query the chaining stops after its first piece, so
        ``estimate_count`` returns ``(count / N) * N``; this is the same
        float expression, clamped the same way, without the lookups.
        """
        total = self.string_count
        if total == 0:
            return 0.0
        return min(1.0, max(0.0, ((count / total) * total) / total))

    # -- pruning (st_cmprs) ------------------------------------------------------

    def pruning_error(self, substring: str) -> float:
        """|exact count − post-prune Markov estimate| for a leaf."""
        return self.pruning_error_details(substring)[0]

    def pruning_error_details(self, substring: str) -> Tuple[float, Optional[str]]:
        """``pruning_error`` plus the suffix the estimate depends on.

        The post-prune estimate is the first-order Markov combination of
        the leaf's parent and its longest proper suffix still indexed
        (excluding the leaf itself, which is about to go away).  Returns
        ``(error, suffix)`` where ``suffix`` is the conditioning suffix
        the estimate used, or ``None`` for the symbol-frequency fallback.
        During pruning only key *existence* changes (counts are never
        touched and the depth-1 symbol layer survives), so the estimate
        can only change when that one suffix is deleted — the fact the
        incremental ``st_cmprs`` kernel keys its lazy invalidation on.
        """
        counts = self.counts
        total = self.string_count
        count = counts[substring]
        parent_count = counts[substring[:-1]] if len(substring) > 1 else total
        for start in range(1, len(substring)):
            suffix = substring[start:]
            suffix_count = counts.get(suffix)
            if suffix_count is None:
                continue
            # The conditioning context is the suffix's trie parent (the
            # root, counting every string, for a one-symbol suffix).
            conditioning = counts[suffix[:-1]] if len(suffix) > 1 else total
            if conditioning:
                estimate = parent_count * (suffix_count / conditioning)
                return abs(count - estimate), suffix
        # No usable suffix: fall back to the parent's count scaled by the
        # unconditional frequency of the final symbol.
        symbol_count = counts.get(substring[-1])
        if symbol_count is None or total == 0:
            return abs(count - 0.0), None
        return abs(count - parent_count * (symbol_count / total)), None

    def _prunable_leaves(self) -> List[str]:
        """Current leaves that may be removed: depth ≥ 2 (each observed
        symbol keeps its depth-1 node, per the paper's modification).

        Listed in the order of a stack walk that pushes each node's
        children in dict order (right-to-left pre-order), the order the
        count-only ablation pruner breaks its ties in.  That pruner
        keeps this dict-order tie-break; the error-ranked pruner uses a
        total key and never reads this order.
        """
        children: Dict[str, List[str]] = {}
        for substring in self.counts:
            children.setdefault(substring[:-1], []).append(substring)
        leaves: List[str] = []
        stack = list(children.get("", ()))
        while stack:
            substring = stack.pop()
            below = children.get(substring)
            if below:
                stack.extend(below)
            elif len(substring) > 1:
                leaves.append(substring)
        return leaves

    def prune_leaves(self, count: int) -> int:
        """``st_cmprs``: prune up to ``count`` leaves in increasing
        pruning-error order, re-ranking after *every* deletion.

        Each deletion removes the current global minimum by
        ``(pruning error, -count, substring)`` — sibling errors and
        newly-exposed leaves are re-ranked immediately, not at the next
        batch boundary, so ``prune_leaves(a); prune_leaves(b)`` prunes
        exactly the same leaves as ``prune_leaves(a + b)``.  Runs on the
        incremental priority-queue kernel
        (:class:`repro.values.kernels.pst.PSTPruneKernel`); the scalar
        re-rank-per-deletion oracle is
        :func:`repro.values.kernels.pst.prune_leaves_reference`.
        Returns the number of leaves actually pruned.
        """
        if count <= 0:
            return 0
        from repro.values.kernels.pst import PSTPruneKernel

        return PSTPruneKernel(self).prune(count)

    @property
    def can_prune(self) -> bool:
        # A leaf at depth >= 2 exists exactly when some depth-2 key does.
        return any(len(substring) > 1 for substring in self.counts)

    # -- fusion ---------------------------------------------------------------

    def fuse(self, other: "PrunedSuffixTree") -> "PrunedSuffixTree":
        """Combine two PSTs: union of substrings with summed counts."""
        result = PrunedSuffixTree(max(self.max_depth, other.max_depth))
        counts = dict(self.counts)
        get = counts.get
        for substring, count in other.counts.items():
            counts[substring] = get(substring, 0) + count
        result.counts = counts
        result.string_count = self.string_count + other.string_count
        return result

    # -- enumeration and accounting ---------------------------------------------

    def substrings(self) -> Iterator[Tuple[str, int]]:
        """All indexed substrings with their counts (dict order)."""
        return iter(self.counts.items())

    def top_substrings(self, limit: int) -> List[Tuple[str, int]]:
        """The ``limit`` highest-count substrings (deterministic order).

        Heap-selected: O(n log limit) instead of the full O(n log n)
        sort, with the order of ``sorted(..., key=(-count, substring))``
        preserved exactly.
        """
        return heapq.nsmallest(
            limit, self.counts.items(), key=lambda item: (-item[1], item[0])
        )

    def check_monotonicity(self) -> bool:
        """Verify the PST invariant count(child) <= count(parent)."""
        counts = self.counts
        total = self.string_count
        for substring, count in counts.items():
            parent_count = counts.get(substring[:-1]) if len(substring) > 1 else total
            if parent_count is not None and count > parent_count:
                return False
        return True

    def invariant_issues(self) -> List[str]:
        """Structural issues of the trie (empty = healthy).

        The machine-checkable form of the paper's PST constraints:

        * *prefix closure*: every indexed substring's parent ``s[:-1]``
          is indexed too (a flat trie with no orphan nodes);
        * the *pruning monotonicity constraint*: a string containing
          ``sc`` necessarily contains ``s``, so every node's document
          frequency is bounded by its parent's (and by the string count
          at depth 1);
        * counts are positive (a zero-count node should have been pruned,
          and fusion/pruning never create one);
        * no substring is longer than ``max_depth``.
        """
        issues: List[str] = []
        counts = self.counts
        total = self.string_count
        for substring, count in counts.items():
            if len(substring) > 1:
                parent_count = counts.get(substring[:-1])
                if parent_count is None:
                    issues.append(
                        f"substring {substring!r} has no indexed parent "
                        f"{substring[:-1]!r} (prefix closure)"
                    )
            else:
                parent_count = total
            if parent_count is not None and count > parent_count:
                issues.append(
                    f"substring {substring!r} count {count} exceeds its "
                    f"parent's count {parent_count} (monotonicity)"
                )
            if count <= 0:
                issues.append(
                    f"substring {substring!r} has non-positive count {count}"
                )
            if len(substring) > self.max_depth:
                issues.append(
                    f"substring {substring!r} exceeds max_depth {self.max_depth}"
                )
        if total < 0:
            issues.append(f"string count {total} is negative")
        return issues

    def size_bytes(self) -> int:
        """Storage footprint: 9 bytes per trie node."""
        return NODE_BYTES * len(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrunedSuffixTree(strings={self.string_count}, "
            f"nodes={self.node_count}, max_depth={self.max_depth})"
        )
