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
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Bytes per stored PST node: symbol (1) + count (4) + structure encoding (4).
NODE_BYTES = 9


class _Node:
    """One trie node.  ``count`` is the substring's document frequency."""

    __slots__ = ("char", "parent", "children", "count", "stamp")

    def __init__(self, char: str, parent: Optional["_Node"]) -> None:
        self.char = char
        self.parent = parent
        self.children: Dict[str, _Node] = {}
        self.count = 0
        # Deduplication stamp: id of the last string that touched this
        # node, so each string increments each substring's count once.
        self.stamp = -1

    def substring(self) -> str:
        chars = []
        node = self
        while node.parent is not None:
            chars.append(node.char)
            node = node.parent
        return "".join(reversed(chars))


class PrunedSuffixTree:
    """A pruned suffix tree over a collection of strings."""

    def __init__(self, max_depth: int = 6) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.root = _Node("", None)
        self._node_count = 0  # excludes the root

    # -- construction -----------------------------------------------------

    @classmethod
    def from_strings(
        cls,
        strings: Iterable[str],
        max_depth: int = 6,
        max_nodes: Optional[int] = None,
    ) -> "PrunedSuffixTree":
        """Build a PST by inserting every substring (up to ``max_depth``)
        of every string, then optionally pruning down to ``max_nodes``."""
        tree = cls(max_depth)
        for string in strings:
            tree.insert_string(string)
        if max_nodes is not None and tree.node_count > max_nodes:
            tree.prune_leaves(tree.node_count - max_nodes)
        return tree

    def insert_string(self, string: str) -> None:
        """Index one string: each of its distinct substrings (length ≤
        ``max_depth``) gets its document frequency incremented once."""
        stamp = self.root.stamp + 1
        self.root.stamp = stamp
        self.root.count += 1
        for start in range(len(string)):
            node = self.root
            for offset in range(start, min(start + self.max_depth, len(string))):
                char = string[offset]
                child = node.children.get(char)
                if child is None:
                    child = _Node(char, node)
                    node.children[char] = child
                    self._node_count += 1
                if child.stamp != stamp:
                    child.stamp = stamp
                    child.count += 1
                node = child

    # -- lookups ------------------------------------------------------------

    @property
    def string_count(self) -> int:
        """Number of strings summarized (the root count)."""
        return self.root.count

    @property
    def node_count(self) -> int:
        """Number of substring nodes (root excluded)."""
        return self._node_count

    def lookup(self, substring: str) -> Optional[int]:
        """The stored count of ``substring``, or ``None`` if not indexed."""
        node = self._lookup_node(substring)
        return None if node is None else node.count

    def _lookup_node(self, substring: str) -> Optional[_Node]:
        """The trie node indexing ``substring``, or ``None``."""
        node = self.root
        for char in substring:
            node = node.children.get(char)
            if node is None:
                return None
        return node

    def _longest_match(self, text: str, start: int) -> int:
        """Length of the longest indexed substring starting at ``start``."""
        node = self.root
        length = 0
        for offset in range(start, len(text)):
            node = node.children.get(text[offset])
            if node is None:
                break
            length += 1
        return length

    # -- estimation -----------------------------------------------------------

    def estimate_count(self, query: str) -> float:
        """Estimated number of strings containing ``query`` as a substring.

        Exact for indexed substrings; greedy maximal-overlap Markov
        chaining otherwise.  Returns 0 when the query uses a symbol that
        never occurs in the collection.
        """
        if self.string_count == 0:
            return 0.0
        if not query:
            return float(self.string_count)
        prefix_len = self._longest_match(query, 0)
        if prefix_len == 0:
            return 0.0
        probability = self.lookup(query[:prefix_len]) / self.string_count
        position = prefix_len
        while position < len(query):
            piece = self._best_overlap_piece(query, position)
            if piece is None:
                return 0.0
            overlap_start, extension = piece
            joint = self.lookup(query[overlap_start : position + extension])
            conditioning = (
                self.lookup(query[overlap_start:position])
                if overlap_start < position
                else self.string_count
            )
            if not conditioning:
                return 0.0
            probability *= joint / conditioning
            position += extension
        return probability * self.string_count

    def _best_overlap_piece(
        self, query: str, position: int
    ) -> Optional[Tuple[int, int]]:
        """The maximal-overlap continuation at ``position``.

        Returns ``(overlap_start, extension)`` where
        ``query[overlap_start : position + extension]`` is indexed,
        ``extension >= 1``, and the overlap ``position - overlap_start`` is
        maximal (ties broken toward longer extensions).  ``None`` when even
        the single character ``query[position]`` is unindexed.
        """
        min_start = max(0, position - self.max_depth + 1)
        for overlap_start in range(min_start, position + 1):
            matched = self._longest_match(query, overlap_start)
            extension = overlap_start + matched - position
            if extension >= 1:
                return (overlap_start, extension)
        return None

    def selectivity(self, query: str) -> float:
        """Estimated fraction of strings containing ``query``."""
        if self.string_count == 0:
            return 0.0
        estimate = self.estimate_count(query) / self.string_count
        return min(1.0, max(0.0, estimate))

    # -- pruning (st_cmprs) ------------------------------------------------------

    def _markov_estimate_without(self, node: _Node) -> float:
        """The count the tree would estimate for ``node``'s substring if
        the node were pruned: the first-order Markov combination of its
        parent and its longest proper suffix still in the tree."""
        return self._markov_estimate_details(node)[0]

    def _markov_estimate_details(
        self, node: _Node, substring: Optional[str] = None
    ) -> Tuple[float, Optional[_Node]]:
        """The post-prune Markov estimate and its structural dependency.

        Returns ``(estimate, suffix_node)`` where ``suffix_node`` is the
        conditioning-suffix node the estimate used, or ``None`` for the
        symbol-frequency fallback.  During pruning only node *existence*
        changes (counts are never touched and the depth-1 symbol layer
        survives), so the estimate can only change when that one suffix
        node is deleted — the fact the incremental ``st_cmprs`` kernel
        keys its lazy invalidation on.
        """
        if substring is None:
            substring = node.substring()
        parent_count = node.parent.count if node.parent is not None else self.string_count
        # Longest proper suffix of the substring that is still indexed
        # (excluding the node itself, which is about to go away).
        for start in range(1, len(substring)):
            suffix_node = self._lookup_node(substring[start:])
            if suffix_node is None:
                continue
            # The conditioning context ``substring[start:-1]`` is the
            # suffix node's trie parent (the root, whose count is the
            # string count, for a one-symbol suffix).
            conditioning = suffix_node.parent.count
            if conditioning:
                return parent_count * (suffix_node.count / conditioning), suffix_node
        # No usable suffix: fall back to the parent's count scaled by the
        # unconditional frequency of the final symbol.
        last_char = self.root.children.get(substring[-1])
        if last_char is None or self.string_count == 0:
            return 0.0, None
        return parent_count * (last_char.count / self.string_count), None

    def pruning_error(self, node: _Node) -> float:
        """|exact count − post-prune Markov estimate| for a leaf node."""
        return abs(node.count - self._markov_estimate_without(node))

    def pruning_error_details(
        self, node: _Node, substring: Optional[str] = None
    ) -> Tuple[float, Optional[_Node]]:
        """``pruning_error`` plus the suffix node the estimate depends on."""
        estimate, used = self._markov_estimate_details(node, substring)
        return abs(node.count - estimate), used

    def _iter_nodes(self) -> Iterator[_Node]:
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def _prunable_leaves(self) -> List[_Node]:
        """Current leaves that may be removed: depth ≥ 2 (each observed
        symbol keeps its depth-1 node, per the paper's modification)."""
        return [
            node
            for node in self._iter_nodes()
            if not node.children and node.parent is not self.root
        ]

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
        # A leaf at depth >= 2 exists exactly when some depth-1 node has
        # children (follow any child chain down to a leaf).
        return any(child.children for child in self.root.children.values())

    # -- fusion ---------------------------------------------------------------

    def fuse(self, other: "PrunedSuffixTree") -> "PrunedSuffixTree":
        """Combine two PSTs: union of substrings with summed counts."""
        result = PrunedSuffixTree(max(self.max_depth, other.max_depth))
        result.root.count = self.root.count + other.root.count
        for source in (self, other):
            stack: List[Tuple[_Node, _Node]] = []
            for char, child in source.root.children.items():
                target = result.root.children.get(char)
                if target is None:
                    target = _Node(char, result.root)
                    result.root.children[char] = target
                    result._node_count += 1
                stack.append((child, target))
            while stack:
                src, dst = stack.pop()
                dst.count += src.count
                for char, child in src.children.items():
                    target = dst.children.get(char)
                    if target is None:
                        target = _Node(char, dst)
                        dst.children[char] = target
                        result._node_count += 1
                    stack.append((child, target))
        return result

    # -- enumeration and accounting ---------------------------------------------

    def substrings(self) -> Iterator[Tuple[str, int]]:
        """All indexed substrings with their counts (arbitrary order).

        The DFS carries the path prefix, so enumeration costs one string
        concatenation per node instead of a root walk per node.
        """
        stack: List[Tuple[_Node, str]] = [
            (child, char) for char, child in self.root.children.items()
        ]
        while stack:
            node, substring = stack.pop()
            yield substring, node.count
            stack.extend(
                (child, substring + char) for char, child in node.children.items()
            )

    def top_substrings(self, limit: int) -> List[Tuple[str, int]]:
        """The ``limit`` highest-count substrings (deterministic order).

        Heap-selected: O(n log limit) instead of the full O(n log n)
        sort, with the order of ``sorted(..., key=(-count, substring))``
        preserved exactly.
        """
        return heapq.nsmallest(
            limit, self.substrings(), key=lambda item: (-item[1], item[0])
        )

    def check_monotonicity(self) -> bool:
        """Verify the PST invariant count(child) <= count(parent)."""
        for node in self._iter_nodes():
            parent_count = (
                node.parent.count if node.parent is not self.root else self.root.count
            )
            if node.count > parent_count:
                return False
        return True

    def invariant_issues(self) -> List[str]:
        """Structural issues of the trie (empty = healthy).

        The machine-checkable form of the paper's PST constraints:

        * the *pruning monotonicity constraint*: a string containing
          ``sc`` necessarily contains ``s``, so every node's document
          frequency is bounded by its parent's (and by the string count
          at depth 1);
        * counts are positive (a zero-count node should have been pruned,
          and fusion/pruning never create one);
        * no path exceeds ``max_depth``;
        * the cached ``_node_count`` matches the actual trie size.
        """
        issues: List[str] = []
        actual_nodes = 0
        stack: List[Tuple[_Node, str, int]] = [
            (child, char, 1) for char, child in self.root.children.items()
        ]
        while stack:
            node, substring, depth = stack.pop()
            actual_nodes += 1
            parent_count = (
                node.parent.count if node.parent is not self.root else self.root.count
            )
            if node.count > parent_count:
                issues.append(
                    f"substring {substring!r} count {node.count} exceeds its "
                    f"parent's count {parent_count} (monotonicity)"
                )
            if node.count <= 0:
                issues.append(
                    f"substring {substring!r} has non-positive count {node.count}"
                )
            if depth > self.max_depth:
                issues.append(
                    f"substring {substring!r} exceeds max_depth {self.max_depth}"
                )
            stack.extend(
                (child, substring + char, depth + 1)
                for char, child in node.children.items()
            )
        if actual_nodes != self._node_count:
            issues.append(
                f"cached node count {self._node_count} != {actual_nodes} trie nodes"
            )
        if self.root.count < 0:
            issues.append(f"string count {self.root.count} is negative")
        return issues

    def size_bytes(self) -> int:
        """Storage footprint: 9 bytes per trie node."""
        return NODE_BYTES * self._node_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrunedSuffixTree(strings={self.string_count}, "
            f"nodes={self._node_count}, max_depth={self.max_depth})"
        )
