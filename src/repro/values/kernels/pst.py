"""PST kernels: incremental ``st_cmprs`` and run-merge fusion.

``st_cmprs`` prunes leaves in increasing pruning-error order, re-ranking
after every deletion (see :meth:`PrunedSuffixTree.prune_leaves`).  The
scalar way to do that — re-enumerate every prunable leaf, recompute every
Markov estimate, re-sort, per deletion — is quadratic in the tree size
and is kept here only as the parity oracle
(:func:`prune_leaves_reference`).

:class:`PSTPruneKernel` gets the same prune sequence from a priority
queue with *lazy invalidation*.  The key observation: during pruning,
node counts never change and the depth-1 symbol layer survives, so a
leaf's pruning error depends on tree structure only through the single
conditioning-suffix node its Markov estimate used
(:meth:`PrunedSuffixTree._markov_estimate_details` reports it).  Deleting
a leaf therefore invalidates exactly (a) the leaves whose recorded suffix
dependency was the deleted node and (b) the parent it may have exposed as
a new prunable leaf — everything else keeps its score.  Substring keys
are memoized per node (computed once by a path-carrying DFS) instead of
being re-derived by parent walks.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.values.pst import PrunedSuffixTree, _Node


def prune_leaves_reference(tree: PrunedSuffixTree, count: int) -> int:
    """Scalar ``st_cmprs`` oracle: full re-rank after every deletion.

    Deletes, ``count`` times, the prunable leaf minimizing
    ``(pruning_error, -count, substring)`` — recomputing every leaf's
    error from scratch each time.  :class:`PSTPruneKernel` must produce
    the exact same prune sequence; the parity tests pin that.
    """
    pruned = 0
    while pruned < count:
        leaves = tree._prunable_leaves()
        if not leaves:
            break
        victim = min(
            leaves,
            key=lambda node: (tree.pruning_error(node), -node.count, node.substring()),
        )
        del victim.parent.children[victim.char]
        tree._node_count -= 1
        pruned += 1
    return pruned


class PSTPruneKernel:
    """Incremental ``st_cmprs`` executor over one (mutated) PST.

    The queue holds ``(error, -count, substring, serial, node)`` entries;
    ``substring`` makes the key a total order (trie substrings are
    unique), and ``serial`` per-node stamps make superseded entries
    skippable on pop.  ``prune(a)`` followed by ``prune(b)`` prunes
    exactly the same leaves as ``prune(a + b)`` — the greedy sequence is
    a fixed point of the tree state — which is what lets the builder's
    compression steppers serve successive ``st_cmprs`` candidates
    without restarting.
    """

    __slots__ = (
        "tree",
        "_heap",
        "_latest",
        "_substrings",
        "_dependents",
        "_dependency",
        "_serial",
    )

    def __init__(self, tree: PrunedSuffixTree) -> None:
        self.tree = tree
        self._heap: List[Tuple[float, int, str, int, _Node]] = []
        #: Liveness + freshness: node -> serial of its current entry.
        self._latest: Dict[_Node, int] = {}
        #: Memoized substring keys (computed once per node).
        self._substrings: Dict[_Node, str] = {}
        #: suffix node -> prunable leaves whose estimate used it.
        self._dependents: Dict[_Node, Set[_Node]] = {}
        #: prunable leaf -> suffix node its current estimate used.
        self._dependency: Dict[_Node, _Node] = {}
        self._serial = 0
        self._seed()

    def _seed(self) -> None:
        """Score every prunable leaf once, via a path-carrying DFS."""
        stack = [
            (child, char) for char, child in self.tree.root.children.items()
        ]
        while stack:
            node, substring = stack.pop()
            if node.children:
                stack.extend(
                    (child, substring + char)
                    for char, child in node.children.items()
                )
            elif len(substring) >= 2:  # depth-1 symbol layer is protected
                self._push(node, substring)

    def _push(self, leaf: _Node, substring: str) -> None:
        """(Re)score one prunable leaf and register its dependency."""
        self._substrings[leaf] = substring
        error, used = self.tree.pruning_error_details(leaf, substring)
        previous = self._dependency.pop(leaf, None)
        if previous is not None:
            dependents = self._dependents.get(previous)
            if dependents is not None:
                dependents.discard(leaf)
        if used is not None:
            self._dependency[leaf] = used
            self._dependents.setdefault(used, set()).add(leaf)
        self._serial += 1
        self._latest[leaf] = self._serial
        heapq.heappush(
            self._heap, (error, -leaf.count, substring, self._serial, leaf)
        )

    @property
    def exhausted(self) -> bool:
        """True when no prunable leaves remain."""
        return not self._latest

    def prune(self, count: int, journal: Optional["PruneJournal"] = None) -> int:
        """Prune up to ``count`` more leaves; returns the number pruned.

        With a ``journal``, every deletion is recorded there first, so
        the batch can be undone (:meth:`PruneJournal.undo`).
        """
        tree = self.tree
        heap = self._heap
        latest = self._latest
        pruned = 0
        while pruned < count and heap:
            _, _, substring, serial, node = heapq.heappop(heap)
            if latest.get(node) != serial:
                continue  # superseded or already deleted
            parent = node.parent
            if journal is not None:
                journal.record(parent, node, substring)
            del parent.children[node.char]
            tree._node_count -= 1
            pruned += 1
            del latest[node]
            del self._substrings[node]
            used = self._dependency.pop(node, None)
            if used is not None:
                dependents = self._dependents.get(used)
                if dependents is not None:
                    dependents.discard(node)
            # Re-rank the leaves whose Markov estimate used this node.
            for leaf in self._dependents.pop(node, ()):
                if leaf in latest:
                    self._push(leaf, self._substrings[leaf])
            # The deletion may expose the parent as a new prunable leaf.
            if not parent.children and parent.parent is not tree.root:
                self._push(parent, substring[:-1])
        return pruned


class PruneJournal:
    """Undo log of one ``PSTPruneKernel.prune`` batch.

    Pruning only ever deletes children-dict entries; the deleted nodes
    keep their ``parent``, ``count`` and own children.  Saving each
    touched parent's children dict as it was before the batch's first
    deletion from it is therefore enough to restore the trie exactly,
    dict insertion order included (re-inserting the deleted keys would
    append them at the end instead).
    """

    __slots__ = ("children", "removed")

    def __init__(self) -> None:
        #: parent -> its children dict before the batch touched it.
        self.children: Dict[_Node, Dict[str, _Node]] = {}
        #: ``(-count, substring)`` of every pruned node, in prune order.
        self.removed: List[Tuple[int, str]] = []

    def record(self, parent: _Node, node: _Node, substring: str) -> None:
        """Note that ``node`` (``substring``) is about to be deleted."""
        if parent not in self.children:
            self.children[parent] = dict(parent.children)
        self.removed.append((-node.count, substring))

    def undo(self, tree: PrunedSuffixTree) -> None:
        """Restore ``tree`` to its state before the recorded batch."""
        for parent, children in self.children.items():
            parent.children = children
        tree._node_count += len(self.removed)


def fuse_psts(left: PrunedSuffixTree, right: PrunedSuffixTree) -> PrunedSuffixTree:
    """Single-pass run-merge fusion of two PSTs.

    Bit-identical to the reference :meth:`PrunedSuffixTree.fuse` — union
    of substrings, summed counts, and the same child insertion order
    (left's children first, then right-only children) — but built in one
    simultaneous walk: each merged node is created exactly once, with at
    most one dictionary probe per shared child, instead of the
    reference's two full passes re-resolving every node in the result.
    One-sided subtrees are copied without any merge probes at all.
    """
    result = PrunedSuffixTree(max(left.max_depth, right.max_depth))
    result.root.count = left.root.count + right.root.count
    created = 0
    stack: List[Tuple[Optional[_Node], Optional[_Node], _Node]] = [
        (left.root, right.root, result.root)
    ]
    while stack:
        l_node, r_node, target = stack.pop()
        r_children = r_node.children if r_node is not None else None
        if l_node is not None:
            for char, l_child in l_node.children.items():
                merged = _Node(char, target)
                merged.count = l_child.count
                r_child = r_children.get(char) if r_children else None
                if r_child is not None:
                    merged.count += r_child.count
                target.children[char] = merged
                created += 1
                if l_child.children or (r_child is not None and r_child.children):
                    stack.append((l_child, r_child, merged))
        if r_children:
            l_children = l_node.children if l_node is not None else None
            for char, r_child in r_children.items():
                if l_children and char in l_children:
                    continue
                merged = _Node(char, target)
                merged.count = r_child.count
                target.children[char] = merged
                created += 1
                if r_child.children:
                    stack.append((None, r_child, merged))
    result._node_count = created
    return result
