"""PST kernel: incremental ``st_cmprs``.

``st_cmprs`` prunes leaves in increasing pruning-error order, re-ranking
after every deletion (see :meth:`PrunedSuffixTree.prune_leaves`).  The
scalar way to do that — re-enumerate every prunable leaf, recompute every
Markov estimate, re-sort, per deletion — is quadratic in the tree size
and is kept here only as the parity oracle
(:func:`prune_leaves_reference`).

:class:`PSTPruneKernel` gets the same prune sequence from a priority
queue with *lazy invalidation*.  The key observation: during pruning,
counts never change and the depth-1 symbol layer survives, so a leaf's
pruning error depends on tree structure only through the single
conditioning suffix its Markov estimate used
(:meth:`PrunedSuffixTree.pruning_error_details` reports it).  Deleting
a leaf therefore invalidates exactly (a) the leaves whose recorded suffix
dependency was the deleted substring and (b) the parent it may have
exposed as a new prunable leaf — everything else keeps its score.  Leaf
detection is a per-parent fan-out count over the flat trie.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.values.pst import PrunedSuffixTree


def prune_leaves_reference(tree: PrunedSuffixTree, count: int) -> int:
    """Scalar ``st_cmprs`` oracle: full re-rank after every deletion.

    Deletes, ``count`` times, the prunable leaf minimizing
    ``(pruning_error, -count, substring)`` — recomputing every leaf's
    error from scratch each time.  :class:`PSTPruneKernel` must produce
    the exact same prune sequence; the parity tests pin that.
    """
    counts = tree.counts
    pruned = 0
    while pruned < count:
        leaves = tree._prunable_leaves()
        if not leaves:
            break
        victim = min(
            leaves,
            key=lambda leaf: (tree.pruning_error(leaf), -counts[leaf], leaf),
        )
        del counts[victim]
        pruned += 1
    return pruned


class PSTPruneKernel:
    """Incremental ``st_cmprs`` executor over one (mutated) PST.

    The queue holds ``(error, -count, substring, serial)`` entries;
    ``substring`` makes the key a total order (indexed substrings are
    unique), and ``serial`` stamps make superseded entries skippable on
    pop.  ``prune(a)`` followed by ``prune(b)`` prunes exactly the same
    leaves as ``prune(a + b)`` — the greedy sequence is a fixed point of
    the tree state — which is what lets the builder's compression
    steppers serve successive ``st_cmprs`` candidates without restarting.
    """

    __slots__ = (
        "tree",
        "_heap",
        "_latest",
        "_fanout",
        "_dependents",
        "_dependency",
        "_serial",
    )

    def __init__(self, tree: PrunedSuffixTree) -> None:
        self.tree = tree
        #: Liveness + freshness: prunable leaf -> serial of its entry.
        self._latest: Dict[str, int] = {}
        #: substring -> number of indexed children (absent: a leaf).
        fanout: Dict[str, int] = {}
        for substring in tree.counts:
            if len(substring) > 1:
                parent = substring[:-1]
                fanout[parent] = fanout.get(parent, 0) + 1
        self._fanout = fanout
        #: suffix -> prunable leaves whose estimate used it.
        self._dependents: Dict[str, Set[str]] = {}
        #: prunable leaf -> suffix its current estimate used.
        self._dependency: Dict[str, str] = {}
        self._serial = 0
        # Score every prunable leaf once (the depth-1 layer is protected).
        self._heap: List[Tuple[float, int, str, int]] = [
            self._score(substring)
            for substring in tree.counts
            if len(substring) > 1 and substring not in fanout
        ]
        heapq.heapify(self._heap)

    def _score(self, leaf: str) -> Tuple[float, int, str, int]:
        """(Re)score one prunable leaf and register its dependency."""
        error, used = self.tree.pruning_error_details(leaf)
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
        return (error, -self.tree.counts[leaf], leaf, self._serial)

    def prune(
        self, count: int, removed: Optional[List[Tuple[int, str]]] = None
    ) -> int:
        """Prune up to ``count`` more leaves; returns the number pruned.

        With a ``removed`` list, ``(-count, substring)`` of every deleted
        leaf is appended to it, in prune order.
        """
        counts = self.tree.counts
        heap = self._heap
        latest = self._latest
        fanout = self._fanout
        pruned = 0
        while pruned < count and heap:
            _, negative, substring, serial = heapq.heappop(heap)
            if latest.get(substring) != serial:
                continue  # superseded or already deleted
            if removed is not None:
                removed.append((negative, substring))
            del counts[substring]
            del latest[substring]
            pruned += 1
            used = self._dependency.pop(substring, None)
            if used is not None:
                dependents = self._dependents.get(used)
                if dependents is not None:
                    dependents.discard(substring)
            # Re-rank the leaves whose Markov estimate used this substring.
            for leaf in self._dependents.pop(substring, ()):
                if leaf in latest:
                    heapq.heappush(heap, self._score(leaf))
            # The deletion may expose the parent as a new prunable leaf.
            parent = substring[:-1]
            remaining = fanout[parent] - 1
            if remaining:
                fanout[parent] = remaining
            else:
                del fanout[parent]
                if len(parent) > 1:
                    heapq.heappush(heap, self._score(parent))
        return pruned
