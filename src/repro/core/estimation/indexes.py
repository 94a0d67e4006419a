"""Shared synopsis-side caches for the compiled estimation engine.

Estimation over a partition graph should be a table lookup, not a
re-traversal: the structural-summary literature (DescribeX's precomputed
axis extents, Arion et al.'s path-summary lookups) precomputes exactly
the per-axis transition information that the scalar estimator's
``_expand_step`` re-derives on every call.  A :class:`SynopsisIndex`
holds that derived state for one synopsis:

* a **label → nodes** index (as membership sets, used to filter
  transition rows without per-node attribute lookups),
* per-``(source, axis, label-test)`` **transition rows** — the resolved
  ``(target, average-count)`` pairs one axis step can move a frontier
  entry through,
* **descendant closures** — the expected descendant-path counts of the
  scalar estimator's ``_descendants``, shared across every estimator
  instance bound to the same synopsis,
* a memoized **reach cache** keyed by canonicalized edge paths, and
* a **selectivity cache** keyed by ``(value summary, predicate)``.

The index is deliberately dumb storage: :class:`~repro.core.estimation.
engine.CompiledEstimator` populates the tables (and accounts hits and
misses on its own :class:`~repro.core.estimation.engine.EstimatorStats`).
Invalidation is explicit and cheap — the synopsis bumps an integer
``version`` on every structural mutation, and :meth:`ensure_current`
drops every derived table when the versions diverge.  Value-summary
replacement needs no bump: the selectivity cache keys on the summary
object itself, so a swapped summary simply misses.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.distance import SelectivityCache
from repro.core.synopsis import XClusterSynopsis

#: A resolved transition row: ``(target node id, average paths per
#: source element)`` pairs in the scalar expansion's iteration order
#: (so replaying a row reproduces the scalar float-summation order).
TransitionRow = Tuple[Tuple[int, float], ...]

#: Canonical edge-path key: one ``(axis, label)`` pair per step.
EdgeKey = Tuple[Tuple[str, str], ...]

#: Sentinel id for the virtual document node above the synopsis root.
VIRTUAL_ROOT = -1


class SynopsisIndex:
    """Derived estimation tables for one synopsis, shared by estimators.

    Attributes:
        synopsis: the indexed synopsis.
        child_rows: ``(source id, label test) -> TransitionRow`` for the
            child axis.
        descendant_rows: ``(source id, label test, max path length) ->
            TransitionRow`` for the descendant axis.
        descendant_closures: ``(node id, max path length) -> {target id:
            expected descendant paths}``.
        reach_cache: ``(source id, EdgeKey, max path length) -> frontier``
            for whole edge paths; cached frontiers must not be mutated.
        selectivity_cache: ``(value summary, predicate) -> σ``.
        invalidations: times :meth:`ensure_current` dropped the tables.
    """

    def __init__(self, synopsis: XClusterSynopsis) -> None:
        self.synopsis = synopsis
        self._version = synopsis.version
        self._label_sets: Optional[Dict[str, FrozenSet[int]]] = None
        self.child_rows: Dict[Tuple[int, str], TransitionRow] = {}
        self.descendant_rows: Dict[Tuple[int, str, int], TransitionRow] = {}
        self.descendant_closures: Dict[Tuple[int, int], Dict[int, float]] = {}
        self.reach_cache: Dict[Tuple[int, EdgeKey, int], Dict[int, float]] = {}
        self.selectivity_cache: SelectivityCache = {}
        self.invalidations = 0

    def ensure_current(self) -> bool:
        """Drop every derived table if the synopsis has mutated.

        Returns ``True`` when an invalidation happened.  Engines call
        this once per estimate, so a mutation between queries is caught
        before any stale table is consulted.
        """
        if self._version == self.synopsis.version:
            return False
        self._version = self.synopsis.version
        self._label_sets = None
        self.child_rows.clear()
        self.descendant_rows.clear()
        self.descendant_closures.clear()
        self.reach_cache.clear()
        self.selectivity_cache.clear()
        self.invalidations += 1
        return True

    def invariant_issues(self) -> list:
        """Staleness issues with the cached tables (empty = healthy).

        The index's correctness rests on two properties that a missed
        ``ensure_current`` call would silently break: the recorded
        version matches the synopsis, and every node id appearing in a
        cached table still exists.  The differential harness calls this
        after serving a workload to assert the version-checked
        invalidation protocol held.
        """
        issues = []
        if self._version != self.synopsis.version:
            issues.append(
                f"index version {self._version} behind synopsis version "
                f"{self.synopsis.version} (ensure_current not called)"
            )
        nodes = self.synopsis.nodes
        for source_id, _label in self.child_rows:
            if source_id == VIRTUAL_ROOT:
                continue  # the estimators' virtual document root
            if source_id not in nodes:
                issues.append(
                    f"child-axis row cached for missing node {source_id}"
                )
        for source_id, _label, _limit in self.descendant_rows:
            if source_id == VIRTUAL_ROOT:
                continue
            if source_id not in nodes:
                issues.append(
                    f"descendant-axis row cached for missing node {source_id}"
                )
        for (source_id, _limit), closure in self.descendant_closures.items():
            if source_id == VIRTUAL_ROOT:
                continue
            if source_id not in nodes:
                issues.append(
                    f"descendant closure cached for missing node {source_id}"
                )
                continue
            for target_id in closure:
                if target_id not in nodes:
                    issues.append(
                        f"descendant closure of node {source_id} reaches "
                        f"missing node {target_id}"
                    )
        if self._label_sets is not None:
            for label, members in self._label_sets.items():
                for node_id in members:
                    if node_id not in nodes:
                        issues.append(
                            f"label index {label!r} lists missing node {node_id}"
                        )
        return issues

    def label_set(self, label: str) -> FrozenSet[int]:
        """The ids of every cluster carrying ``label`` (the label index)."""
        table = self._label_sets
        if table is None:
            members: Dict[str, list] = {}
            for node in self.synopsis:
                members.setdefault(node.label, []).append(node.node_id)
            table = {tag: frozenset(ids) for tag, ids in members.items()}
            self._label_sets = table
        return table.get(label, frozenset())


#: Registry of shared indexes, keyed by synopsis identity.  Values are
#: weak: an index lives exactly as long as some estimator references it.
#: While an index is alive it strongly references its synopsis, so the
#: id key cannot be recycled under a live entry.
_SHARED_INDEXES: "weakref.WeakValueDictionary[int, SynopsisIndex]" = (
    weakref.WeakValueDictionary()
)


def shared_index(synopsis: XClusterSynopsis) -> SynopsisIndex:
    """The process-wide shared :class:`SynopsisIndex` of ``synopsis``.

    Estimators created at different times for the same synopsis object
    resolve to the same index, so descendant closures, transition rows,
    and reach frontiers computed by one instance are reused by all.
    """
    index = _SHARED_INDEXES.get(id(synopsis))
    if index is None or index.synopsis is not synopsis:
        index = SynopsisIndex(synopsis)
        _SHARED_INDEXES[id(synopsis)] = index
    return index
