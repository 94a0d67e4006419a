"""The synopsis invariant auditor.

An XCluster synopsis carries redundant structure by design: reverse
adjacency mirrors forward edges, per-edge average child counters must
reconcile with extent counts, and every value summary maintains internal
bookkeeping (histogram CDFs, PST monotone counts, EBTH exact/bucket
partitions).  Construction bugs rarely crash — they quietly skew these
books.  The :class:`InvariantAuditor` walks a synopsis and checks every
machine-verifiable consequence of the paper's definitions, returning
structured :class:`Violation` records instead of raising, so callers
(the ``python -m repro check`` verb, the differential harness, tests)
can report all findings at once.

Invariant catalog
-----------------

``graph-integrity``
    Edge symmetry, positive counts, root referential integrity — the
    checks behind :meth:`XClusterSynopsis.validate`, surfaced via
    :meth:`XClusterSynopsis.iter_integrity_issues`.

``element-conservation``
    For every node ``v``: ``sum_p |p| * count(p, v)`` plus one if ``v``
    holds the document root equals ``|v|``.  True on reference synopses
    (each element has exactly one parent) and *exactly* preserved by the
    merge operation: outgoing weighted averages and incoming sums both
    keep each parent's contribution ``|p| * count(p, v)`` constant.

``summary-decode``
    A lazily-loaded value summary (relaxed ``verify=False`` loads defer
    payload decoding to first access — see
    :mod:`repro.core.serialization` and :mod:`repro.core.snapshot`)
    decodes at all.  A corrupt payload surfaces here as a structured
    violation instead of an exception escaping the audit.

``summary-extent``
    A value summary never summarizes more values than the cluster has
    elements (``vsumm.count <= |u|``), and its value type matches the
    node's (the type-respecting condition of Definition 3.1).

``summary-internal``
    The summary's own ``invariant_issues`` hook: histogram bucket
    ordering and cached-CDF books, PST count monotonicity along trie
    paths, EBTH exact/bucket disjointness and end-biased ordering, RLE
    bitmap well-formedness.

``selectivity-bounds``
    Over the summary's canonical atomic predicates, ``selectivity`` is a
    fraction in ``[0, 1]`` and ``fast_selectivity`` (the bulk-scoring
    fast path) agrees with it to float rounding — the micro-oracle that
    caught nothing is the micro-oracle worth keeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.synopsis import XClusterSynopsis

#: Relative tolerance for float book-keeping comparisons.
DEFAULT_TOLERANCE = 1e-6
#: Absolute slack for selectivity fast-path agreement.
FAST_PATH_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Violation:
    """One audited invariant breach.

    Attributes:
        invariant: catalog key (see module docstring).
        message: human-readable description naming the offending value.
        node_id: the synopsis node involved, when attributable.
        severity: ``"error"`` for definition violations, ``"warning"``
            for advisory findings (currently unused by the auditor but
            available to harness extensions).
    """

    invariant: str
    message: str
    node_id: Optional[int] = None
    severity: str = "error"

    def __str__(self) -> str:
        location = f" [node {self.node_id}]" if self.node_id is not None else ""
        return f"{self.invariant}{location}: {self.message}"


@dataclass
class InvariantAuditor:
    """Walks a synopsis and collects every invariant breach.

    Attributes:
        tolerance: relative tolerance for float book-keeping.
        predicate_limit: atomic predicates probed per summary for the
            selectivity-bounds check (0 disables the probe — it is the
            only check whose cost grows with summary detail).
    """

    tolerance: float = DEFAULT_TOLERANCE
    predicate_limit: int = 16
    check_selectivity: bool = field(default=True)

    def audit(self, synopsis: XClusterSynopsis) -> List[Violation]:
        """Every violation found, in catalog order (empty = healthy)."""
        violations: List[Violation] = []
        violations.extend(self._graph_integrity(synopsis))
        if not violations:
            # Conservation sums dereference edges; skip when the graph
            # itself is broken so one corruption reports once, clearly.
            violations.extend(self._element_conservation(synopsis))
        violations.extend(self._summaries(synopsis))
        return violations

    # -- graph-integrity ----------------------------------------------------

    def _graph_integrity(self, synopsis: XClusterSynopsis) -> List[Violation]:
        return [
            Violation("graph-integrity", message, node_id)
            for message, node_id in synopsis.iter_integrity_issues()
        ]

    # -- element-conservation -------------------------------------------------

    def _element_conservation(self, synopsis: XClusterSynopsis) -> List[Violation]:
        violations: List[Violation] = []
        for node in synopsis:
            incoming = 0.0
            for parent_id in node.parents:
                parent = synopsis.nodes[parent_id]
                incoming += parent.count * parent.children[node.node_id]
            if node.node_id == synopsis.root_id:
                incoming += 1.0
            scale = max(1.0, abs(node.count))
            if abs(incoming - node.count) > self.tolerance * scale:
                violations.append(
                    Violation(
                        "element-conservation",
                        f"incoming element mass {incoming!r} != extent "
                        f"count {node.count!r}",
                        node.node_id,
                    )
                )
        return violations

    # -- value summaries ------------------------------------------------------

    def _summaries(self, synopsis: XClusterSynopsis) -> List[Violation]:
        violations: List[Violation] = []
        for node in synopsis.valued_nodes():
            try:
                vsumm = node.vsumm  # may run a deferred decode thunk
            except ValueError as err:  # SynopsisFormatError is a ValueError
                violations.append(
                    Violation(
                        "summary-decode",
                        f"value summary failed to decode: {err}",
                        node.node_id,
                    )
                )
                continue
            assert vsumm is not None  # valued_nodes filters
            if vsumm.value_type is not node.value_type:
                violations.append(
                    Violation(
                        "summary-extent",
                        f"summary type {vsumm.value_type} != node type "
                        f"{node.value_type}",
                        node.node_id,
                    )
                )
                continue  # predicates of the wrong type would raise
            slack = self.tolerance * max(1.0, abs(node.count))
            if vsumm.count > node.count + slack:
                violations.append(
                    Violation(
                        "summary-extent",
                        f"summary covers {vsumm.count!r} values but the "
                        f"extent has {node.count!r} elements",
                        node.node_id,
                    )
                )
            for message in vsumm.invariant_issues(self.tolerance):
                violations.append(
                    Violation("summary-internal", message, node.node_id)
                )
            if self.check_selectivity and self.predicate_limit > 0:
                violations.extend(self._selectivity_bounds(node))
        return violations

    def _selectivity_bounds(self, node) -> List[Violation]:
        violations: List[Violation] = []
        vsumm = node.vsumm
        for predicate in vsumm.canonical_atomic_predicates(self.predicate_limit):
            sigma = vsumm.selectivity(predicate)
            if sigma < -self.tolerance or sigma > 1.0 + self.tolerance:
                violations.append(
                    Violation(
                        "selectivity-bounds",
                        f"selectivity {sigma!r} of {predicate!r} outside [0, 1]",
                        node.node_id,
                    )
                )
            fast = vsumm.fast_selectivity(predicate)
            if abs(fast - sigma) > FAST_PATH_TOLERANCE:
                violations.append(
                    Violation(
                        "selectivity-bounds",
                        f"fast_selectivity {fast!r} != selectivity {sigma!r} "
                        f"for {predicate!r}",
                        node.node_id,
                    )
                )
        return violations


def audit_synopsis(
    synopsis: XClusterSynopsis,
    tolerance: float = DEFAULT_TOLERANCE,
    predicate_limit: int = 16,
) -> List[Violation]:
    """One-shot audit with default settings (empty list = healthy)."""
    auditor = InvariantAuditor(tolerance=tolerance, predicate_limit=predicate_limit)
    return auditor.audit(synopsis)
