"""The XCluster synopsis graph model (paper Definition 3.1).

An :class:`XClusterSynopsis` is a node- and edge-labeled, type-respecting
graph synopsis: every node represents a structure-value cluster of
identically-labeled, identically-typed document elements and stores

1. the element count ``|u|`` of its extent,
2. per-edge average child counters ``count(u, v)``, and
3. an optional value summary ``vsumm(u)`` approximating the distribution
   of the extent's values.

The synopsis is mutable — the builder compresses it in place via node
merges and value-compression steps — and self-indexing: nodes are keyed
by integer id, and reverse (parent) adjacency is maintained alongside the
forward edges.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.values.summary import TextSummary, ValueSummary, fuse_summaries
from repro.values.termvector import Vocabulary
from repro.xmltree.types import ValueType


class SynopsisNode:
    """One structure-value cluster.

    Attributes:
        node_id: unique id within the synopsis.
        label: the common tag of all extent elements.
        value_type: the common value type of all extent elements.
        count: ``|extent(u)|``.
        vsumm: the value summary, or ``None`` for structure-only nodes.
            The summary may be *deferred* (:meth:`defer_summary`): loaders
            can park a decode thunk instead of a materialized summary, and
            the first ``vsumm`` access pays the decode.  Every consumer
            sees the same object either way.
        children: forward edges ``child id -> count(u, child)`` (average
            number of child-cluster children per extent element).
        parents: ids of nodes with an edge into this one.
    """

    __slots__ = (
        "node_id",
        "label",
        "value_type",
        "count",
        "_vsumm",
        "_vsumm_thunk",
        "children",
        "parents",
    )

    def __init__(
        self,
        node_id: int,
        label: str,
        value_type: ValueType,
        count: int,
        vsumm: Optional[ValueSummary] = None,
    ) -> None:
        self.node_id = node_id
        self.label = label
        self.value_type = value_type
        self.count = count
        self._vsumm = vsumm
        self._vsumm_thunk = None
        self.children: Dict[int, float] = {}
        self.parents: Set[int] = set()

    @property
    def vsumm(self) -> Optional[ValueSummary]:
        thunk = self._vsumm_thunk
        if thunk is not None:
            # Materialize only on success: a corrupt payload keeps the
            # thunk parked, so every access raises the same format error
            # instead of silently degrading to "no summary".
            self._vsumm = thunk()
            self._vsumm_thunk = None
        return self._vsumm

    @vsumm.setter
    def vsumm(self, summary: Optional[ValueSummary]) -> None:
        self._vsumm = summary
        self._vsumm_thunk = None

    def defer_summary(self, thunk) -> None:
        """Park a zero-argument decode callable as the value summary.

        The thunk runs (once) on the first ``vsumm`` read; until then the
        node holds no materialized summary, which is what lets snapshot
        and relaxed JSON loading skip per-family decoding entirely for
        summaries a workload never touches.
        """
        self._vsumm = None
        self._vsumm_thunk = thunk

    @property
    def summary_deferred(self) -> bool:
        """Whether the value summary is still an undecoded thunk."""
        return self._vsumm_thunk is not None

    def __getstate__(self):
        # Decode thunks close over load-time buffers and are not
        # picklable; materialize so a ``copy.deepcopy`` of a loaded
        # synopsis holds ordinary summaries.
        return (
            self.node_id,
            self.label,
            self.value_type,
            self.count,
            self.vsumm,
            self.children,
            self.parents,
        )

    def __setstate__(self, state) -> None:
        (
            self.node_id,
            self.label,
            self.value_type,
            self.count,
            self._vsumm,
            self.children,
            self.parents,
        ) = state
        self._vsumm_thunk = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def has_summary(self) -> bool:
        return self._vsumm is not None or self._vsumm_thunk is not None

    def merge_key(self) -> Tuple[str, ValueType]:
        """Nodes are merge-compatible iff their merge keys are equal.

        Label and value type must match (the type-respecting condition of
        Definition 3.1).  A summarized cluster may absorb an unsummarized
        one of the same label/type: the fused cluster keeps the summary,
        which then approximates the whole extent — exactly the semantics
        of the tag-level summary, whose per-tag clusters also count
        elements beyond the summarized value paths.
        """
        return (self.label, self.value_type)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SynopsisNode #{self.node_id} {self.label}({self.count}) "
            f"type={self.value_type} children={len(self.children)}>"
        )


class XClusterSynopsis:
    """A mutable XCluster synopsis graph."""

    def __init__(self) -> None:
        self.nodes: Dict[int, SynopsisNode] = {}
        self.root_id: Optional[int] = None
        self._next_id = 0
        #: Structural-mutation counter.  Every operation that changes the
        #: node or edge set bumps it, so derived caches (descendant
        #: closures, transition tables in :mod:`repro.core.estimation`)
        #: can detect staleness with one integer comparison.  Value-summary
        #: replacement does not bump it: selectivity caches key on the
        #: summary object itself and self-invalidate.
        self.version = 0

    # -- construction -----------------------------------------------------

    def add_node(
        self,
        label: str,
        value_type: ValueType,
        count: int,
        vsumm: Optional[ValueSummary] = None,
    ) -> SynopsisNode:
        """Create and register a new cluster node."""
        node = SynopsisNode(self._next_id, label, value_type, count, vsumm)
        self.nodes[node.node_id] = node
        self._next_id += 1
        self.version += 1
        return node

    def set_root(self, node: SynopsisNode) -> None:
        """Designate the cluster holding the document root element."""
        self.root_id = node.node_id

    @property
    def root(self) -> SynopsisNode:
        if self.root_id is None:
            raise ValueError("synopsis has no root")
        return self.nodes[self.root_id]

    def add_edge(self, parent: SynopsisNode, child: SynopsisNode, count: float) -> None:
        """Set the average child counter ``count(parent, child)``."""
        if count <= 0:
            raise ValueError("edge counts must be positive")
        parent.children[child.node_id] = count
        child.parents.add(parent.node_id)
        self.version += 1

    # -- inspection ---------------------------------------------------------

    def __iter__(self) -> Iterator[SynopsisNode]:
        return iter(self.nodes.values())

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(node.children) for node in self.nodes.values())

    def node(self, node_id: int) -> SynopsisNode:
        """The node with the given id (KeyError if absent)."""
        return self.nodes[node_id]

    def children_of(self, node: SynopsisNode) -> List[SynopsisNode]:
        """The nodes this node has edges to."""
        return [self.nodes[child_id] for child_id in node.children]

    def nodes_by_label(self, label: str) -> List[SynopsisNode]:
        """All clusters carrying the given tag."""
        return [node for node in self.nodes.values() if node.label == label]

    def valued_nodes(self) -> List[SynopsisNode]:
        """Nodes carrying a value summary (materialized or deferred)."""
        return [node for node in self.nodes.values() if node.has_summary]

    def total_element_count(self) -> int:
        """Sum of all extent sizes (equals the document size)."""
        return sum(node.count for node in self.nodes.values())

    def levels(self) -> Dict[int, int]:
        """Level of each node: shortest outgoing distance to a leaf.

        Leaves are level 0, their parents at least 1, and so on (paper
        Section 4.3).  Nodes that cannot reach a leaf without revisiting a
        cycle get the maximum finite level plus one.
        """
        level: Dict[int, int] = {}
        frontier = [node.node_id for node in self.nodes.values() if node.is_leaf]
        for node_id in frontier:
            level[node_id] = 0
        current = 0
        while frontier:
            next_frontier = []
            for node_id in frontier:
                for parent_id in self.nodes[node_id].parents:
                    if parent_id not in level:
                        level[parent_id] = current + 1
                        next_frontier.append(parent_id)
            frontier = next_frontier
            current += 1
        overflow = current + 1
        for node_id in self.nodes:
            level.setdefault(node_id, overflow)
        return level

    # -- the node-merge operation (paper Section 4.1) ---------------------------

    def merge_nodes(self, u_id: int, v_id: int) -> SynopsisNode:
        """Apply ``merge(S, u, v)`` in place and return the merged node.

        The new node ``w`` inherits the union of both extents, parents,
        and children; edge counts follow the paper's weighted-average
        (outgoing) and sum (incoming) semantics; value summaries are
        fused with the type-specific fusion function.
        """
        if u_id == v_id:
            raise ValueError("cannot merge a node with itself")
        u = self.nodes[u_id]
        v = self.nodes[v_id]
        if u.merge_key() != v.merge_key():
            raise ValueError(
                f"nodes {u_id} and {v_id} are not merge-compatible: "
                f"{u.merge_key()} vs {v.merge_key()}"
            )
        w = self.add_node(
            u.label,
            u.value_type,
            u.count + v.count,
            fuse_summaries(u.vsumm, v.vsumm),
        )

        # Outgoing edges: count(w, c) = (|u| count(u,c) + |v| count(v,c)) / |w|.
        for source in (u, v):
            for child_id, avg in source.children.items():
                w.children[child_id] = w.children.get(child_id, 0.0) + source.count * avg
        for child_id in list(w.children):
            w.children[child_id] /= w.count

        # Incoming edges: count(p, w) = count(p, u) + count(p, v).
        for parent_id in u.parents | v.parents:
            parent = self.nodes[parent_id]
            incoming = parent.children.pop(u_id, 0.0) + parent.children.pop(v_id, 0.0)
            if parent_id in (u_id, v_id):
                continue  # handled below as a self-loop on w
            parent.children[w.node_id] = incoming
            w.parents.add(parent_id)

        # Self-loops: edges between u and v (or loops on them) become w->w,
        # keeping the weighted-average outgoing-count semantics.
        self_loop = w.children.pop(u_id, 0.0) + w.children.pop(v_id, 0.0)
        if self_loop > 0.0:
            w.children[w.node_id] = self_loop
            w.parents.add(w.node_id)

        # Rewire children's parent sets.
        for child_id in w.children:
            child = self.nodes[child_id]
            child.parents.discard(u_id)
            child.parents.discard(v_id)
            child.parents.add(w.node_id)

        if self.root_id in (u_id, v_id):
            self.root_id = w.node_id
        del self.nodes[u_id]
        del self.nodes[v_id]
        self.version += 1
        return w

    # -- integrity ----------------------------------------------------------------

    def iter_integrity_issues(self) -> Iterator[Tuple[str, Optional[int]]]:
        """Yield ``(message, node_id)`` for every graph-invariant breach.

        Checks edge symmetry, positive counts, and root referential
        integrity.  This is the introspection hook behind both
        :meth:`validate` (which raises on the first issue) and the
        :class:`repro.check.invariants.InvariantAuditor` (which collects
        every issue as a structured ``Violation``).
        """
        if self.root_id is not None and self.root_id not in self.nodes:
            yield ("root id does not reference a node", self.root_id)
        for node in self.nodes.values():
            if node.count <= 0:
                yield (f"node {node.node_id} has non-positive count", node.node_id)
            for child_id, avg in node.children.items():
                if child_id not in self.nodes:
                    yield (
                        f"edge {node.node_id}->{child_id} points at a missing node",
                        node.node_id,
                    )
                    continue
                if avg <= 0:
                    yield (
                        f"edge {node.node_id}->{child_id} has non-positive count",
                        node.node_id,
                    )
                if node.node_id not in self.nodes[child_id].parents:
                    yield (
                        f"edge {node.node_id}->{child_id} missing reverse link",
                        node.node_id,
                    )
            for parent_id in node.parents:
                if parent_id not in self.nodes:
                    yield (
                        f"node {node.node_id} lists a missing parent {parent_id}",
                        node.node_id,
                    )
                    continue
                if node.node_id not in self.nodes[parent_id].children:
                    yield (
                        f"parent link {parent_id}->{node.node_id} has no forward edge",
                        node.node_id,
                    )

    def validate(self) -> None:
        """Check graph invariants (edge symmetry, positive counts, root).

        Raises:
            ValueError: on the first inconsistency found.
        """
        for message, _ in self.iter_integrity_issues():
            raise ValueError(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XClusterSynopsis nodes={len(self.nodes)} edges={self.edge_count}>"


def text_vocabulary(synopsis: XClusterSynopsis) -> Optional[Vocabulary]:
    """The vocabulary the synopsis's TEXT summaries share, or ``None``.

    Every TEXT summary of one synopsis interns its terms in one
    vocabulary, so both synopsis codecs encode it once.
    """
    for node in synopsis.valued_nodes():
        if isinstance(node.vsumm, TextSummary):
            return node.vsumm.ebth.vocabulary
    return None
