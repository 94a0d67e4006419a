"""Incremental reference-synopsis maintenance over an update stream.

:class:`IncrementalMaintainer` owns one :class:`ColumnarDocument` and
one live :class:`XClusterSynopsis` and keeps them consistent under
inserts, deletes, and value changes **without rebuilding from scratch**
— while staying bit-exact with a rebuild (``synopsis_to_dict`` equal),
which is what the differential harness's update round pins down.

The reference partition (:mod:`repro.core.reference`) comes from two
passes: a bottom-up *down* pass giving every element the id of its
subtree's isomorphism type, and a preorder *up* pass interning ``(down
id, parent class)``.  The maintainer keeps the down column and its
intern table alive, spliced along with the document columns, and every
update takes one of two paths:

* **summary-local** — a same-kind NUMERIC/STRING value change.  Classes
  ignore values, so the partition cannot move: the one cluster holding
  the element gets a fresh summary from values gathered by a C-level
  pass over the class column, and nothing else is touched.
* **localized** — inserts, deletes, kind flips and same-kind TEXT
  changes.  An update changes the down ids of the spliced subtree and
  of the splice point's ancestor chain only, so only those rows are
  re-keyed (a kind flip re-keys the element and its ancestors; a TEXT
  change re-keys nothing).  One up pass and the assembly then run over
  the whole document, in a rebuild's order, which keeps class numbering
  and node ids identical to a rebuild.  Summary work is confined to
  clusters whose member set changed: a cluster that is the exact image
  of an old one (the same elements, shifted by the splice) keeps the
  old summary object, and TEXT summaries — whose term ids are interned
  across clusters in build order — re-encode only from the first TEXT
  cluster whose centroid or position moved, after rewinding the shared
  vocabulary to that point.

No update runs a whole-document refinement: construction runs the only
down pass (``MaintainerStats.full_recomputes``).

The maintained synopsis object never changes identity: localized
updates graft the fresh node table into the live object and every
applied update bumps ``XClusterSynopsis.version``, so the estimation
caches keyed on it (:class:`~repro.core.estimation.indexes.SynopsisIndex`
via the weak-registry, serving plan caches) invalidate through the
existing version protocol and the daemon keeps answering correctly
mid-stream.

An optional ``max_summary_bytes`` budget recompresses **built**
summaries through the existing :mod:`repro.values.kernels.queue`
steppers until they fit, so maintenance composes with the kernel
compression engine without re-running phase 2 globally.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, compress, count, islice
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.reference import (
    Aggregates,
    columnar_aggregates,
    columnar_initial_keys,
    down_pass,
    materialize_synopsis,
    subtree_key,
    up_pass,
)
from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.update.columnar import apply_update
from repro.update.ops import DeleteSubtree, InsertSubtree, UpdateOp
from repro.values.ebth import EndBiasedTermHistogram
from repro.values.kernels.queue import make_stepper
from repro.values.summary import (
    HistogramSummary,
    StringSummary,
    SummaryConfig,
    TextSummary,
    ValueSummary,
    build_summary,
)
from repro.values.termvector import TermCentroid, Vocabulary
from repro.xmltree.columnar import (
    KIND_NULL,
    KIND_TEXT,
    KIND_TO_TYPE,
    ColumnarDocument,
)
from repro.xmltree.parser import DEFAULT_TEXT_WORD_THRESHOLD
from repro.xmltree.paths import LabelPath, matches_any
from repro.xmltree.types import ValueType

#: Per-advance compression amounts when enforcing a summary budget,
#: matching the builder's phase-2 defaults per summary family.
_BUDGET_STEPS = (
    (HistogramSummary, 1),
    (StringSummary, 8),
    (TextSummary, 4),
)


def enforce_summary_budget(
    summary: Optional[ValueSummary],
    max_bytes: Optional[int],
    engine: str = "kernel",
) -> Optional[ValueSummary]:
    """Compress ``summary`` through its stepper until it fits the budget.

    Deterministic in ``(summary, max_bytes, engine)``, so the rebuild
    oracle applies the same function to freshly built summaries and
    stays bit-exact with incrementally maintained ones.
    """
    if summary is None or max_bytes is None:
        return summary
    current = summary
    if current.size_bytes() <= max_bytes:
        return current
    stepper = make_stepper(current, engine)
    step = 1
    for family, amount in _BUDGET_STEPS:
        if isinstance(current, family):
            step = amount
            break
    while current.size_bytes() > max_bytes:
        compressed = stepper.advance(step)
        if compressed is None:
            break
        current = compressed
    return current


@dataclass
class MaintainerStats:
    """Counters describing how much work the update stream localized."""

    updates_applied: int = 0
    inserts: int = 0
    deletes: int = 0
    value_changes: int = 0
    #: Same-kind NUMERIC/STRING value changes: one cluster summary.
    fast_path_updates: int = 0
    #: Same-kind TEXT value changes (a subset of ``localized_updates``).
    text_reencodes: int = 0
    #: Whole-document refinements; construction runs the only one.
    full_recomputes: int = 0
    #: Inserts, deletes, kind flips and TEXT changes: touched rows
    #: re-keyed, then one up pass and the assembly.
    localized_updates: int = 0
    #: Cluster summaries (TEXT: centroids) computed from values...
    summaries_built: int = 0
    #: ...and carried over from a cluster's exact image instead.
    summaries_reused: int = 0

    def snapshot(self) -> Dict[str, Any]:
        """Counters as a plain dict (the ``/stats`` maintenance section)."""
        return {
            "updates_applied": self.updates_applied,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "value_changes": self.value_changes,
            "fast_path_updates": self.fast_path_updates,
            "text_reencodes": self.text_reencodes,
            "full_recomputes": self.full_recomputes,
            "localized_updates": self.localized_updates,
            "summaries_built": self.summaries_built,
            "summaries_reused": self.summaries_reused,
        }


def _members(classes: List[int], key: int) -> List[int]:
    """Preorder indexes of the members of class ``key``.

    Each ``list.index`` call scans in C up to the next member, so one
    cluster costs a C-level pass over the column, not a Python one.
    """
    members: List[int] = []
    find = classes.index
    at = -1
    while True:
        try:
            at = find(key, at + 1)
        except ValueError:
            return members
        members.append(at)


class IncrementalMaintainer:
    """One document, one live synopsis, maintained under updates."""

    def __init__(
        self,
        doc: ColumnarDocument,
        value_paths: Optional[Sequence[LabelPath]] = None,
        config: Optional[SummaryConfig] = None,
        text_word_threshold: int = DEFAULT_TEXT_WORD_THRESHOLD,
        max_summary_bytes: Optional[int] = None,
        value_engine: str = "kernel",
    ) -> None:
        self.doc = doc
        self.value_paths = (
            None if value_paths is None else [tuple(p) for p in value_paths]
        )
        self.base_config = config if config is not None else SummaryConfig()
        self.text_word_threshold = text_word_threshold
        self.max_summary_bytes = max_summary_bytes
        self.value_engine = value_engine
        self.stats = MaintainerStats()

        if self.value_paths is None:
            self._exact_paths = None
            self._wildcard_paths: List[LabelPath] = []
        else:
            self._exact_paths = {
                path for path in self.value_paths if "*" not in path
            }
            self._wildcard_paths = [
                path for path in self.value_paths if "*" in path
            ]
        #: Per-path-id wanted flags, extended lazily: the path table is
        #: append-only, so known flags never go stale.
        self._wanted_flags: List[bool] = []

        #: The caller's knobs with a private vocabulary, which localized
        #: updates rewind and extend in place (never the caller's).
        self._config = replace(self.base_config, vocabulary=Vocabulary())
        #: TEXT clusters in build order with their centroids, and the
        #: vocabulary size before each one (plus the final size).
        self._text: List[Tuple[int, TermCentroid]] = []
        self._vocab_marks: List[int] = [0]

        #: The down column (preorder, spliced like the document's) and
        #: its key -> id table; ids are never reused, and the table is
        #: compacted once it doubles past the live id count.
        self._down_table: Dict[Hashable, int] = {}
        self._down = down_pass(
            doc.parent, columnar_initial_keys(doc), self._down_table
        )
        self._next_down = self._table_floor = len(self._down_table)
        self.stats.full_recomputes += 1

        self._classes: List[int] = up_pass(self._down, doc.parent)
        self._counts: Counter = Counter()
        self.synopsis: XClusterSynopsis = self._assemble(
            columnar_aggregates(doc, self._classes), {}, {}
        )

    # -- wanted paths ------------------------------------------------------

    def _wanted(self, path_id: int) -> bool:
        if self._exact_paths is None:
            return True
        flags = self._wanted_flags
        if path_id >= len(flags):
            doc = self.doc
            for pid in range(len(flags), len(doc.path_parent)):
                path = doc.path_tuple(pid)
                flags.append(
                    path in self._exact_paths
                    or matches_any(path, self._wildcard_paths)
                )
        return flags[path_id]

    # -- the down column -----------------------------------------------------

    def _ancestors(self, index: int) -> Iterator[int]:
        """``index`` and its ancestors, bottom-up."""
        parent = self.doc.parent
        while index >= 0:
            yield index
            index = parent[index]

    def _rekey(self, indices: Iterable[int]) -> None:
        """Recompute the down ids of ``indices``, children before parents.

        Children come from the ``first_child``/``next_sibling`` links,
        so a re-keyed element sees its siblings' existing ids and its
        re-keyed children's fresh ones.
        """
        doc = self.doc
        down = self._down
        table = self._down_table
        first_child = doc.first_child
        next_sibling = doc.next_sibling
        path_ids = doc.path_ids
        kinds = doc.value_kind
        for index in indices:
            kids = []
            child = first_child[index]
            while child >= 0:
                kids.append(down[child])
                child = next_sibling[child]
            key = subtree_key((path_ids[index] << 2) | kinds[index], kids)
            down_id = table.get(key)
            if down_id is None:
                down_id = table[key] = self._next_down
                self._next_down += 1
            down[index] = down_id
        if len(table) > 2 * self._table_floor:
            live = set(down)
            self._down_table = {
                key: down_id for key, down_id in table.items() if down_id in live
            }
            self._table_floor = len(self._down_table)

    # -- summaries ---------------------------------------------------------

    def _gather(self, classes: List[int], keys: Iterable[int]) -> Dict[int, list]:
        """Member values of the clusters ``keys``, in preorder.

        One pass serves any number of clusters; :func:`_members` is
        faster for a single one.
        """
        values: Dict[int, list] = {key: [] for key in keys}
        if values:
            value_of = self.doc.value
            for index in compress(count(), map(values.__contains__, classes)):
                values[classes[index]].append(value_of(index))
        return values

    def _summary(self, vtype: ValueType, vals: list) -> ValueSummary:
        """The NUMERIC/STRING summary a rebuild would attach."""
        self.stats.summaries_built += 1
        return enforce_summary_budget(
            build_summary(vtype, vals, self._config),
            self.max_summary_bytes,
            self.value_engine,
        )

    def _encode_text(self, centroid: TermCentroid) -> ValueSummary:
        """A TEXT summary over the current vocabulary state."""
        return enforce_summary_budget(
            TextSummary(
                EndBiasedTermHistogram.from_centroid(
                    centroid, self._config.vocabulary
                )
            ),
            self.max_summary_bytes,
            self.value_engine,
        )

    # -- assembly ------------------------------------------------------------

    def _assemble(
        self,
        aggregates: Aggregates,
        image: Dict[int, int],
        old_nodes: Dict[int, SynopsisNode],
    ) -> XClusterSynopsis:
        """Materialize the synopsis of the current class column.

        Shares ``build_reference_synopsis``'s columnar aggregation and
        materialization, so node ids equal class ids and everything is
        bit-identical to a rebuild.  ``image`` maps a new class to the
        old class holding exactly the same elements; those keep their
        summary from ``old_nodes`` (the pre-update node table).
        """
        doc = self.doc
        classes = self._classes
        node_vtypes = aggregates[2]
        node_paths = dict(zip(classes, doc.path_ids))
        wanted = self._wanted
        summarized = [
            key
            for key, vtype in node_vtypes.items()
            if vtype is not ValueType.NULL and wanted(node_paths[key])
        ]
        values = self._gather(
            classes, [key for key in summarized if key not in image]
        )

        stats = self.stats
        vocabulary = self._config.vocabulary
        old_text = self._text
        old_centroids = dict(old_text)
        marks = self._vocab_marks
        text: List[Tuple[int, TermCentroid]] = []
        rewound = False
        summaries: Dict[int, ValueSummary] = {}
        for key in summarized:
            source = image.get(key)
            if node_vtypes[key] is not ValueType.TEXT:
                if source is None:
                    summaries[key] = self._summary(node_vtypes[key], values[key])
                else:
                    summaries[key] = old_nodes[source].vsumm
                    stats.summaries_reused += 1
                continue
            position = len(text)
            if (
                not rewound
                and source is not None
                and position < len(old_text)
                and old_text[position][0] == source
            ):
                # Same centroids so far, in the same order: the
                # vocabulary state matches, so the old encoding stands.
                centroid = old_text[position][1]
                summaries[key] = old_nodes[source].vsumm
                stats.summaries_reused += 1
            else:
                if not rewound:
                    rewound = True
                    vocabulary.truncate(marks[position])
                    del marks[position + 1:]
                if source is None:
                    centroid = TermCentroid.from_term_sets(values[key])
                    stats.summaries_built += 1
                else:
                    centroid = old_centroids[source]
                    stats.summaries_reused += 1
                summaries[key] = self._encode_text(centroid)
                marks.append(len(vocabulary))
            text.append((key, centroid))
        if not rewound:
            vocabulary.truncate(marks[len(text)])
            del marks[len(text) + 1:]
        self._text = text
        self._counts = aggregates[0]
        return materialize_synopsis(aggregates, summaries, classes[0])

    def _graft(self, fresh: XClusterSynopsis) -> None:
        """Install a reassembled node table into the live synopsis object.

        Identity is preserved on purpose: the serving tier's shared
        index registry and estimator reuse key on ``id(synopsis)``, so
        grafting (plus the version bump in :meth:`apply`) walks them
        through the normal invalidation protocol instead of silently
        handing estimates a different object.
        """
        live = self.synopsis
        live.nodes = fresh.nodes
        live.root_id = fresh.root_id
        live._next_id = fresh._next_id

    # -- the two update paths -------------------------------------------------

    def _localized(self, at: int, inserted: int, removed: int, touched: int) -> None:
        """Up pass, image matching, and assembly after a re-keyed update.

        Old rows ``[at, at + removed)`` were cut and new rows ``[at, at
        + inserted)`` spliced in; every other row kept its element.
        ``touched`` is an element whose value changed (or -1): its
        cluster never counts as an image.
        """
        old = self._classes
        old_counts = self._counts
        classes = self._classes = up_pass(self._down, self.doc.parent)
        aggregates = columnar_aggregates(self.doc, classes)
        counts = aggregates[0]
        pairs = Counter(
            zip(
                chain(islice(classes, at), islice(classes, at + inserted, None)),
                chain(islice(old, at), islice(old, at + removed, None)),
            )
        )
        image = {
            new: source
            for (new, source), shared in pairs.items()
            if shared == counts[new] == old_counts[source]
        }
        if touched >= 0:
            image.pop(classes[touched], None)
        self._graft(self._assemble(aggregates, image, self.synopsis.nodes))
        self.stats.localized_updates += 1

    def _refresh_cluster(self, index: int) -> None:
        """Rebuild the one summary of the cluster holding ``index``.

        Only reachable for same-kind NUMERIC/STRING changes: the
        partition cannot have moved (classes ignore values), so the
        dirty region is exactly this cluster's value list.
        """
        doc = self.doc
        # All class members share one label path and one kind (the
        # initial partition key), so wantedness is a class property.
        if not self._wanted(doc.path_ids[index]):
            return
        classes = self._classes
        key = classes[index]
        vals = list(map(doc.value, _members(classes, key)))
        self.synopsis.nodes[key].vsumm = self._summary(
            KIND_TO_TYPE[doc.value_kind[index]], vals
        )

    # -- the update entry point --------------------------------------------

    def apply(self, op: UpdateOp) -> Dict[str, Any]:
        """Apply one update to the document and the live synopsis.

        Returns a small result dict (op kind, path taken, document
        size) used by the serving route's response body.  Raises
        ``ValueError`` with a validation message when the op does not
        apply; the document and synopsis are untouched in that case.
        """
        doc = self.doc
        size = len(doc)
        cut_parent = (
            doc.parent[op.index]
            if isinstance(op, DeleteSubtree) and 0 < op.index < size
            else -1
        )
        _, old_kind, new_kind = apply_update(doc, op, self.text_word_threshold)
        stats = self.stats
        stats.updates_applied += 1
        path = "localized"
        if isinstance(op, InsertSubtree):
            stats.inserts += 1
            inserted = len(doc) - size
            at = doc.first_child[op.parent]
            for _ in range(op.position):
                at = doc.next_sibling[at]
            self._down[at:at] = [0] * inserted
            self._rekey(
                chain(range(at + inserted - 1, at - 1, -1), self._ancestors(op.parent))
            )
            self._localized(at, inserted, 0, -1)
        elif isinstance(op, DeleteSubtree):
            stats.deletes += 1
            removed = size - len(doc)
            del self._down[op.index:op.index + removed]
            self._rekey(self._ancestors(cut_parent))
            self._localized(op.index, 0, removed, -1)
        else:
            stats.value_changes += 1
            if old_kind != new_kind:
                self._rekey(self._ancestors(op.index))
                self._localized(0, 0, 0, op.index)
            elif new_kind == KIND_TEXT:
                stats.text_reencodes += 1
                self._localized(0, 0, 0, op.index)
            elif new_kind == KIND_NULL:
                # NULL -> NULL: the document is untouched semantically.
                path = "noop"
            else:
                path = "summary-local"
                self._refresh_cluster(op.index)
                stats.fast_path_updates += 1
        # Every applied update bumps the version, so estimation caches
        # (SynopsisIndex tables, reach/selectivity caches) can never
        # serve a stale answer across an update boundary.
        self.synopsis.version += 1
        return {
            "op": op.op,
            "path": path,
            "elements": len(self.doc),
            "version": self.synopsis.version,
        }

    def apply_all(self, ops: Sequence[UpdateOp]) -> List[Dict[str, Any]]:
        """Apply a batch of updates in order; per-op result dicts."""
        return [self.apply(op) for op in ops]


__all__ = [
    "IncrementalMaintainer",
    "MaintainerStats",
    "enforce_summary_budget",
]
