"""Incremental reference-synopsis maintenance over an update stream.

:class:`IncrementalMaintainer` owns one :class:`ColumnarDocument` and
one live :class:`XClusterSynopsis` and keeps them consistent under
inserts, deletes, and value changes **without rebuilding from scratch**
— while staying bit-exact with a rebuild (``synopsis_to_dict`` equal),
which is what the differential harness's update round pins down.

The reference partition (:mod:`repro.core.reference`) comes from two
passes: a bottom-up *down* pass giving every element the id of its
subtree's isomorphism type, and a preorder *up* pass interning ``(down
id, parent class)``.  The maintainer keeps both passes' columns and
intern tables alive, spliced along with the document columns, plus the
per-class aggregates, and every update takes one of two paths:

* **summary-local** — a same-kind NUMERIC/STRING value change.  Classes
  ignore values, so the partition cannot move: the one cluster holding
  the element gets a fresh summary from values gathered by a C-level
  pass over the class column, and nothing else is touched.
* **localized** — inserts, deletes, kind flips and same-kind TEXT
  changes.  An update changes the down ids of the spliced subtree and
  of the splice point's ancestor chain only, so only those rows are
  re-keyed (a kind flip re-keys the element and its ancestors).
  Usually the classes then move by delta alone (see
  :meth:`IncrementalMaintainer._localized`), and a TEXT change moves
  none.  Otherwise — a class would appear, empty or reorder, an
  ancestor shares its class, or a kind flips — one whole-document up
  pass re-derives them (``MaintainerStats.class_passes``) and the
  assembly runs in a rebuild's order, which keeps class numbering and
  node ids identical to a rebuild.  Classes moved by delta instead
  patch the live nodes of the changed clusters in place.  Summary work
  is confined to clusters whose member set changed: every other cluster
  keeps the old summary object.  TEXT summaries — whose term ids are
  interned across clusters in build order — rewind the shared
  vocabulary to the first TEXT cluster whose centroid or position
  moved and re-encode from there, until the vocabulary after a
  re-encoded cluster is back in its old state at that point: then the
  old tail is restored and later clusters keep their encodings
  (``MaintainerStats.text_encodes`` counts the encodes).

No update runs a whole-document refinement: construction runs the only
down pass (``MaintainerStats.full_recomputes``).

The maintained synopsis object never changes identity: updates patch
its nodes or graft a fresh node table into it, and every applied
update bumps ``XClusterSynopsis.version``, so the estimation
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
from dataclasses import asdict, dataclass, replace
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
    Set,
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
from repro.update.ops import DeleteSubtree, InsertSubtree, UpdateOp, ValueChange
from repro.values.ebth import EndBiasedTermHistogram
from repro.values.kernels.pst import PSTPruneKernel
from repro.values.kernels.queue import make_stepper
from repro.values.pst import PrunedSuffixTree
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
    KIND_STRING,
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
) -> Optional[ValueSummary]:
    """Compress ``summary`` through its stepper until it fits the budget.

    Deterministic in ``(summary, max_bytes)``, so the rebuild
    oracle applies the same function to freshly built summaries and
    stays bit-exact with incrementally maintained ones.
    """
    if summary is None or max_bytes is None:
        return summary
    current = summary
    if current.size_bytes() <= max_bytes:
        return current
    stepper = make_stepper(current)
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
    #: re-keyed, classes moved by delta, then the assembly.
    localized_updates: int = 0
    #: Whole-document up passes: construction's, plus one per
    #: localized update whose classes could not move by delta.
    class_passes: int = 0
    #: Cluster summaries (TEXT: centroids) computed from values...
    summaries_built: int = 0
    #: ...and carried over from a cluster's exact image instead.
    summaries_reused: int = 0
    #: TEXT summaries encoded by updates: changed clusters, plus later
    #: ones while the shared vocabulary differs from its old state.
    text_encodes: int = 0
    #: ``size``/``parent_gap`` entries structural ops rewrote outside
    #: the spliced rows: the splice's ancestors and their children past it.
    rows_relinked: int = 0
    #: STRING summaries re-pruned from stored counts plus the strings
    #: that entered or left the cluster, instead of re-counted.
    string_deltas: int = 0

    def snapshot(self) -> Dict[str, Any]:
        """Counters as a plain dict (the ``/stats`` maintenance section)."""
        return asdict(self)


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
    ) -> None:
        self.doc = doc
        self.value_paths = (
            None if value_paths is None else [tuple(p) for p in value_paths]
        )
        self.base_config = config if config is not None else SummaryConfig()
        self.text_word_threshold = text_word_threshold
        self.max_summary_bytes = max_summary_bytes
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
        #: STRING class id -> the substring counts pruning dropped from
        #: its summary's PST; with the kept ones, the full counts.
        self._dropped: Dict[int, Dict[str, int]] = {}

        #: The down column (preorder, spliced like the document's) and
        #: its key -> id table; ids are never reused, and the table is
        #: compacted once it doubles past the live id count.
        self._down_table: Dict[Hashable, int] = {}
        self._down = down_pass(
            doc.parent, columnar_initial_keys(doc), self._down_table
        )
        self._next_down = self._table_floor = len(self._down_table)
        self.stats.full_recomputes += 1

        self._partition()
        self.synopsis: XClusterSynopsis = self._assemble({}, {})
        self.stats.text_encodes = 0  # counts encodes by updates only

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
        gap = self.doc.parent_gap
        while index >= 0:
            yield index
            index -= gap[index]

    def _rekey(self, indices: Iterable[int]) -> None:
        """Recompute the down ids of ``indices``, children before parents.

        Children are found by stepping over subtree sizes, so a
        re-keyed element sees its siblings' existing ids and its
        re-keyed children's fresh ones.
        """
        doc = self.doc
        down = self._down
        table = self._down_table
        size = doc.size
        path_ids = doc.path_ids
        kinds = doc.value_kind
        for index in indices:
            kids = []
            child = index + 1
            end = index + size[index]
            while child < end:
                kids.append(down[child])
                child += size[child]
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

    def _summary(self, key: int, vtype: ValueType, vals: list) -> ValueSummary:
        """The NUMERIC/STRING summary a rebuild would attach to ``key``."""
        self.stats.summaries_built += 1
        if vtype is ValueType.STRING:
            return self._prune(
                key, PrunedSuffixTree.from_strings(vals, self._config.pst_max_depth)
            )
        return enforce_summary_budget(
            build_summary(vtype, vals, self._config),
            self.max_summary_bytes,
        )

    def _prune(self, key: int, tree: PrunedSuffixTree) -> ValueSummary:
        """The STRING summary a rebuild would attach to ``key``, pruned
        from ``tree``'s full counts; what pruning (and the budget)
        dropped becomes ``key``'s ``_dropped`` entry.  Pruning ranks by
        a total key, so the kept set does not depend on dict order."""
        removed: List[Tuple[int, str]] = []
        excess = tree.node_count - self._config.pst_node_cap(tree.string_count)
        if excess > 0:
            PSTPruneKernel(tree).prune(excess, removed)
        dropped = {substring: -negative for negative, substring in removed}
        summary = enforce_summary_budget(StringSummary(tree), self.max_summary_bytes)
        if summary.pst is not tree:  # the budget pruned a copy further
            kept = summary.pst.counts
            dropped.update(item for item in tree.counts.items() if item[0] not in kept)
        self._dropped[key] = dropped
        return summary

    def _reprune(
        self, key: int, summary: StringSummary, dropped: Dict[str, int], delta: Counter
    ) -> ValueSummary:
        """``key``'s STRING summary after ``delta`` (string -> copies
        that entered, negative when they left), from its full counts:
        the kept ones plus ``dropped``."""
        self.stats.string_deltas += 1
        tree = summary.pst.copy()
        tree.counts.update(dropped)
        for string, times in delta.items():
            if times > 0:
                tree.insert_string(string, times)
            elif times < 0:
                tree.remove_string(string, -times)
        return self._prune(key, tree)

    def _encode_text(self, centroid: TermCentroid) -> ValueSummary:
        """A TEXT summary over the current vocabulary state."""
        self.stats.text_encodes += 1
        return enforce_summary_budget(
            TextSummary(
                EndBiasedTermHistogram.from_centroid(
                    centroid, self._config.vocabulary
                )
            ),
            self.max_summary_bytes,
        )

    # -- assembly ------------------------------------------------------------

    def _assemble(
        self, image: Dict[int, int], old_nodes: Dict[int, SynopsisNode]
    ) -> XClusterSynopsis:
        """Materialize the synopsis of the current class column.

        Shares ``build_reference_synopsis``'s columnar aggregation and
        materialization, so node ids equal class ids and everything is
        bit-identical to a rebuild.  ``image`` maps a new class to the
        old class holding exactly the same elements; those keep their
        summary from ``old_nodes`` (the pre-update node table).
        """
        return materialize_synopsis(
            self._aggregates, self._summaries(image, old_nodes, {}), self._classes[0]
        )

    def _summaries(
        self,
        image: Dict[int, int],
        old_nodes: Dict[int, SynopsisNode],
        deltas: Dict[int, Counter],
    ) -> Dict[int, ValueSummary]:
        """Every summarized class's summary, for :meth:`_assemble`.

        Outside ``image``, a STRING cluster with stored counts and a
        ``deltas`` entry is re-pruned; the others are built from values.
        """
        classes = self._classes
        node_vtypes = self._aggregates[2]
        node_paths = self._class_paths
        wanted = self._wanted
        summarized = [
            key
            for key, vtype in node_vtypes.items()
            if vtype is not ValueType.NULL and wanted(node_paths[key])
        ]
        old_dropped = self._dropped
        self._dropped = dropped = {}
        deltas = {key: delta for key, delta in deltas.items() if key in old_dropped}
        values = self._gather(
            classes,
            [key for key in summarized if key not in image and key not in deltas],
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
                if source is not None:
                    summaries[key] = old_nodes[source].vsumm
                    stats.summaries_reused += 1
                    if source in old_dropped:
                        dropped[key] = old_dropped[source]
                elif key in deltas:
                    summaries[key] = self._reprune(
                        key, old_nodes[key].vsumm, old_dropped[key], deltas[key]
                    )
                else:
                    summaries[key] = self._summary(key, node_vtypes[key], values[key])
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
                    rewound = synced = True
                    old_marks, base = marks[:], marks[position]
                    tail = vocabulary.truncate(base)
                    del marks[position + 1:]
                if source is None:
                    centroid = TermCentroid.from_term_sets(values[key])
                    stats.summaries_built += 1
                else:
                    centroid = old_centroids[source]
                    stats.summaries_reused += 1
                start = len(vocabulary)
                summaries[key] = self._encode_text(centroid)
                size = len(vocabulary)
                marks.append(size)
                # While ``synced`` the vocabulary is a prefix of the old
                # one (``tail`` holds its terms from id ``base`` on); at
                # the old size for the next position it is in its old
                # state, so restore the tail: later encodings stand again.
                synced = synced and (
                    vocabulary.since(start) == tail[start - base:size - base]
                )
                if synced and old_marks[position + 1:position + 2] == [size]:
                    vocabulary.intern_all(tail[size - base:])
                    marks[position + 2:] = old_marks[position + 2:]
                    rewound = False
            text.append((key, centroid))
        if not rewound:
            vocabulary.truncate(marks[len(text)])
            del marks[len(text) + 1:]
        self._text = text
        return summaries

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

    # -- moving the classes --------------------------------------------------

    def _partition(self) -> None:
        """The whole-document up pass and aggregation, kept for deltas."""
        doc = self.doc
        #: ``(down id, parent class)`` -> class id, and each class's key
        #: by class id (the root's is never needed).
        self._up_table: Dict[Tuple[int, int], int] = {}
        self._classes: List[int] = up_pass(self._down, doc.parent, self._up_table)
        self._class_key: List[Any] = [None, *self._up_table]
        self._aggregates: Aggregates = columnar_aggregates(doc, self._classes)
        self._class_paths = dict(zip(self._classes, doc.path_ids))
        self.stats.class_passes += 1

    def _keep_ancestors(self, parent: int) -> bool:
        """Re-intern the re-keyed ``parent`` and its ancestors, top-down.

        Each keeps its class id under its new key, its table entry
        renamed in place, when it was its class's only member and the
        key is not interned yet.  False at the first one that cannot,
        leaving the table for a whole-document pass to rebuild.
        """
        counts = self._aggregates[0]
        table = self._up_table
        classes = self._classes
        gap = self.doc.parent_gap
        for index in list(self._ancestors(parent))[-2::-1]:  # the root keeps 0
            key = (self._down[index], classes[index - gap[index]])
            class_id = classes[index]
            if counts[class_id] != 1 or table.get(key, class_id) != class_id:
                return False
            del table[self._class_key[class_id]]
            table[key] = class_id
            self._class_key[class_id] = key
        return True

    def _localized(
        self, at: int, inserted: int, removed: int, parent: int, cut: Dict[int, Counter]
    ) -> None:
        """Move the classes after a splice under ``parent``, then assemble.

        Old rows ``[at, at + removed)`` were cut (``cut`` holds their
        STRING deltas) or new rows ``[at, at + inserted)`` spliced in,
        and the rows' and ancestors' down ids re-keyed.  When the splice
        root's class has a member before
        ``at``, that member's subtree is isomorphic to the splice and
        lies wholly before it, so every spliced row's class exists
        before ``at`` and no class appears, empties or reorders: the
        class column, counts and edge totals move by the spliced rows
        alone.  Otherwise :meth:`_reclassify` runs.
        """
        classes = self._classes
        table = self._up_table
        if inserted:
            root = table.get((self._down[at], classes[parent]))
        else:
            root = classes[at]
        if (
            root is None
            or classes.index(root) >= at
            or not self._keep_ancestors(parent)
        ):
            self._reclassify(at, inserted, removed, -1)
            return
        if inserted:
            down = self._down
            gap = self.doc.parent_gap
            classes[at:at] = [0] * inserted
            for index in range(at, at + inserted):
                classes[index] = table[(down[index], classes[index - gap[index]])]
        rows = classes[at:at + inserted + removed]
        del classes[at:at + removed]
        counts, _, _, edges = self._aggregates
        sign = 1 if inserted else -1
        for key in rows:
            counts[key] += sign
            edges[(self._class_key[key][1], key)] += sign
        self._reassemble(set(rows), self._string_deltas(at, at + inserted, 1, cut))

    def _reclassify(self, at: int, inserted: int, removed: int, touched: int) -> None:
        """Whole-document up pass, image matching, and assembly.

        Old rows ``[at, at + removed)`` were cut and new rows ``[at, at
        + inserted)`` spliced in; every other row kept its element.
        ``touched`` is an element whose value changed (or -1): its
        cluster never counts as an image.
        """
        old = self._classes
        old_counts = self._aggregates[0]
        self._partition()
        classes = self._classes
        counts = self._aggregates[0]
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
        self._graft(self._assemble(image, self.synopsis.nodes))

    def _reassemble(self, changed: Set[int], deltas: Dict[int, Counter]) -> None:
        """Patch the live nodes after an update that moved no class.

        Every cluster but ``changed`` keeps its summary (TEXT ones up to
        re-encoding); ``deltas`` holds the STRING values that entered
        or left changed clusters.  Edges neither appear nor vanish, so the
        ``changed`` nodes take their new counts, child averages and
        parent edge entries in place, in a rebuild's float arithmetic.
        """
        counts, _, _, edges = self._aggregates
        nodes = self.synopsis.nodes
        image = {key: key for key in counts if key not in changed}
        for key, summary in self._summaries(image, nodes, deltas).items():
            nodes[key].vsumm = summary
        for key in changed:
            node = nodes[key]
            node.count = total = counts[key]
            for child in node.children:
                node.children[child] = edges[(key, child)] / total
            if key != self._classes[0]:
                parent = self._class_key[key][1]
                nodes[parent].children[key] = edges[(parent, key)] / counts[parent]

    def _refresh_cluster(self, index: int, cut: Dict[int, Counter]) -> None:
        """Rebuild the one summary of the cluster holding ``index``.

        Only reachable for same-kind NUMERIC/STRING changes: the
        partition cannot have moved (classes ignore values), so the
        dirty region is exactly this cluster's value list.  A STRING
        cluster with stored counts is re-pruned from them, the old value
        (``cut``) leaving and the new one entering, reading no others.
        """
        doc = self.doc
        # All class members share one label path and one kind (the
        # initial partition key), so wantedness is a class property.
        if not self._wanted(doc.path_ids[index]):
            return
        classes = self._classes
        key = classes[index]
        node = self.synopsis.nodes[key]
        delta = self._string_deltas(index, index + 1, 1, cut).get(key)
        if delta is not None and key in self._dropped:
            node.vsumm = self._reprune(key, node.vsumm, self._dropped[key], delta)
            return
        vals = list(map(doc.value, _members(classes, key)))
        node.vsumm = self._summary(key, KIND_TO_TYPE[doc.value_kind[index]], vals)

    def _string_deltas(
        self, start: int, stop: int, sign: int, deltas: Dict[int, Counter]
    ) -> Dict[int, Counter]:
        """Add ``sign`` for each STRING value of rows ``[start, stop)``
        to its class's entry in ``deltas`` (class -> string -> copies)."""
        doc = self.doc
        kinds = doc.value_kind
        for row in range(start, stop):
            if kinds[row] == KIND_STRING:
                delta = deltas.setdefault(self._classes[row], Counter())
                delta[doc.value(row)] += sign
        return deltas

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
            doc.parent_of(op.index)
            if isinstance(op, DeleteSubtree) and 0 < op.index < size
            else -1
        )
        # STRING values leaving the document, read before the splice.
        cut: Dict[int, Counter] = {}
        if cut_parent >= 0:
            self._string_deltas(op.index, op.index + doc.size[op.index], -1, cut)
        elif isinstance(op, ValueChange) and 0 <= op.index < size:
            self._string_deltas(op.index, op.index + 1, -1, cut)
        relinked = doc.rows_relinked
        at, old_kind, new_kind = apply_update(doc, op, self.text_word_threshold)
        stats = self.stats
        stats.updates_applied += 1
        stats.rows_relinked += doc.rows_relinked - relinked
        path = "localized"
        if isinstance(op, InsertSubtree):
            stats.inserts += 1
            inserted = len(doc) - size
            self._down[at:at] = [0] * inserted
            self._rekey(
                chain(range(at + inserted - 1, at - 1, -1), self._ancestors(op.parent))
            )
            self._localized(at, inserted, 0, op.parent, cut)
        elif isinstance(op, DeleteSubtree):
            stats.deletes += 1
            removed = size - len(doc)
            del self._down[op.index:op.index + removed]
            self._rekey(self._ancestors(cut_parent))
            self._localized(op.index, 0, removed, cut_parent, cut)
        else:
            stats.value_changes += 1
            if old_kind != new_kind:
                self._rekey(self._ancestors(op.index))
                self._reclassify(0, 0, 0, op.index)
            elif new_kind == KIND_TEXT:
                stats.text_reencodes += 1
                self._reassemble({self._classes[op.index]}, {})
            elif new_kind == KIND_NULL:
                # NULL -> NULL: the document is untouched semantically.
                path = "noop"
            else:
                path = "summary-local"
                self._refresh_cluster(op.index, cut)
                stats.fast_path_updates += 1
        if path == "localized":
            stats.localized_updates += 1
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
