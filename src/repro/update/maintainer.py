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
  the element rebuilds its summary from its stored value counts, moved
  by the old value and the new one (NUMERIC: bucketed from a sorted
  value list kept beside them), and nothing else is touched.
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
  patch the live nodes of the changed clusters in place, visiting only
  the clusters whose values moved (``MaintainerStats.clusters_visited``):
  each is built from its stored value counts, moved by the rows the
  update cut or spliced in, and every other keeps its summary object.
  TEXT term ids are interned across clusters in build order.  A changed
  TEXT cluster that kept its terms kept their ids, so it re-encodes over
  its old bitmap; otherwise the shared vocabulary rewinds to it and
  re-encodes from there, a later unchanged cluster whose ids merely
  shifted is remapped, and once the vocabulary is back in its old state
  later clusters keep their encodings (``text_encodes``, ``text_remaps``).

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

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import chain, compress, count, filterfalse, islice, repeat
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
from repro.values.rle import RunLengthBitmap
from repro.values.summary import (
    HistogramSummary,
    StringSummary,
    SummaryConfig,
    TextSummary,
    ValueSummary,
    build_numeric_summary,
)
from repro.values.termvector import TermCentroid, Vocabulary
from repro.xmltree.columnar import (
    KIND_NULL,
    KIND_TEXT,
    ColumnarDocument,
)
from repro.xmltree.paths import LabelPath, matches_any
from repro.xmltree.types import DEFAULT_TEXT_WORD_THRESHOLD, ValueType

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
    #: Cluster summaries (TEXT: centroids) built from value counts...
    summaries_built: int = 0
    #: ...and carried over from a cluster's exact image instead.
    summaries_reused: int = 0
    #: TEXT summaries encoded or remapped by updates: changed clusters,
    #: plus later ones while the shared vocabulary differs from its old state.
    text_encodes: int = 0
    #: ``size``/``parent_gap`` entries structural ops rewrote outside
    #: the spliced rows: the splice's ancestors and their children past it.
    rows_relinked: int = 0
    #: STRING summaries re-pruned from stored counts plus the strings
    #: that entered or left the cluster, instead of re-counted.
    string_deltas: int = 0
    #: TEXT summaries of ``text_encodes`` that only had their ids remapped.
    text_remaps: int = 0
    #: Cluster summaries the delta path examined: clusters whose values
    #: moved, plus the TEXT clusters after them whose ids moved.
    clusters_visited: int = 0

    def snapshot(self) -> Dict[str, Any]:
        """Counters as a plain dict (the ``/stats`` maintenance section)."""
        return asdict(self)


def _move(counts: Counter, delta: Counter, ordered: Optional[List] = None) -> bool:
    """Move ``counts`` in place by ``delta``, dropping what reaches zero,
    with ``ordered`` (its sorted keys) in step; True when no key entered
    or left."""
    same = True
    for item, times in delta.items():
        before = counts.get(item, 0)
        after = before + times
        if after:
            counts[item] = after
        elif before:
            del counts[item]
        if bool(before) != bool(after):
            same = False
            if ordered is not None and after:
                insort(ordered, item)
            elif ordered is not None:
                del ordered[bisect_left(ordered, item)]
    return same


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
        #: TEXT clusters in build order, and the vocabulary size before
        #: each one (plus the final size).
        self._text: List[int] = []
        self._vocab_marks: List[int] = [0]
        #: NUMERIC class id -> value -> count; TEXT: term -> texts holding it.
        self._counts: Dict[int, Counter] = {}
        #: NUMERIC class id -> its sorted values, once a value change moved them.
        self._ordered: Dict[int, List[int]] = {}
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
        """Member values of the clusters ``keys`` (whole-document paths only)."""
        values: Dict[int, list] = {key: [] for key in keys}
        value_of = self.doc.value
        for index in compress(count(), map(values.__contains__, classes)):
            values[classes[index]].append(value_of(index))
        return values

    def _numeric(self, counts: Counter, ordered: Optional[List[int]] = None) -> ValueSummary:
        """The NUMERIC summary a rebuild would build from ``counts``
        (``ordered``: its sorted values, when kept)."""
        self.stats.summaries_built += 1
        summary = build_numeric_summary(counts, self._config, ordered)
        return enforce_summary_budget(summary, self.max_summary_bytes)

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

    def _encode_text(self, key: int, bitmap: Optional[RunLengthBitmap] = None) -> ValueSummary:
        """``key``'s TEXT summary over the current vocabulary state (over
        ``bitmap``, its term ids' bitmap, when those did not move)."""
        self.stats.text_encodes += 1
        self.stats.summaries_built += 1
        texts = self._aggregates[0][key]  # every member holds one text
        centroid = TermCentroid.from_counts(self._counts[key], texts)
        encode = partial(EndBiasedTermHistogram.from_centroid, centroid, self._config.vocabulary)
        ebth = encode() if bitmap is None else encode(bitmap=bitmap)
        return enforce_summary_budget(TextSummary(ebth), self.max_summary_bytes)

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
            self._aggregates, self._summaries(image, old_nodes), self._classes[0]
        )

    def _summaries(
        self, image: Dict[int, int], old_nodes: Dict[int, SynopsisNode]
    ) -> Dict[int, ValueSummary]:
        """Every summarized class's summary, for :meth:`_assemble`.

        A class in ``image`` carries its source's summary and counts
        (TEXT: unless its term ids move), the others count gathered values.
        """
        node_vtypes = self._aggregates[2]
        node_paths = self._class_paths
        wanted = self._wanted
        summarized = [
            key
            for key, vtype in node_vtypes.items()
            if vtype is not ValueType.NULL and wanted(node_paths[key])
        ]
        old_counts, old_dropped = self._counts, self._dropped
        self._counts, self._dropped = counts, dropped = {}, {}
        self._ordered = {}
        fresh = [key for key in summarized if key not in image]
        values = self._gather(self._classes, fresh) if fresh else {}

        stats = self.stats
        summaries: Dict[int, ValueSummary] = {}
        texts: List[int] = []
        for key in summarized:
            vtype = node_vtypes[key]
            source = image.get(key)
            string = vtype is ValueType.STRING
            if source is not None:
                summaries[key] = old_nodes[source].vsumm
                stats.summaries_reused += 1
                if string:
                    dropped[key] = old_dropped[source]
                else:
                    counts[key] = old_counts[source]
            elif string:
                stats.summaries_built += 1
                tree = PrunedSuffixTree.from_strings(values[key], self._config.pst_max_depth)
                summaries[key] = self._prune(key, tree)
            elif vtype is ValueType.TEXT:
                counts[key] = Counter(chain.from_iterable(values[key]))
            else:
                counts[key] = Counter(values[key])
                summaries[key] = self._numeric(counts[key])
            if vtype is ValueType.TEXT:
                texts.append(key)
        summaries.update(self._texts(texts, image, old_nodes))
        return summaries

    def _texts(
        self,
        keys: List[int],
        image: Dict[int, int],
        old_nodes: Dict[int, SynopsisNode],
        stable: Set[int] = frozenset(),
    ) -> Dict[int, ValueSummary]:
        """New summaries of the TEXT clusters ``keys`` (build order) not
        at their ``image``'s (old cluster with the same texts) position,
        and of every later one while the vocabulary differs from its old state.

        One in ``stable`` kept its terms, so while the vocabulary is in
        its old state their ids too: it re-encodes over its old bitmap.
        Otherwise the vocabulary rewinds to its mark.  While ``synced``,
        the rewound vocabulary holds the old terms up to this position's
        old mark in their old order, less the ``tainted`` ones (terms a
        re-encoded cluster lost; a later one may re-intern them), so an
        unchanged cluster holding none of them takes its old encoding
        through ``mapping`` (old id -> new id, the identity below ``base``)."""
        stats = self.stats
        vocabulary = self._config.vocabulary
        old_text = self._text
        marks = self._vocab_marks
        todo = {
            position
            for position, key in enumerate(keys)
            if position >= len(old_text) or old_text[position] != image.get(key)
        }
        rewound = False
        summaries: Dict[int, ValueSummary] = {}
        for position in range(min(todo, default=len(keys)), len(keys)):
            same = position not in todo
            if same and not rewound:
                continue  # same clusters so far, in the same order
            key = keys[position]
            source = image.get(key)
            if not rewound:
                if key in stable:
                    summaries[key] = self._encode_text(key, old_nodes[key].vsumm.ebth.bitmap)
                    continue
                rewound = synced = True
                old_marks, base = marks[:], marks[position]
                tail = vocabulary.truncate(base)
                del marks[position + 1:]
                mapping = list(range(base))
                tainted: Set[str] = set()
            if synced and position < len(old_text):
                # The terms this position first interned, in order.
                own = tail[old_marks[position] - base:old_marks[position + 1] - base]
            else:
                synced = False
            start = len(vocabulary)
            summary = None
            if synced and same and not any(map(self._counts[key].__contains__, tainted)):
                # It holds old terms, which keep their order, and ``own``.
                mapping += range(start, start + len(own))
                old = old_nodes[source].vsumm.ebth
                moved = TextSummary(old.remapped(mapping, base))
                if not old.bucket_member_count:
                    # Uncompressed, it is a rebuild's encoding before the budget.
                    summary = enforce_summary_budget(moved, self.max_summary_bytes)
                elif moved.ebth.bitmap.run_count == old.bitmap.run_count:
                    # Compression keeps the bitmap, so at the old size every
                    # step a rebuild takes matches the old one's.
                    summary = moved
                if summary is not None:
                    stats.text_encodes += 1
                    stats.text_remaps += 1
                    vocabulary.extend(own)
            if summary is None:
                summary = self._encode_text(key)
                if synced:
                    # While synced, none of ``own`` was interned before.
                    fresh = dict(zip(vocabulary.since(start), count(start)))
                    synced = fresh.keys() <= tainted.union(own)
                    tainted.update(filterfalse(fresh.__contains__, own))
                    mapping[old_marks[position]:] = map(fresh.get, own, repeat(-1))
            summaries[key] = summary
            marks.append(len(vocabulary))
            if synced and not tainted:
                # The vocabulary is in its old state at the next
                # position: restore the tail, later encodings stand.
                vocabulary.extend(tail[marks[-1] - base:])
                marks[position + 2:] = old_marks[position + 2:]
                rewound = False
        if not rewound:
            vocabulary.truncate(marks[len(keys)])
            del marks[len(keys) + 1:]
        self._text = keys
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
        value deltas) or new rows ``[at, at + inserted)`` spliced in,
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
        self._reassemble(set(rows), self._value_deltas(at, at + inserted, 1, cut))

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

        ``deltas`` holds the values that entered or left clusters; only
        the summarized ones whose values moved (or, TEXT, whose member
        count did) are visited, plus the TEXT clusters after them whose
        ids move.  Every other cluster keeps its summary object.  Edges
        neither appear nor vanish, so the ``changed`` nodes take their
        new counts, child averages and parent edge entries in place, in
        a rebuild's float arithmetic.
        """
        counts, _, vtypes, edges = self._aggregates
        nodes = self.synopsis.nodes
        stats = self.stats
        image, stable = dict(zip(self._text, self._text)), set()
        for key, delta in deltas.items():
            if key not in changed and not any(delta.values()):
                continue  # a same-value change (a splice moves a centroid's text count)
            if key not in self._counts and key not in self._dropped:
                continue  # not summarized
            vtype = vtypes[key]
            if vtype is ValueType.TEXT:
                del image[key]
                if _move(self._counts[key], delta):
                    stable.add(key)
                continue
            stats.clusters_visited += 1
            node = nodes[key]
            if vtype is ValueType.STRING:
                node.vsumm = self._reprune(key, node.vsumm, self._dropped[key], delta)
            else:
                ordered = self._ordered.get(key) or sorted(self._counts[key])
                _move(self._counts[key], delta, ordered)
                self._ordered[key] = ordered
                node.vsumm = self._numeric(self._counts[key], ordered)
        for key, summary in self._texts(self._text, image, nodes, stable).items():
            stats.clusters_visited += 1
            nodes[key].vsumm = summary
        for key in changed:
            node = nodes[key]
            node.count = total = counts[key]
            for child in node.children:
                node.children[child] = edges[(key, child)] / total
            if key != self._classes[0]:
                parent = self._class_key[key][1]
                nodes[parent].children[key] = edges[(parent, key)] / counts[parent]

    def _value_deltas(
        self, start: int, stop: int, sign: int, deltas: Dict[int, Counter]
    ) -> Dict[int, Counter]:
        """Add ``sign`` for each value of rows ``[start, stop)`` (TEXT: for
        each of its terms) to its class's entry in ``deltas``."""
        doc = self.doc
        kinds = doc.value_kind
        classes = self._classes
        for row in range(start, stop):
            if kinds[row] != KIND_NULL:
                delta = deltas.setdefault(classes[row], Counter())
                value = doc.value(row)
                for item in value if kinds[row] == KIND_TEXT else (value,):
                    delta[item] += sign
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
        # Values leaving the document, read before the splice.
        cut: Dict[int, Counter] = {}
        if cut_parent >= 0:
            self._value_deltas(op.index, op.index + doc.size[op.index], -1, cut)
        elif isinstance(op, ValueChange) and 0 <= op.index < size:
            self._value_deltas(op.index, op.index + 1, -1, cut)
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
            elif new_kind == KIND_NULL:
                # NULL -> NULL: the document is untouched semantically.
                path = "noop"
            else:
                # Classes ignore values, so the partition cannot move:
                # only the element's cluster summary does.
                self._reassemble(set(), self._value_deltas(op.index, op.index + 1, 1, cut))
                if new_kind == KIND_TEXT:
                    stats.text_reencodes += 1
                else:
                    path = "summary-local"
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
