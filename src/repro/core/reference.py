"""Reference-synopsis construction (paper Section 4.3).

The reference synopsis is the detailed starting point of XCLUSTERBUILD:
a refinement of the lossless *count-stable* summary in which

* every cluster groups elements with the same number of children in every
  other cluster (count stability), and
* every cluster has exactly one incoming path — all member elements have
  their parents in a single cluster — capturing path-to-value
  correlations (the reference synopsis of a tree document is itself a
  tree).

The partition is the coarsest stable refinement of the ``(label path,
value type)`` partition under both-ways refinement (an element's class
is refined by its parent's class and the multiset of its children's
classes).  On a rooted tree that is the automorphism-orbit partition,
computed here in two linear passes with no fixpoint iteration:

* the **down pass** (:func:`down_pass`) gives every element the id of
  its subtree's isomorphism type, bottom-up: the interned pair of its
  initial key and the sorted ids of its children;
* the **up pass** (:func:`up_pass`) interns ``(down id, parent class)``
  in preorder, so classes are numbered in first-occurrence order.

The iterative refinement this replaces lives on as the partition oracle
in :mod:`repro.check.oracles`.

Value summaries are attached only to clusters reachable by the
caller-specified *value paths* (the paper provides 7 such paths for IMDB
and 9 for XMark); each summarized cluster gets a detailed summary built
from the values of its extent, so distinct structural contexts keep
distinct value distributions — the path-to-value correlations the paper
calls out.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.values.summary import SummaryConfig, ValueSummary, build_summary
from repro.xmltree.columnar import (
    KIND_TO_TYPE,
    ColumnarDocument,
    Document,
    as_columnar,
)
from repro.xmltree.paths import LabelPath, matches_any
from repro.xmltree.types import ValueType

#: Per-class aggregates of a class column, each keyed in class order:
#: element counts, labels, value types, and parent -> child edge totals.
Aggregates = Tuple[
    Dict[int, int], Dict[int, str], Dict[int, ValueType], Dict[Tuple[int, int], int]
]


def subtree_key(raw: Hashable, child_ids: List[int]) -> Hashable:
    """The down-pass key of one element (sorts ``child_ids`` in place).

    A leaf is keyed by its initial key alone; an interior element by
    that key paired with its children's down ids as a sorted tuple (the
    multiset of child subtree types).  :func:`down_pass` inlines this
    encoding; the update maintainer calls it to re-key single elements.
    """
    if not child_ids:
        return raw
    child_ids.sort()
    return (raw, tuple(child_ids))


def down_pass(
    parents: Sequence[int],
    raw: Sequence[Hashable],
    table: Optional[Dict[Hashable, int]] = None,
) -> List[int]:
    """Bottom-up subtree-isomorphism ids over a preorder parent column.

    Two elements get equal ids exactly when their subtrees are
    isomorphic as trees labelled by ``raw`` (the initial partition key).
    Reverse preorder visits every child before its parent, so each
    element's child ids are complete when it is reached.  ``table``
    maps :func:`subtree_key` keys to ids; a caller that passes its own
    can keep re-keying elements against it later.
    """
    if table is None:
        table = {}
    setdefault = table.setdefault
    down = [0] * len(parents)
    pending: Dict[int, List[int]] = {}  # element -> child ids so far
    for index in range(len(parents) - 1, -1, -1):
        kids = pending.pop(index, None)
        if kids is None:
            key = raw[index]
        else:
            kids.sort()
            key = (raw[index], tuple(kids))
        down_id = down[index] = setdefault(key, len(table))
        parent_index = parents[index]
        siblings = pending.get(parent_index)
        if siblings is None:
            pending[parent_index] = [down_id]
        else:
            siblings.append(down_id)
    return down


def up_pass(
    down: Sequence[int],
    parents: Sequence[int],
    table: Optional[Dict[Tuple[int, int], int]] = None,
) -> List[int]:
    """Preorder class ids: ``(down id, parent class)`` interned.

    Parents precede children in preorder, so every parent's class is
    known when its children are reached; interning in index order
    numbers classes by first occurrence, the root's class being 0.
    ``table`` (empty when passed) receives every non-root class's key;
    a caller that passes its own can keep interning against it later.
    """
    if table is None:
        table = {}
    classes = [0]
    append = classes.append
    get = table.get
    for down_id, parent_index in zip(
        islice(down, 1, None), islice(parents, 1, None)
    ):
        key = (down_id, classes[parent_index])
        class_id = get(key)
        if class_id is None:
            class_id = table[key] = len(table) + 1
        append(class_id)
    return classes


def _intern_column(keys: List[int]) -> List[int]:
    """Dense class ids for a key column, in first-occurrence order.

    Equivalent to a ``setdefault(key, len(interned))`` scan but runs as
    two C-level passes (``dict.fromkeys`` then a ``map`` lookup).
    """
    ids = {key: index for index, key in enumerate(dict.fromkeys(keys))}
    return list(map(ids.__getitem__, keys))


def columnar_initial_keys(doc: ColumnarDocument) -> List[int]:
    """Initial partition keys over columnar arrays: ``(path id, kind)``.

    Path ids biject with label-path tuples and kinds with value types,
    so these keys partition elements exactly as the object path's
    ``(path, value_type)`` keys do.
    """
    return [(pid << 2) | kind for pid, kind in zip(doc.path_ids, doc.value_kind)]


def reference_classes(document: Document) -> List[int]:
    """The reference partition as a preorder class column."""
    doc = as_columnar(document)
    parents = doc.parent
    return up_pass(down_pass(parents, columnar_initial_keys(doc)), parents)


def columnar_aggregates(doc: ColumnarDocument, classes: List[int]) -> Aggregates:
    """Per-class aggregates, each one C-level pass over the columns.

    ``Counter`` and ``dict(zip(...))`` keep first-occurrence insertion
    order (and last-write-wins label/type values, which are
    class-constant anyway), so nodes come out in class order and edges
    in first-occurrence order.
    """
    edge_totals = Counter(
        zip(
            map(classes.__getitem__, islice(doc.parent, 1, None)),
            islice(classes, 1, None),
        )
    )
    return (
        Counter(classes),
        dict(zip(classes, map(doc.label_table.__getitem__, doc.labels))),
        dict(zip(classes, map(KIND_TO_TYPE.__getitem__, doc.value_kind))),
        edge_totals,
    )


def _summaries(
    aggregates: Aggregates, values: Dict[int, list], config: SummaryConfig
) -> Dict[int, ValueSummary]:
    """Detailed summaries of the valued classes, built in class order.

    Class order is the order TEXT summaries intern their terms in, so
    it is part of the output.
    """
    vtypes = aggregates[2]
    return {
        key: build_summary(vtypes[key], values[key], config)
        for key in aggregates[0]
        if key in values
    }


def materialize_synopsis(
    aggregates: Aggregates,
    summaries: Dict[int, ValueSummary],
    root_class: int,
) -> XClusterSynopsis:
    """Nodes in class order, then edges in first-occurrence order."""
    counts, labels, vtypes, edge_totals = aggregates
    synopsis = XClusterSynopsis()
    node_of: Dict[int, SynopsisNode] = {}
    for key, count in counts.items():
        node_of[key] = synopsis.add_node(
            labels[key], vtypes[key], count, summaries.get(key)
        )
    for (parent_key, child_key), total in edge_totals.items():
        synopsis.add_edge(
            node_of[parent_key], node_of[child_key], total / counts[parent_key]
        )
    synopsis.set_root(node_of[root_class])
    return synopsis


def _assemble_columnar(
    doc: ColumnarDocument,
    classes: List[int],
    value_paths: Optional[Sequence[LabelPath]],
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """Whole-column synopsis assembly over the columnar store.

    Every aggregate runs as a C-level column pass; value gathering
    consults a per-path-id wanted bitmap instead of building a
    label-path tuple per element.  The object-tree assembly in
    :mod:`repro.check.oracles` is the independent check on it.
    """
    config = config if config is not None else SummaryConfig()
    aggregates = columnar_aggregates(doc, classes)
    summaries: Dict[int, ValueSummary] = {}
    if with_summaries:
        path_total = len(doc.path_parent)
        if value_paths is None:
            wanted = [True] * path_total
        else:
            exact: Set[LabelPath] = {
                path for path in value_paths if "*" not in path
            }
            wildcard: List[LabelPath] = [
                path for path in value_paths if "*" in path
            ]
            wanted = [
                path in exact or matches_any(path, wildcard)
                for path in map(doc.path_tuple, range(path_total))
            ]
        values: Dict[int, list] = {}
        pids = doc.path_ids
        value_of = doc.value
        for index, kind in enumerate(doc.value_kind):
            if kind and wanted[pids[index]]:  # kind 0 is KIND_NULL
                values.setdefault(classes[index], []).append(value_of(index))
        summaries = _summaries(aggregates, values, config)
    return materialize_synopsis(aggregates, summaries, classes[0])


def build_reference_synopsis(
    document: Document,
    value_paths: Optional[Sequence[LabelPath]] = None,
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """The detailed reference synopsis: count-stable, one path per cluster.

    Partitions directly over the interned id columns (no per-element
    objects, no path tuples except for summarized nodes); an object
    :class:`~repro.xmltree.tree.XMLTree` is frozen first.
    """
    doc = as_columnar(document)
    return _assemble_columnar(
        doc, reference_classes(doc), value_paths, config, with_summaries
    )


def _build_with_classifier(
    document: Document,
    columnar_keys: Callable[[ColumnarDocument], List[int]],
    value_paths: Optional[Sequence[LabelPath]],
    config: Optional[SummaryConfig],
    with_summaries: bool,
) -> XClusterSynopsis:
    doc = as_columnar(document)
    classes = _intern_column(columnar_keys(doc))
    return _assemble_columnar(doc, classes, value_paths, config, with_summaries)


def build_path_synopsis(
    document: Document,
    value_paths: Optional[Sequence[LabelPath]] = None,
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """A coarser summary clustering elements purely by label path.

    An intermediate baseline between the tag synopsis and the full
    count-stable reference.
    """
    return _build_with_classifier(
        document,
        columnar_initial_keys,
        value_paths,
        config,
        with_summaries,
    )


def build_tag_synopsis(
    document: Document,
    value_paths: Optional[Sequence[LabelPath]] = None,
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """The smallest structural summary: one cluster per (tag, value type).

    This is the paper's "0 KB structural budget" point — the synopsis
    that clusters elements based solely on their tags.
    """
    return _build_with_classifier(
        document,
        lambda doc: [
            (label_id << 2) | kind
            for label_id, kind in zip(doc.labels, doc.value_kind)
        ],
        value_paths,
        config,
        with_summaries,
    )
