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
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.values.summary import SummaryConfig, ValueSummary, build_summary
from repro.xmltree.columnar import KIND_TO_TYPE, ColumnarDocument
from repro.xmltree.paths import LabelPath, matches_any
from repro.xmltree.tree import XMLElement, XMLTree
from repro.xmltree.types import ValueType

#: Either document substrate: the object tree or the columnar store.
#: Construction is substrate-generic — both feed the same partition
#: and assembly code through flat per-index columns, so the resulting
#: synopses are bit-identical (pinned by tests and the differential
#: harness's columnar round).
Document = Union[XMLTree, ColumnarDocument]

#: Per-class aggregates of a class column, each keyed in class order:
#: element counts, labels, value types, and parent -> child edge totals.
Aggregates = Tuple[
    Dict[int, int], Dict[int, str], Dict[int, ValueType], Dict[Tuple[int, int], int]
]


def _document_order(tree: XMLTree) -> Tuple[List[XMLElement], List[int], List[LabelPath]]:
    """Pre-order element list with parallel parent-index and path arrays."""
    elements: List[XMLElement] = []
    parents: List[int] = []
    paths: List[LabelPath] = []
    index_of: Dict[int, int] = {}
    stack: List[Tuple[XMLElement, int, LabelPath]] = [
        (tree.root, -1, (tree.root.label,))
    ]
    while stack:
        element, parent_index, path = stack.pop()
        index = len(elements)
        elements.append(element)
        parents.append(parent_index)
        paths.append(path)
        index_of[id(element)] = index
        for child in reversed(element.children):
            stack.append((child, index, path + (child.label,)))
    return elements, parents, paths


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


def up_pass(down: Sequence[int], parents: Sequence[int]) -> List[int]:
    """Preorder class ids: ``(down id, parent class)`` interned.

    Parents precede children in preorder, so every parent's class is
    known when its children are reached; interning in index order
    numbers classes by first occurrence, the root's class being 0.
    """
    classes = [0]
    append = classes.append
    interned: Dict[Tuple[int, int], int] = {}
    get = interned.get
    for down_id, parent_index in zip(
        islice(down, 1, None), islice(parents, 1, None)
    ):
        key = (down_id, classes[parent_index])
        class_id = get(key)
        if class_id is None:
            class_id = interned[key] = len(interned) + 1
        append(class_id)
    return classes


def _assemble_synopsis(
    size: int,
    parents: Sequence[int],
    labels: Sequence[str],
    vtypes: Sequence[ValueType],
    value_of: Callable[[int], object],
    path_of: Callable[[int], LabelPath],
    classes: List[int],
    value_paths: Optional[Sequence[LabelPath]],
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """Materialize a synopsis from per-index columns and a class column.

    The substrate-neutral core of every construction path: the object
    tree and the columnar store both flatten into (labels, vtypes,
    parents) columns plus value/path accessors, so class aggregation,
    node creation, and edge creation run in one shared order — making
    the two substrates' synopses bit-identical.
    """
    config = config if config is not None else SummaryConfig()
    summarize_all = value_paths is None
    exact_paths: Set[LabelPath] = {
        path for path in (value_paths or ()) if "*" not in path
    }
    wildcard_paths: List[LabelPath] = [
        path for path in (value_paths or ()) if "*" in path
    ]

    def path_wanted(path: LabelPath) -> bool:
        return (
            summarize_all
            or path in exact_paths
            or matches_any(path, wildcard_paths)
        )

    counts: Dict[int, int] = {}
    node_labels: Dict[int, str] = {}
    node_vtypes: Dict[int, ValueType] = {}
    values: Dict[int, list] = {}
    edge_totals: Dict[Tuple[int, int], int] = {}

    for index in range(size):
        key = classes[index]
        counts[key] = counts.get(key, 0) + 1
        node_labels[key] = labels[index]
        vtype = vtypes[index]
        node_vtypes[key] = vtype
        if (
            with_summaries
            and vtype is not ValueType.NULL
            and path_wanted(path_of(index))
        ):
            values.setdefault(key, []).append(value_of(index))
        parent_index = parents[index]
        if parent_index >= 0:
            edge = (classes[parent_index], key)
            edge_totals[edge] = edge_totals.get(edge, 0) + 1

    aggregates = (counts, node_labels, node_vtypes, edge_totals)
    return materialize_synopsis(
        aggregates, _summaries(aggregates, values, config), classes[0]
    )


def build_synopsis_from_classes(
    elements: List[XMLElement],
    parents: List[int],
    paths: List[LabelPath],
    classes: List[int],
    value_paths: Optional[Sequence[LabelPath]],
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """Materialize a synopsis from a per-element class assignment."""
    return _assemble_synopsis(
        len(elements),
        parents,
        [element.label for element in elements],
        [element.value_type for element in elements],
        lambda index: elements[index].value,
        paths.__getitem__,
        classes,
        value_paths,
        config,
        with_summaries,
    )


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


def _object_initial_keys(
    elements: List[XMLElement], paths: List[LabelPath]
) -> List[int]:
    """Initial partition keys over the object tree, interned to ints."""
    interned: Dict[Tuple, int] = {}
    return [
        interned.setdefault((path, element.value_type), len(interned))
        for element, path in zip(elements, paths)
    ]


def reference_classes(document: Document) -> List[int]:
    """The reference partition as a preorder class column.

    Both substrates yield the same column for the same document.
    """
    if isinstance(document, ColumnarDocument):
        parents: Sequence[int] = document.parent
        raw = columnar_initial_keys(document)
    else:
        elements, parents, paths = _document_order(document)
        raw = _object_initial_keys(elements, paths)
    return up_pass(down_pass(parents, raw), parents)


def columnar_aggregates(doc: ColumnarDocument, classes: List[int]) -> Aggregates:
    """Per-class aggregates, each one C-level pass over the columns.

    ``Counter`` and ``dict(zip(...))`` keep first-occurrence insertion
    order (and last-write-wins label/type values, which are
    class-constant anyway), exactly as :func:`_assemble_synopsis`'s
    per-index loop builds them.
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

    Produces exactly what :func:`_assemble_synopsis` produces for the
    same class column, but every aggregate runs as a C-level column
    pass.  Value gathering consults a per-path-id wanted bitmap instead
    of building a label-path tuple per element.
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

    ``document`` may be an object :class:`XMLTree` or a
    :class:`~repro.xmltree.columnar.ColumnarDocument`; the columnar path
    partitions directly over the interned id columns (no per-element
    objects, no path tuples except for summarized nodes) and produces a
    bit-identical synopsis.
    """
    if isinstance(document, ColumnarDocument):
        return _assemble_columnar(
            document,
            reference_classes(document),
            value_paths,
            config,
            with_summaries,
        )
    elements, parents, paths = _document_order(document)
    raw = _object_initial_keys(elements, paths)
    classes = up_pass(down_pass(parents, raw), parents)
    return build_synopsis_from_classes(
        elements, parents, paths, classes, value_paths, config, with_summaries
    )


def _build_with_classifier(
    document: Document,
    classify: Callable[[XMLElement, LabelPath], Hashable],
    columnar_keys: Callable[[ColumnarDocument], List[int]],
    value_paths: Optional[Sequence[LabelPath]],
    config: Optional[SummaryConfig],
    with_summaries: bool,
) -> XClusterSynopsis:
    if isinstance(document, ColumnarDocument):
        classes = _intern_column(columnar_keys(document))
        return _assemble_columnar(
            document, classes, value_paths, config, with_summaries
        )
    elements, parents, paths = _document_order(document)
    interned: Dict[Hashable, int] = {}
    classes = [
        interned.setdefault(classify(elements[i], paths[i]), len(interned))
        for i in range(len(elements))
    ]
    return build_synopsis_from_classes(
        elements, parents, paths, classes, value_paths, config, with_summaries
    )


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
        lambda element, path: (path, element.value_type),
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
        lambda element, path: (element.label, element.value_type),
        lambda doc: [
            (label_id << 2) | kind
            for label_id, kind in zip(doc.labels, doc.value_kind)
        ],
        value_paths,
        config,
        with_summaries,
    )
