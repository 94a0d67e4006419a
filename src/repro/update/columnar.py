"""In-place :class:`ColumnarDocument` mutation for the update stream.

Preorder layout makes every subtree a contiguous index range, so both
structural ops are array splices plus a reference shift past them:

* **insert** — the fragment (itself a small columnar document from the
  byte tokenizer) is re-interned into the host's label/path/value
  tables, its rows are spliced into every preorder column at the
  insertion point, and host references at or past that point shift up
  by the fragment size;
* **delete** — the subtree's contiguous row range is cut from every
  column and references past it shift down.  Orphaned entries in the
  typed value stores are left behind deliberately: the stores are
  append-only logs indexed by ``value_ref``, and every consumer reads
  them through live elements only.

Both ops also keep ``post`` and ``level`` current without a whole-tree
walk: a subtree is contiguous in postorder too, so a splice shifts the
post ranks past it by the subtree size (see :func:`insert_subtree`),
and depths only ever change inside the spliced range.  A shift
rewrites the rows past the splice and one parent chain before it
(:func:`_shift_tail`).  The lazily built interval-join caches
(``subtree_ends`` / ``label_positions``) are dropped — they were
documented as "immutable documents only" and this module is what made
that qualifier real.

Value changes re-type the new text through the ingestion heuristic and
report ``(old_kind, new_kind)`` so the maintainer can tell a
summary-local update from one that moves the element between
partition classes.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from repro.update.ops import (
    DeleteSubtree,
    InsertSubtree,
    UpdateOp,
    ValueChange,
    parse_fragment,
    validate_update,
)
from repro.xmltree.columnar import (
    KIND_NULL,
    KIND_NUMERIC,
    KIND_STRING,
    KIND_TEXT,
    _Q_MAX,
    _Q_MIN,
    ColumnarDocument,
    _intern_path,
    _store_text_terms,
)
from repro.xmltree.parser import DEFAULT_TEXT_WORD_THRESHOLD
from repro.xmltree.types import tokenize_text_ordered

#: The preorder columns every structural op splices in lockstep.
_NODE_COLUMNS = (
    "labels",
    "parent",
    "first_child",
    "next_sibling",
    "post",
    "level",
    "path_ids",
    "value_kind",
    "value_ref",
)


def invalidate_derived(doc: ColumnarDocument) -> None:
    """Drop the lazily built interval-join caches after a mutation.

    ``subtree_ends``/``label_positions`` are keyed by preorder index
    and label id — both shift under splices — so they must be rebuilt
    on next use.  The path-tuple memo survives: the path table is
    append-only and interned ids never move.
    """
    doc._subtree_ends = None
    doc._label_positions = None


def _shift_tail(
    doc: ColumnarDocument, at: int, floor: int, delta: int, post_floor: int
) -> None:
    """Move references past a splice at row ``at`` by ``delta``.

    Every link ``>= floor`` and every post rank ``>= post_floor`` moves.
    Rows from ``at`` on are rewritten; a row before ``at`` can hold a
    moving link only if its subtree reaches row ``at - 1`` (its first
    child or next sibling lies past it), and a moving post rank only if
    it is an ancestor of the splice, so only the parent chain of row
    ``at - 1`` is patched among them.
    """
    columns = (doc.parent, doc.first_child, doc.next_sibling, doc.post)
    floors = (floor, floor, floor, post_floor)
    for column, low in zip(columns, floors):
        column[at:] = array(
            "i", [value + delta if value >= low else value for value in column[at:]]
        )
    row = at - 1
    while row >= 0:
        for column, low in zip(columns[1:], floors[1:]):
            if column[row] >= low:
                column[row] += delta
        row = doc.parent[row]


def _path_key_index(doc: ColumnarDocument) -> Dict[Tuple[int, int], int]:
    """The ``(parent path id, label id) -> path id`` intern map.

    Construction keeps this map only transiently, so mutation rebuilds
    it from the columnar path table (a few hundred entries at most).
    """
    return {
        (doc.path_parent[pid], doc.path_label[pid]): pid
        for pid in range(len(doc.path_parent))
    }


def _reintern_value(
    doc: ColumnarDocument, fragment: ColumnarDocument, row: int
) -> int:
    """Copy fragment row ``row``'s value into the host stores; new ref."""
    kind = fragment.value_kind[row]
    ref = fragment.value_ref[row]
    if kind == KIND_NUMERIC:
        value = fragment.numeric_overflow.get(ref)
        if value is None:
            value = fragment.numeric_values[ref]
        new_ref = len(doc.numeric_values)
        if _Q_MIN <= value <= _Q_MAX:
            doc.numeric_values.append(value)
        else:
            doc.numeric_values.append(0)
            doc.numeric_overflow[new_ref] = value
        return new_ref
    if kind == KIND_STRING:
        new_ref = len(doc.string_values)
        doc.string_values.append(fragment.string_values[ref])
        return new_ref
    if kind == KIND_TEXT:
        stored = fragment.text_values[ref]
        new_ref = len(doc.text_values)
        if type(stored) is tuple:
            # Re-intern the fragment's term ids against the host term
            # table, preserving the original token order so frozenset
            # reconstruction stays layout-identical.
            term_index = doc.term_index
            table = doc.term_table
            ids = []
            for term_id in stored:
                term = fragment.term_table[term_id]
                host_id = term_index.get(term)
                if host_id is None:
                    host_id = len(table)
                    term_index[term] = host_id
                    table.append(term)
                ids.append(host_id)
            doc.text_values.append(tuple(ids))
        else:
            doc.text_values.append(frozenset(stored))
        return new_ref
    return -1


def insert_subtree(
    doc: ColumnarDocument,
    parent: int,
    position: int,
    fragment: ColumnarDocument,
) -> int:
    """Graft ``fragment`` as child ``position`` of element ``parent``.

    Returns the preorder index of the new subtree root.  ``fragment``
    must be non-empty and is not usable afterwards (its value stores
    are re-interned, not shared).
    """
    size = len(doc)
    if not 0 <= parent < size:
        raise ValueError(f"insert parent {parent} out of range")
    children = list(doc.children(parent))
    if not 0 <= position <= len(children):
        raise ValueError(
            f"insert position {position} out of range "
            f"(parent has {len(children)} children)"
        )
    count = len(fragment)
    if not count:
        raise ValueError("insert fragment is empty")

    # The insertion point: the displaced child's index, or one past the
    # parent's subtree when appending.  The parent itself always
    # precedes it in preorder, so ``parent`` survives the shift intact.
    if position < len(children):
        at = children[position]
        displaced = children[position]
    else:
        at = doc.subtree_end(parent)
        displaced = -1
    previous = children[position - 1] if position > 0 else -1

    # 1. Shift every host reference at or past the splice point.  In
    # postorder the fragment lands after exactly the host elements that
    # precede ``at`` and are not its ancestors (``parent`` and the
    # ``level[parent]`` above it), so it takes ranks from ``base`` on
    # and every later-finishing host element moves up by its size.
    base = at - doc.level[parent] - 1
    _shift_tail(doc, at, at, count, base)

    # 2. Re-intern the fragment's labels, paths, and values against the
    # host tables, and renumber its structure columns to their final
    # preorder homes (fragment row j lands at index at + j).
    label_map = [
        doc._label_id(label) for label in fragment.label_table
    ]
    path_index = _path_key_index(doc)
    pid_map: List[int] = []
    parent_pid = doc.path_ids[parent]
    for pid in range(len(fragment.path_parent)):
        fragment_parent = fragment.path_parent[pid]
        # Fragment path ids are interned parent-before-child, so the
        # mapped parent is always already known.
        mapped_parent = (
            parent_pid if fragment_parent < 0 else pid_map[fragment_parent]
        )
        pid_map.append(
            _intern_path(
                doc, mapped_parent, label_map[fragment.path_label[pid]],
                path_index,
            )
        )

    base_level = doc.level[parent] + 1
    new_labels = array("i", (label_map[lid] for lid in fragment.labels))
    new_parent = array(
        "i",
        (
            parent if value < 0 else value + at
            for value in fragment.parent
        ),
    )
    new_first = array(
        "i",
        (-1 if value < 0 else value + at for value in fragment.first_child),
    )
    new_next = array(
        "i",
        (-1 if value < 0 else value + at for value in fragment.next_sibling),
    )
    # The fragment root's next sibling is whichever child it displaced
    # (already shifted to its post-splice home), or nothing on append.
    if displaced >= 0:
        new_next[0] = displaced + count
    new_post = array("i", (value + base for value in fragment.post))
    new_level = array("i", (value + base_level for value in fragment.level))
    new_pids = array("i", (pid_map[pid] for pid in fragment.path_ids))
    new_kind = array("b", fragment.value_kind)
    new_ref = array(
        "i",
        (
            _reintern_value(doc, fragment, row)
            for row in range(count)
        ),
    )

    # 3. Splice the renumbered rows into every preorder column.
    for name, rows in zip(
        _NODE_COLUMNS,
        (
            new_labels,
            new_parent,
            new_first,
            new_next,
            new_post,
            new_level,
            new_pids,
            new_kind,
            new_ref,
        ),
    ):
        column = getattr(doc, name)
        column[at:at] = rows

    # 4. Link the new subtree into its sibling chain.
    if previous >= 0:
        doc.next_sibling[previous] = at
    else:
        doc.first_child[parent] = at

    invalidate_derived(doc)
    return at


def delete_subtree(doc: ColumnarDocument, index: int) -> int:
    """Remove element ``index`` and its subtree; returns rows removed."""
    size = len(doc)
    if index == 0:
        raise ValueError("cannot delete the document root")
    if not 0 < index < size:
        raise ValueError(f"delete index {index} out of range")
    end = doc.subtree_end(index)
    count = end - index
    parent = doc.parent[index]
    # The subtree holds the ``count`` post ranks ending at its root's.
    last_post = doc.post[index]

    # Unlink from the sibling chain before the rows disappear.
    following = doc.next_sibling[index]
    previous = -1
    child = doc.first_child[parent]
    while child != index:
        previous = child
        child = doc.next_sibling[child]
    if previous >= 0:
        doc.next_sibling[previous] = following
    else:
        doc.first_child[parent] = following

    for name in _NODE_COLUMNS:
        column = getattr(doc, name)
        del column[index:end]

    # Surviving references can only point below the cut or past it:
    # in-range targets were all inside the deleted subtree.
    _shift_tail(doc, index, end, -count, last_post + 1)

    invalidate_derived(doc)
    return count


def change_value(
    doc: ColumnarDocument,
    index: int,
    text: str,
    text_word_threshold: int = DEFAULT_TEXT_WORD_THRESHOLD,
) -> Tuple[int, int]:
    """Replace element ``index``'s character data; ``(old, new)`` kinds.

    The replacement text flows through the ingestion typing heuristic
    (the inlined ``_typed_value`` default from ``from_events``):
    integers to NUMERIC with the int64 overflow side table, text at or
    past the word threshold to an interned term set, anything else to a
    stripped STRING, and whitespace-only text to no value at all.
    """
    if not 0 <= index < len(doc):
        raise ValueError(f"set_value index {index} out of range")
    old_kind = doc.value_kind[index]
    stripped = text.strip()
    if not stripped:
        doc.value_kind[index] = KIND_NULL
        doc.value_ref[index] = -1
        return old_kind, KIND_NULL
    try:
        number = int(stripped)
    except ValueError:
        if len(stripped.split()) >= text_word_threshold:
            _store_text_terms(doc, index, tokenize_text_ordered(text))
            return old_kind, KIND_TEXT
        doc.value_kind[index] = KIND_STRING
        doc.value_ref[index] = len(doc.string_values)
        doc.string_values.append(stripped)
        return old_kind, KIND_STRING
    ref = len(doc.numeric_values)
    if _Q_MIN <= number <= _Q_MAX:
        doc.numeric_values.append(number)
    else:
        doc.numeric_values.append(0)
        doc.numeric_overflow[ref] = number
    doc.value_kind[index] = KIND_NUMERIC
    doc.value_ref[index] = ref
    return old_kind, KIND_NUMERIC


def apply_update(
    doc: ColumnarDocument,
    op: UpdateOp,
    text_word_threshold: int = DEFAULT_TEXT_WORD_THRESHOLD,
) -> Tuple[bool, int, int]:
    """Apply one op to the columnar document, in place.

    Returns ``(structural, old_kind, new_kind)``: ``structural`` is
    True for inserts/deletes (the partition may change shape), and the
    kind pair is meaningful for value changes (KIND_NULL/KIND_NULL
    otherwise).  Raises ``ValueError`` on an inapplicable op, with the
    same messages as :func:`repro.update.ops.validate_update`.
    """
    problem = validate_update(doc, op)
    if problem is not None:
        raise ValueError(problem)
    if isinstance(op, InsertSubtree):
        fragment = parse_fragment(op.xml, text_word_threshold)
        insert_subtree(doc, op.parent, op.position, fragment)
        return True, KIND_NULL, KIND_NULL
    if isinstance(op, DeleteSubtree):
        delete_subtree(doc, op.index)
        return True, KIND_NULL, KIND_NULL
    assert isinstance(op, ValueChange)
    old_kind, new_kind = change_value(
        doc, op.index, op.text, text_word_threshold
    )
    return False, old_kind, new_kind


__all__ = [
    "apply_update",
    "change_value",
    "delete_subtree",
    "insert_subtree",
    "invalidate_derived",
]
