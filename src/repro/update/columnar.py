"""In-place :class:`ColumnarDocument` mutation for the update stream.

Preorder layout makes every subtree a contiguous index range, and every
stored structure column is relative to its own row (``size``,
``parent_gap``, ``level``), so both structural ops are array splices
plus an O(depth) relink around them:

* **insert** — the fragment (itself a small columnar document from the
  byte tokenizer) is re-interned into the host's label/path/value
  tables and its rows are spliced into every preorder column at the
  insertion point, their structure columns already relative;
* **delete** — the subtree's contiguous row range is cut from every
  column.  Orphaned entries in the typed value stores are left behind
  deliberately: the stores are append-only logs indexed by
  ``value_ref``, and every consumer reads them through live elements
  only.

Either way the rows past the splice move, but only two kinds of entry
change (:func:`_relink`): the ``size`` of each ancestor of the splice,
and the ``parent_gap`` of each ancestor's children that lie past it.
Depths only ever change inside the spliced range.  The derived columns
(``parent``, ``post``, ``subtree_ends``, ``label_positions``, ...) are
dropped and rebuilt by the next bulk reader.

Value changes re-type the new text through the ingestion heuristic and
report ``(old_kind, new_kind)`` so the maintainer can tell a
summary-local update from one that moves the element between
partition classes.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

from repro.update.ops import (
    DeleteSubtree,
    InsertSubtree,
    UpdateOp,
    ValueChange,
    insert_row,
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
    _store_text_terms,
)
from repro.xmltree.parser import DEFAULT_TEXT_WORD_THRESHOLD
from repro.xmltree.types import tokenize_text_ordered

#: The preorder columns every structural op splices in lockstep.
_NODE_COLUMNS = (
    "labels",
    "size",
    "parent_gap",
    "level",
    "path_ids",
    "value_kind",
    "value_ref",
)


def _relink(doc: ColumnarDocument, parent: int, row: int, delta: int) -> None:
    """Account for ``delta`` rows spliced in (or cut) under ``parent``.

    ``row`` is the first row past the splice, in the spliced document.
    Each ancestor from ``parent`` up grows by ``delta``, and each of its
    children from ``row`` on is ``delta`` rows further from it; the
    next ancestor's children past the splice start where this one's
    subtree ends.  Counts the entries rewritten in ``rows_relinked``.
    """
    size = doc.size
    gap = doc.parent_gap
    rewritten = 0
    while parent >= 0:
        size[parent] += delta
        end = parent + size[parent]
        while row < end:
            gap[row] += delta
            row += size[row]
            rewritten += 1
        rewritten += 1
        parent -= gap[parent]
    doc.rows_relinked += rewritten


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
    at: int,
    fragment: ColumnarDocument,
) -> None:
    """Graft ``fragment`` under element ``parent`` at row ``at``.

    ``at`` is one of ``parent``'s child boundaries: the row of the
    child the new subtree displaces, or ``doc.subtree_end(parent)`` to
    append (:func:`repro.update.ops.insert_row` finds it).  The new
    subtree root lands at ``at``.  ``fragment`` must be non-empty and
    is not usable afterwards (its value stores are re-interned, not
    shared).
    """
    count = len(fragment)
    if not count:
        raise ValueError("insert fragment is empty")

    # Re-intern the fragment's labels, paths, and values against the
    # host tables.  Its structure columns are relative to their own
    # rows, so they splice as they are but for the root's parent gap.
    label_map = [doc._label_id(label) for label in fragment.label_table]
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
            doc._path_id(mapped_parent, label_map[fragment.path_label[pid]])
        )
    new_gap = array("i", fragment.parent_gap)
    new_gap[0] = at - parent
    base_level = doc.level[parent] + 1
    for name, rows in zip(
        _NODE_COLUMNS,
        (
            array("i", (label_map[lid] for lid in fragment.labels)),
            fragment.size,
            new_gap,
            array("i", (value + base_level for value in fragment.level)),
            array("i", (pid_map[pid] for pid in fragment.path_ids)),
            fragment.value_kind,
            array(
                "i", (_reintern_value(doc, fragment, row) for row in range(count))
            ),
        ),
    ):
        getattr(doc, name)[at:at] = rows
    _relink(doc, parent, at + count, count)
    doc.drop_derived()


def delete_subtree(doc: ColumnarDocument, index: int) -> int:
    """Remove element ``index`` and its subtree; returns rows removed."""
    if index == 0:
        raise ValueError("cannot delete the document root")
    if not 0 < index < len(doc):
        raise ValueError(f"delete index {index} out of range")
    count = doc.size[index]
    parent = doc.parent_of(index)
    for name in _NODE_COLUMNS:
        del getattr(doc, name)[index:index + count]
    _relink(doc, parent, index, -count)
    doc.drop_derived()
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
) -> Tuple[int, int, int]:
    """Apply one op to the columnar document, in place.

    Returns ``(row, old_kind, new_kind)``: ``row`` is the splice row of
    an insert (its new subtree root) or a delete (the cut subtree's
    old root), and -1 for a value change; the kind pair is meaningful
    for value changes (KIND_NULL/KIND_NULL otherwise).  Raises
    ``ValueError`` on an inapplicable op, with the same messages as
    :func:`repro.update.ops.validate_update`.
    """
    if isinstance(op, InsertSubtree):
        at = insert_row(doc, op.parent, op.position)
        fragment = parse_fragment(op.xml, text_word_threshold)
        insert_subtree(doc, op.parent, at, fragment)
        return at, KIND_NULL, KIND_NULL
    problem = validate_update(doc, op)
    if problem is not None:
        raise ValueError(problem)
    if isinstance(op, DeleteSubtree):
        delete_subtree(doc, op.index)
        return op.index, KIND_NULL, KIND_NULL
    assert isinstance(op, ValueChange)
    old_kind, new_kind = change_value(
        doc, op.index, op.text, text_word_threshold
    )
    return -1, old_kind, new_kind


__all__ = [
    "apply_update",
    "change_value",
    "delete_subtree",
    "insert_subtree",
]
