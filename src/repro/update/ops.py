"""The document-update stream: typed ops over both document substrates.

Three update kinds cover the mutations a serving deployment sees:

* :class:`InsertSubtree` — graft a well-formed XML fragment as a new
  child of an existing element.  The fragment text flows through the
  byte tokenizer of :mod:`repro.xmltree.events` — updates speak the
  same START/ATTR/TEXT/END token vocabulary as bulk ingestion, so a
  fragment is typed (numeric / string / text, attributes as ``@name``
  children) exactly as it would have been in the original document.
* :class:`DeleteSubtree` — remove an element and its whole subtree.
* :class:`ValueChange` — replace an element's character data; the new
  text is re-typed through the parser's heuristic, so an update can
  legitimately flip a value from NUMERIC to TEXT (or drop it entirely
  with whitespace), and downstream maintenance must follow.

Ops are plain frozen dataclasses with a JSON wire form
(:func:`update_from_dict` / :func:`update_to_dict`) used by the
``POST /update`` serving route, the differential harness's shrunk
counter-examples, and the CLI.

Every op addresses elements by **preorder index** into the current
document — the same numbering :class:`~repro.xmltree.columnar.
ColumnarDocument` columns use and ``XMLElement.iter()`` yields — so an
op means the same thing on the columnar substrate and on the object
tree (:func:`apply_update_tree` keeps an object twin in lockstep for
the rebuild-from-scratch oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.xmltree.columnar import ColumnarDocument, from_events
from repro.xmltree.events import XMLParseError, iter_events
from repro.xmltree.parser import (
    DEFAULT_TEXT_WORD_THRESHOLD,
    _typed_value,
    parse_string,
)
from repro.xmltree.tree import XMLElement, XMLTree


class UpdateFormatError(ValueError):
    """A malformed update payload (bad op name, fields, or fragment)."""


@dataclass(frozen=True)
class InsertSubtree:
    """Insert the fragment as child ``position`` of element ``parent``.

    ``position`` counts existing children (attributes included — they
    are ordinary ``@name`` children in the document model) and may equal
    the child count, meaning "append".  ``xml`` must be one well-formed
    element; it is tokenized by :func:`repro.xmltree.events.iter_events`.
    """

    parent: int
    position: int
    xml: str

    op = "insert"


@dataclass(frozen=True)
class DeleteSubtree:
    """Delete element ``index`` and its entire subtree (never the root)."""

    index: int

    op = "delete"


@dataclass(frozen=True)
class ValueChange:
    """Replace the character data of element ``index`` with ``text``.

    The text is re-typed through the ingestion heuristic: integers
    become NUMERIC (with the int64 overflow side table), text at or
    above the word threshold becomes a TEXT term set, anything else a
    stripped STRING, and whitespace-only text removes the value.
    """

    index: int
    text: str

    op = "set_value"


UpdateOp = Union[InsertSubtree, DeleteSubtree, ValueChange]


def update_to_dict(op: UpdateOp) -> Dict[str, Any]:
    """The JSON wire form of one update op."""
    if isinstance(op, InsertSubtree):
        return {
            "op": "insert",
            "parent": op.parent,
            "position": op.position,
            "xml": op.xml,
        }
    if isinstance(op, DeleteSubtree):
        return {"op": "delete", "index": op.index}
    if isinstance(op, ValueChange):
        return {"op": "set_value", "index": op.index, "text": op.text}
    raise UpdateFormatError(f"unknown update op {op!r}")


def _int_field(payload: Dict[str, Any], name: str) -> int:
    value = payload.get(name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise UpdateFormatError(f"update field {name!r} must be an integer")
    return value


def _str_field(payload: Dict[str, Any], name: str) -> str:
    value = payload.get(name)
    if not isinstance(value, str):
        raise UpdateFormatError(f"update field {name!r} must be a string")
    return value


def update_from_dict(payload: Any) -> UpdateOp:
    """Parse one JSON update payload into a typed op.

    Raises :class:`UpdateFormatError` on malformed input; the HTTP
    layer maps that to a 400 response.
    """
    if not isinstance(payload, dict):
        raise UpdateFormatError("update must be a JSON object")
    name = payload.get("op")
    if name == "insert":
        op = InsertSubtree(
            parent=_int_field(payload, "parent"),
            position=_int_field(payload, "position"),
            xml=_str_field(payload, "xml"),
        )
        # Reject malformed fragments at decode time, so a batch fails
        # whole before any of its ops has touched the document.
        parse_fragment(op.xml)
        return op
    if name == "delete":
        return DeleteSubtree(index=_int_field(payload, "index"))
    if name == "set_value":
        return ValueChange(
            index=_int_field(payload, "index"),
            text=_str_field(payload, "text"),
        )
    raise UpdateFormatError(
        f"unknown update op {name!r}; expected insert/delete/set_value"
    )


def parse_fragment(
    xml: str, text_word_threshold: int = DEFAULT_TEXT_WORD_THRESHOLD
) -> ColumnarDocument:
    """Tokenize an insert fragment into its own small columnar document.

    The fragment rides the same byte tokenizer as bulk ingestion, so
    typing (and attribute materialization) is identical to what the
    original document build would have produced.
    """
    try:
        fragment = from_events(
            iter_events(xml), None, text_word_threshold
        )
    except XMLParseError as err:
        raise UpdateFormatError(f"bad insert fragment: {err}")
    if not len(fragment):
        raise UpdateFormatError("insert fragment is empty")
    return fragment


def insert_row(doc: ColumnarDocument, parent: int, position: int) -> int:
    """The row an insert as child ``position`` of ``parent`` splices at.

    That is the displaced child's row, or one past the parent's subtree
    when appending.  Walks the children up to ``position`` once; raises
    ``ValueError`` when ``parent`` or ``position`` is out of range.
    """
    if not 0 <= parent < len(doc):
        raise ValueError(f"insert parent {parent} out of range")
    size = doc.size
    end = parent + size[parent]
    row = parent + 1 if position >= 0 else end + 1
    for _ in range(position):
        if row >= end:
            row = end + 1
            break
        row += size[row]
    if row > end:
        child_count = sum(1 for _ in doc.children(parent))
        raise ValueError(
            f"insert position {position} out of range "
            f"(parent has {child_count} children)"
        )
    return row


def validate_update(
    doc: ColumnarDocument, op: UpdateOp
) -> Optional[str]:
    """Why ``op`` cannot apply to ``doc`` right now, or ``None`` if it can.

    Used by the serving route (to 400 bad requests), the maintainer (to
    reject before mutating), and the update-sequence shrinker (which
    deletes ops from a failing sequence and must skip the survivors that
    lost their targets — deterministically, on both substrates).
    """
    size = len(doc)
    if isinstance(op, InsertSubtree):
        try:
            insert_row(doc, op.parent, op.position)
        except ValueError as err:
            return str(err)
        return None
    if isinstance(op, DeleteSubtree):
        if op.index == 0:
            return "cannot delete the document root"
        if not 0 < op.index < size:
            return f"delete index {op.index} out of range"
        return None
    if isinstance(op, ValueChange):
        if not 0 <= op.index < size:
            return f"set_value index {op.index} out of range"
        return None
    return f"unknown update op {op!r}"


# -- object-tree twin ---------------------------------------------------------


def tree_preorder(tree: XMLTree) -> List[XMLElement]:
    """The preorder element list of an object tree.

    Matches the columnar preorder index for the frozen equivalent, so
    ``tree_preorder(tree)[i]`` is the twin of columnar element ``i``.
    """
    elements: List[XMLElement] = []
    stack = [tree.root]
    while stack:
        element = stack.pop()
        elements.append(element)
        stack.extend(reversed(element.children))
    return elements


def _detach_child(parent: XMLElement, child: XMLElement) -> None:
    parent.children.remove(child)
    child.parent = None


def apply_update_tree(
    tree: XMLTree,
    op: UpdateOp,
    text_word_threshold: int = DEFAULT_TEXT_WORD_THRESHOLD,
) -> None:
    """Apply one op to an object :class:`XMLTree`, in place.

    This is the rebuild oracle's substrate: the differential harness
    mutates an object twin in lockstep with the columnar document and
    rebuilds the reference synopsis from it after every step.  Raises
    ``ValueError`` (via the shared validation messages) when the op
    does not apply.
    """
    elements = tree_preorder(tree)
    if isinstance(op, InsertSubtree):
        if not 0 <= op.parent < len(elements):
            raise ValueError(f"insert parent {op.parent} out of range")
        parent = elements[op.parent]
        if not 0 <= op.position <= len(parent.children):
            raise ValueError(
                f"insert position {op.position} out of range "
                f"(parent has {len(parent.children)} children)"
            )
        fragment = parse_string(op.xml, None, text_word_threshold)
        child = fragment.root
        child.parent = parent
        parent.children.insert(op.position, child)
        return
    if isinstance(op, DeleteSubtree):
        if op.index == 0:
            raise ValueError("cannot delete the document root")
        if not 0 < op.index < len(elements):
            raise ValueError(f"delete index {op.index} out of range")
        target = elements[op.index]
        _detach_child(target.parent, target)
        return
    if isinstance(op, ValueChange):
        if not 0 <= op.index < len(elements):
            raise ValueError(f"set_value index {op.index} out of range")
        target = elements[op.index]
        target.set_value(
            _typed_value(op.text, (target.label,), {}, text_word_threshold)
        )
        return
    raise ValueError(f"unknown update op {op!r}")


__all__ = [
    "DeleteSubtree",
    "InsertSubtree",
    "UpdateFormatError",
    "UpdateOp",
    "ValueChange",
    "apply_update_tree",
    "insert_row",
    "parse_fragment",
    "tree_preorder",
    "update_from_dict",
    "update_to_dict",
    "validate_update",
]
