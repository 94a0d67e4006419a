"""A small, self-contained XML parser for the document model.

The parser is a recursive-descent implementation over the subset of XML
needed by this system: elements, nested elements, character data, XML
declarations, comments, and CDATA sections.  Attributes are parsed and
exposed as child elements (attribute ``a="v"`` of ``<e>`` becomes a child
``<@a>`` with STRING value ``v``), which keeps the downstream data model —
a pure node-labeled tree — faithful to the paper.

Element values are typed on the way in.  The caller can force types per
tag or per label path via ``type_map``; otherwise a heuristic applies:
integer character data becomes NUMERIC, character data with at least
``text_word_threshold`` words becomes TEXT (a term set), and anything else
becomes STRING.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.xmltree.events import XMLParseError, _decode_entities
from repro.xmltree.tree import XMLElement, XMLTree
from repro.xmltree.types import (
    DEFAULT_TEXT_WORD_THRESHOLD,
    TypeKey,
    ValueType,
    _typed_value,
)


class _Cursor:
    """Mutable scan state over the input string."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise XMLParseError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        text = self.text
        while self.pos < len(text) and text[self.pos].isspace():
            self.pos += 1

    def read_until(self, token: str) -> str:
        end = self.text.find(token, self.pos)
        if end < 0:
            raise XMLParseError(f"unterminated section, expected {token!r}", self.pos)
        chunk = self.text[self.pos : end]
        self.pos = end + len(token)
        return chunk

    def read_name(self) -> str:
        start = self.pos
        text = self.text
        while self.pos < len(text) and (
            text[self.pos].isalnum() or text[self.pos] in "_-.:@"
        ):
            self.pos += 1
        if self.pos == start:
            raise XMLParseError("expected a name", self.pos)
        return text[start : self.pos]


def _skip_misc(cursor: _Cursor) -> None:
    """Skip whitespace, comments, processing instructions, and doctypes."""
    while True:
        cursor.skip_whitespace()
        if cursor.startswith("<!--"):
            cursor.pos += 4
            cursor.read_until("-->")
        elif cursor.startswith("<?"):
            cursor.pos += 2
            cursor.read_until("?>")
        elif cursor.startswith("<!DOCTYPE"):
            cursor.read_until(">")
        else:
            return


def _parse_attributes(cursor: _Cursor) -> Dict[str, str]:
    attributes: Dict[str, str] = {}
    while True:
        cursor.skip_whitespace()
        char = cursor.peek()
        if char in (">", "/", ""):
            return attributes
        name = cursor.read_name()
        cursor.skip_whitespace()
        cursor.expect("=")
        cursor.skip_whitespace()
        quote = cursor.peek()
        if quote not in ("'", '"'):
            raise XMLParseError("attribute value must be quoted", cursor.pos)
        cursor.pos += 1
        attributes[name] = _decode_entities(cursor.read_until(quote))


def _parse_element(
    cursor: _Cursor,
    parent_path: Tuple[str, ...],
    type_map: Mapping[TypeKey, ValueType],
    text_word_threshold: int,
) -> XMLElement:
    cursor.expect("<")
    label = cursor.read_name()
    label_path = parent_path + (label,)
    element = XMLElement(label)
    for attr_name, attr_value in _parse_attributes(cursor).items():
        element.add("@" + attr_name, attr_value)
    cursor.skip_whitespace()
    if cursor.startswith("/>"):
        cursor.pos += 2
        return element
    cursor.expect(">")

    text_chunks = []
    while True:
        if cursor.eof():
            raise XMLParseError(f"unterminated element <{label}>", cursor.pos)
        if cursor.startswith("</"):
            cursor.pos += 2
            closing = cursor.read_name()
            if closing != label:
                raise XMLParseError(
                    f"mismatched close tag </{closing}> for <{label}>", cursor.pos
                )
            cursor.skip_whitespace()
            cursor.expect(">")
            break
        if cursor.startswith("<!--"):
            cursor.pos += 4
            cursor.read_until("-->")
        elif cursor.startswith("<![CDATA["):
            cursor.pos += 9
            text_chunks.append(cursor.read_until("]]>"))
        elif cursor.startswith("<?"):
            cursor.pos += 2
            cursor.read_until("?>")
        elif cursor.peek() == "<":
            element.append_child(
                _parse_element(cursor, label_path, type_map, text_word_threshold)
            )
        else:
            end = cursor.text.find("<", cursor.pos)
            if end < 0:
                raise XMLParseError(f"unterminated element <{label}>", cursor.pos)
            text_chunks.append(_decode_entities(cursor.text[cursor.pos : end]))
            cursor.pos = end

    raw_text = "".join(text_chunks)
    if raw_text.strip():
        if element.children:
            raise XMLParseError(
                f"element <{label}> mixes character data with child elements",
                cursor.pos,
            )
        element.set_value(
            _typed_value(raw_text, label_path, type_map, text_word_threshold)
        )
    return element


def parse_string(
    text: str,
    type_map: Optional[Mapping[TypeKey, ValueType]] = None,
    text_word_threshold: int = DEFAULT_TEXT_WORD_THRESHOLD,
) -> XMLTree:
    """Parse an XML document from a string into an :class:`XMLTree`.

    Args:
        text: the document source.
        type_map: optional mapping from a tag (``"year"``) or a full label
            path (``("site", "item", "price")``) to the :class:`ValueType`
            that element's character data should be parsed as.  Without an
            entry, a heuristic applies (integers → NUMERIC, long text →
            TEXT, otherwise STRING).
        text_word_threshold: word count at which untyped character data is
            promoted from STRING to TEXT.

    Returns:
        The parsed document.

    Raises:
        XMLParseError: on malformed input.
    """
    cursor = _Cursor(text)
    _skip_misc(cursor)
    if cursor.peek() != "<":
        raise XMLParseError("document has no root element", cursor.pos)
    root = _parse_element(cursor, (), type_map or {}, text_word_threshold)
    _skip_misc(cursor)
    if not cursor.eof():
        raise XMLParseError("trailing content after root element", cursor.pos)
    return XMLTree(root)


def parse_document(
    path: str,
    type_map: Optional[Mapping[TypeKey, ValueType]] = None,
    text_word_threshold: int = DEFAULT_TEXT_WORD_THRESHOLD,
) -> XMLTree:
    """Parse an XML document from a file (see :func:`parse_string`)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_string(handle.read(), type_map, text_word_threshold)
