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

from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import InputError
from repro.xmltree.tree import XMLElement, XMLTree
from repro.xmltree.types import ValueType, tokenize_text

#: Keys of a type map: either a bare tag or a root-to-element label path.
TypeKey = Union[str, Tuple[str, ...]]

_ENTITY_TABLE = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

#: Default number of whitespace-separated words at which character data is
#: treated as free TEXT rather than a short STRING.
DEFAULT_TEXT_WORD_THRESHOLD = 8


class XMLParseError(InputError):
    """Raised on malformed input, with the offset where parsing failed."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


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


def _decode_char_reference(digits: str, base: int, position: int) -> str:
    """Decode ``&#n;`` / ``&#xh;`` digits, rejecting malformed references.

    Empty, non-numeric, or out-of-range code points surface as
    :class:`XMLParseError` (found by fuzzing: ``&#;`` previously escaped
    as a raw ``ValueError``).
    """
    try:
        return chr(int(digits, base))
    except (ValueError, OverflowError):
        raise XMLParseError(
            f"malformed character reference &#{digits};", position
        ) from None


def _decode_entities(raw: str) -> str:
    """Replace the five predefined XML entities and numeric references."""
    if "&" not in raw:
        return raw
    pieces = []
    index = 0
    while index < len(raw):
        amp = raw.find("&", index)
        if amp < 0:
            pieces.append(raw[index:])
            break
        pieces.append(raw[index:amp])
        semi = raw.find(";", amp)
        if semi < 0:
            raise XMLParseError("unterminated entity reference", amp)
        name = raw[amp + 1 : semi]
        if name.startswith("#x") or name.startswith("#X"):
            pieces.append(_decode_char_reference(name[2:], 16, amp))
        elif name.startswith("#"):
            pieces.append(_decode_char_reference(name[1:], 10, amp))
        elif name in _ENTITY_TABLE:
            pieces.append(_ENTITY_TABLE[name])
        else:
            raise XMLParseError(f"unknown entity &{name};", amp)
        index = semi + 1
    return "".join(pieces)


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


def _typed_value(
    text: str,
    label_path: Tuple[str, ...],
    type_map: Mapping[TypeKey, ValueType],
    text_word_threshold: int,
):
    """Convert raw character data into a typed element value."""
    forced = type_map.get(label_path, type_map.get(label_path[-1]))
    if forced is ValueType.NULL:
        return None
    if forced is ValueType.NUMERIC:
        return int(text.strip())
    if forced is ValueType.STRING:
        return text.strip()
    if forced is ValueType.TEXT:
        return tokenize_text(text)
    stripped = text.strip()
    if not stripped:
        return None
    try:
        return int(stripped)
    except ValueError:
        pass
    if len(stripped.split()) >= text_word_threshold:
        return tokenize_text(stripped)
    return stripped


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
