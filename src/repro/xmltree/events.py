"""A pull-based XML event tokenizer for streaming ingestion.

The recursive-descent parser in :mod:`repro.xmltree.parser` materializes
one :class:`~repro.xmltree.tree.XMLElement` per document element — the
right substrate for small fixtures, but a memory ceiling for XMark-scale
corpora.  This module re-layers the same lexical grammar as a *pull*
tokenizer: :func:`iter_events` scans the input once and yields a flat
stream of ``(START, label)`` / ``(ATTR, name, value)`` /
``(TEXT, data)`` / ``(END, label)`` tuples without ever building nodes.
Consumers (the columnar ingestor, primarily) decide what to materialize.

Two implementations share this contract:

* :func:`iter_events` — the production tokenizer.  It scans **bytes**,
  not characters: markup is located with ``bytes.find`` (one C-level
  seek per inter-markup span instead of per-character dispatch), names
  and whitespace runs are matched with compiled byte patterns, and the
  chunk-boundary carry buffer never copies more than the unconsumed
  tail.  Decoding is on demand — only the label, attribute, and text
  spans that survive tokenization are decoded (labels through a
  per-document memo, so a million ``<item>`` elements decode the tag
  once); comments, processing instructions, and DOCTYPEs are skipped as
  raw bytes.  String sources are UTF-8-encoded up front (one C call)
  and scanned on the same byte path.
* :func:`repro.check.oracles.iter_events_str` — the original character
  tokenizer, kept off the production import path as the bit-exact
  parity oracle.  The differential harness pits the two against each
  other on generated (and deliberately corrupted) corpora;
  ``tests/test_columnar.py`` pins stream and error equality.

The tokenizer accepts a whole string or ``bytes``, an open text- or
binary-mode file handle, or any iterable of string/bytes chunks, so
documents can be ingested from disk in bounded memory: the internal
buffer holds only the unconsumed suffix of the current window plus one
lookahead chunk.  Byte chunks may split anywhere — mid-tag, mid-entity,
even mid-way through a multi-byte UTF-8 code point.

Semantics are kept bit-for-bit compatible with the tree parser, which
imports :class:`XMLParseError` and the entity decoder from here:

* the same entity table and numeric-character-reference validation
  (``&#;``-style malformed references raise :class:`XMLParseError`);
* the same comment / processing-instruction / DOCTYPE / CDATA handling;
* the same well-formedness errors (mismatched close tags, unterminated
  elements, trailing content), reported at the same document offsets —
  the byte scanner converts byte positions back to *character* offsets
  when raising, so errors match the string parser even after multi-byte
  code points;
* the same name and whitespace alphabets — ASCII name/space bytes are
  classified with byte tables, and non-ASCII bytes fall back to
  decoding one code point and asking ``str.isalnum`` / ``str.isspace``,
  so ``<café>`` and NBSP-separated attributes lex identically to the
  character parser;
* the same duplicate-attribute rule (last value wins, first position);
* the same mixed-content rule — an element whose children (including
  attribute children) coexist with non-whitespace character data is
  rejected — enforced here so every consumer inherits it.

``TEXT`` events carry entity-decoded character data exactly as the tree
parser accumulates it: one event per contiguous run between markup, plus
one per CDATA section (CDATA is never entity-decoded).
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterator, List, Tuple, Union

from repro.defaults import DEFAULT_CHUNK_SIZE
from repro.errors import InputError

#: Event kinds.  Interned module constants — consumers compare with
#: ``is`` for speed; the values read well in test failures.
START = "start"
ATTR = "attr"
TEXT = "text"
END = "end"

#: One tokenizer event: ``(START, label)``, ``(ATTR, name, value)``,
#: ``(TEXT, data)``, or ``(END, label)``.
XMLEvent = Tuple[str, ...]

#: Anything the tokenizer can scan: a whole document (``str`` or
#: ``bytes``), an open file (text or binary mode), or an iterable of
#: string/bytes chunks.
EventSource = Union[str, bytes, "Iterator[str]", "Iterator[bytes]"]

#: Compact the buffer once this much consumed prefix accumulates, so the
#: resident window stays proportional to the chunk size, not the input.
_COMPACT_THRESHOLD = 1 << 16


class XMLParseError(InputError):
    """Raised on malformed input, with the offset where parsing failed."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_ENTITY_TABLE = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}


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


# -- byte-scan tables ---------------------------------------------------------

#: ASCII name alphabet of ``_Cursor.read_name``: alnum plus ``_-.:@``.
_NAME_RE = re.compile(rb"[0-9A-Za-z_\-.:@]*")

#: ASCII bytes for which ``str.isspace`` is true (note ``\x1c-\x1f``).
_WS_RE = re.compile(rb"[ \t\n\r\x0b\x0c\x1c-\x1f]*")

#: UTF-8 continuation bytes; deleting them from a span leaves one byte
#: per code point, which converts byte offsets to character offsets.
_CONT_BYTES = bytes(range(0x80, 0xC0))

_LT = 0x3C  # <
_GT = 0x3E  # >
_SLASH = 0x2F  # /
_BANG = 0x21  # !
_QMARK = 0x3F  # ?
_AMP = 0x26  # &
_APOS = 0x27  # '
_QUOT = 0x22  # "


def _char_count(data: bytes) -> int:
    """Code points in ``data`` (exact for any UTF-8 byte split)."""
    if data.isascii():
        return len(data)
    return len(data.translate(None, _CONT_BYTES))


def _char_at(buf: bytes, pos: int) -> Tuple[str, int]:
    """Decode one code point at ``pos``: ``(char, byte_length)``.

    Returns ``("", 0)`` when the bytes at ``pos`` are not a valid UTF-8
    sequence, so callers treat malformed bytes as "not a name/space
    character" and let the grammar raise its contextual parse error.
    """
    lead = buf[pos]
    if lead < 0x80:
        return chr(lead), 1
    length = 2 if lead < 0xE0 else 3 if lead < 0xF0 else 4
    seq = buf[pos : pos + length]
    try:
        return seq.decode("utf-8", "surrogatepass"), length
    except UnicodeDecodeError:
        return "", 0


def _byte_chunks(
    source: EventSource, chunk_size: int
) -> Tuple[Iterator[bytes], bool]:
    """Normalize any supported source into ``(byte chunks, bounded)``.

    ``bounded`` marks truly incremental sources (files, chunk
    iterables) whose consumed prefix should be dropped as scanning
    advances; whole-document inputs skip compaction entirely — the
    buffer *is* the input, no copies are ever made.
    """
    if isinstance(source, bytes):
        return iter((source,)), False
    if isinstance(source, str):
        return iter((source.encode("utf-8", "surrogatepass"),)), False
    if isinstance(source, (bytearray, memoryview)):
        return iter((bytes(source),)), False
    read = getattr(source, "read", None)
    if callable(read):

        def _file_chunks() -> Iterator[bytes]:
            while True:
                chunk = read(chunk_size)
                if not chunk:
                    return
                if isinstance(chunk, str):
                    chunk = chunk.encode("utf-8", "surrogatepass")
                yield chunk

        return _file_chunks(), True

    def _encoded(chunks) -> Iterator[bytes]:
        for chunk in chunks:
            if isinstance(chunk, str):
                chunk = chunk.encode("utf-8", "surrogatepass")
            yield chunk

    return _encoded(source), True


def iter_events(
    source: EventSource, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[XMLEvent]:
    """Tokenize an XML document into a flat event stream (byte scan).

    Args:
        source: the document — a whole string or ``bytes``, an open
            file handle (text or binary mode), or any iterable of
            string/bytes chunks.  Byte chunks may split at arbitrary
            positions, including inside multi-byte code points.
        chunk_size: read size used when ``source`` is a file handle.

    Yields:
        ``(START, label)``, ``(ATTR, name, value)``, ``(TEXT, data)``,
        and ``(END, label)`` tuples in document order.  Attribute events
        immediately follow their element's START; every START is paired
        with exactly one END.

    Raises:
        XMLParseError: on malformed input, with the same messages and
            (character) offsets as
            :func:`repro.xmltree.parser.parse_string`.
    """
    chunks, bounded = _byte_chunks(source, chunk_size)
    # The scanner emits events in batches; flattening through
    # ``chain.from_iterable`` keeps the public per-event stream while
    # replacing one Python generator resume per event with one per
    # batch (the batches themselves iterate at C speed).
    return chain.from_iterable(_scan_bytes(chunks, bounded))


#: Events accumulated per scanner batch — bounds transient memory while
#: amortizing generator suspension over hundreds of events.
_BATCH_EVENTS = 512

#: Shared empty attribute sequence for the no-attribute fast path.
_NO_ATTRS: Tuple = ()


def _scan_bytes(
    chunks: Iterator[bytes], bounded: bool
) -> Iterator[List[XMLEvent]]:
    """The byte-level tokenizer core over normalized byte chunks.

    Yields *lists* of events.  Batches split only at event boundaries,
    in document order, and any events scanned before a parse error are
    flushed before the error propagates — so the flattened stream is
    indistinguishable from per-event emission, prefix included.
    """
    buf = b""
    pos = 0
    chars_base = 0  # character count of everything dropped before buf[0]
    exhausted = False
    label_memo: dict = {}  # raw name bytes -> decoded str (per document)

    # -- buffer management (rare path: once per chunk) ---------------------

    def pull() -> bool:
        """Drop the consumed prefix, append the next chunk; False at EOF."""
        nonlocal buf, pos, chars_base, exhausted
        if exhausted:
            return False
        if pos and bounded:
            chars_base += _char_count(buf[:pos])
            buf = buf[pos:]
            pos = 0
        for chunk in chunks:
            if chunk:
                buf += chunk
                return True
        exhausted = True
        return False

    def ensure(length: int) -> None:
        """Buffer at least ``length`` bytes past ``pos`` if possible."""
        while len(buf) - pos < length and pull():
            pass

    def compact() -> None:
        nonlocal buf, pos, chars_base
        chars_base += _char_count(buf[:pos])
        buf = buf[pos:]
        pos = 0

    def tell(at: int) -> int:
        """Character offset of byte position ``at`` (error paths only)."""
        return chars_base + _char_count(buf[:at])

    def fail(message: str, at: int) -> XMLParseError:
        return XMLParseError(message, tell(at))

    # -- the lexer (hot paths: byte-table + C find/match driven) -----------

    def skip_ws() -> None:
        nonlocal pos
        while True:
            end = _WS_RE.match(buf, pos).end()
            if end == len(buf) and not exhausted:
                pos = end
                if pull():
                    continue
                return
            pos = end
            if pos < len(buf) and buf[pos] >= 0x80:
                if len(buf) - pos < 4 and not exhausted:
                    if pull():
                        continue
                char, width = _char_at(buf, pos)
                if width and char.isspace():
                    pos += width
                    continue
            return

    def scan_name() -> str:
        nonlocal pos
        end = pos
        while True:
            end = _NAME_RE.match(buf, end).end()
            if end == len(buf) and not exhausted:
                rel = end - pos
                if pull():
                    end = pos + rel
                    continue
            if end < len(buf) and buf[end] >= 0x80:
                if len(buf) - end < 4 and not exhausted:
                    rel = end - pos
                    if pull():
                        end = pos + rel
                        continue
                char, width = _char_at(buf, end)
                if width and char.isalnum():
                    end += width
                    continue
            break
        if end == pos:
            raise fail("expected a name", pos)
        raw = buf[pos:end]
        pos = end
        name = label_memo.get(raw)
        if name is None:
            name = raw.decode("utf-8", "surrogatepass")
            label_memo[raw] = name
        return name

    def read_until(token: bytes, keep: bool):
        """Consume through ``token``; the bytes before it when ``keep``."""
        nonlocal pos
        scan = pos
        width = len(token)
        while True:
            found = buf.find(token, scan)
            if found >= 0:
                span = buf[pos:found] if keep else None
                pos = found + width
                return span
            rel = len(buf) - pos - (width - 1)
            if rel < 0:
                rel = 0
            if not pull():
                raise fail(
                    f"unterminated section, expected {token.decode()!r}", pos
                )
            scan = pos + rel

    def expect_gt() -> None:
        nonlocal pos
        ensure(1)
        if pos >= len(buf) or buf[pos] != _GT:
            raise fail("expected '>'", pos)
        pos += 1

    def skip_misc() -> None:
        nonlocal pos
        while True:
            skip_ws()
            if len(buf) - pos < 9 and not exhausted:
                ensure(9)
            if buf.startswith(b"<!--", pos):
                pos += 4
                read_until(b"-->", False)
            elif buf.startswith(b"<?", pos):
                pos += 2
                read_until(b"?>", False)
            elif buf.startswith(b"<!DOCTYPE", pos):
                read_until(b">", False)
            else:
                return

    def read_start_tag() -> Tuple[str, List[Tuple[str, str]], bool]:
        """Scan one start tag past its ``<``: ``(label, attrs, closed)``.

        Attributes are deduplicated exactly as the tree parser's dict
        accumulation does: a repeated name keeps its first position
        with the last value.
        """
        nonlocal pos
        pos += 1  # consume "<"
        # Inline the common case of scan_name: a non-empty ASCII name
        # run ending at an ASCII delimiter inside the buffer (no refill,
        # no unicode continuation possible).  Everything else — buffer
        # edge, non-ASCII follower, empty match — takes the full scan.
        end = _NAME_RE.match(buf, pos).end()
        if pos < end < len(buf) and buf[end] < 0x80:
            raw = buf[pos:end]
            label = label_memo.get(raw)
            if label is None:
                label = raw.decode("utf-8", "surrogatepass")
                label_memo[raw] = label
            pos = end
        else:
            label = scan_name()
        # Fast path: no attributes, tag closes right after the name.
        # (``scan_name`` leaves ``pos`` inside the buffer unless the
        # source is exhausted, so the peek needs no refill.)
        if pos + 1 < len(buf):
            head = buf[pos]
            if head == _GT:
                pos += 1
                return label, _NO_ATTRS, False
            if head == _SLASH and buf[pos + 1] == _GT:
                pos += 2
                return label, _NO_ATTRS, True
        names: List[str] = []
        values = {}
        while True:
            skip_ws()
            ensure(1)
            head = buf[pos] if pos < len(buf) else -1
            if head == _GT or head == _SLASH or head == -1:
                break
            name = scan_name()
            skip_ws()
            ensure(1)
            if pos >= len(buf) or buf[pos] != 0x3D:  # "="
                raise fail("expected '='", pos)
            pos += 1
            skip_ws()
            ensure(1)
            quote = buf[pos] if pos < len(buf) else -1
            if quote != _APOS and quote != _QUOT:
                raise fail("attribute value must be quoted", pos)
            pos += 1
            raw = read_until(b"'" if quote == _APOS else b'"', True)
            value = raw.decode("utf-8", "surrogatepass")
            if _AMP in raw:
                value = _decode_entities(value)
            if name not in values:
                names.append(name)
            values[name] = value
        if head == _SLASH:
            ensure(2)
            if buf.startswith(b"/>", pos):
                pos += 2
                return label, [(name, values[name]) for name in names], True
            raise fail("expected '>'", pos)
        if head == _GT:
            pos += 1
            return label, [(name, values[name]) for name in names], False
        raise fail("expected '>'", pos)

    # -- the document grammar ----------------------------------------------

    out: List[XMLEvent] = []
    append = out.append
    try:
        skip_misc()
        if pos >= len(buf) or buf[pos] != _LT:
            raise fail("document has no root element", pos)

        # Per open element: [label, saw a child element or attribute,
        # saw non-whitespace character data].  The flags drive the
        # mixed-content rule the tree parser applies at element close.
        stack: List[List] = []

        label, attributes, closed = read_start_tag()
        append((START, label))
        for name, value in attributes:
            append((ATTR, name, value))
        if closed:
            append((END, label))
        else:
            stack.append([label, bool(attributes), False])

        while stack:
            if len(out) >= _BATCH_EVENTS:
                yield out
                out = []
                append = out.append
            if bounded and pos > _COMPACT_THRESHOLD and pos * 2 >= len(buf):
                compact()
            if len(buf) - pos < 9 and not exhausted:
                ensure(9)
            if pos >= len(buf):
                raise fail(f"unterminated element <{stack[-1][0]}>", pos)
            if buf[pos] == _LT:
                nxt = buf[pos + 1] if pos + 1 < len(buf) else -1
                if nxt == _SLASH:
                    pos += 2
                    # Fast path: a memoized name directly before ">" —
                    # matching close tags always hit once their start tag
                    # interned the name bytes.  Anything else (chunk
                    # boundary, whitespace, bad name) falls back to the
                    # scanning path.  Error positions are identical: a
                    # mismatch reports right after the name (``gt`` is
                    # exactly where ``scan_name`` would leave ``pos``).
                    gt = buf.find(_GT, pos)
                    closing = (
                        label_memo.get(buf[pos:gt]) if gt >= 0 else None
                    )
                    if closing is not None:
                        entry = stack.pop()
                        if closing != entry[0]:
                            raise fail(
                                f"mismatched close tag </{closing}> "
                                f"for <{entry[0]}>",
                                gt,
                            )
                        pos = gt + 1
                    else:
                        closing = scan_name()
                        entry = stack.pop()
                        if closing != entry[0]:
                            raise fail(
                                f"mismatched close tag </{closing}> "
                                f"for <{entry[0]}>",
                                pos,
                            )
                        skip_ws()
                        expect_gt()
                    if entry[2] and entry[1]:
                        raise fail(
                            f"element <{entry[0]}> mixes character data "
                            "with child elements",
                            pos,
                        )
                    append((END, closing))
                elif nxt == _BANG and buf.startswith(b"<!--", pos):
                    pos += 4
                    read_until(b"-->", False)
                elif nxt == _BANG and buf.startswith(b"<![CDATA[", pos):
                    pos += 9
                    raw = read_until(b"]]>", True)
                    if raw:
                        data = raw.decode("utf-8", "surrogatepass")
                        if data.strip():
                            stack[-1][2] = True
                        append((TEXT, data))
                elif nxt == _QMARK:
                    pos += 2
                    read_until(b"?>", False)
                else:
                    stack[-1][1] = True
                    label, attributes, closed = read_start_tag()
                    append((START, label))
                    for name, value in attributes:
                        append((ATTR, name, value))
                    if closed:
                        append((END, label))
                    else:
                        stack.append([label, bool(attributes), False])
            else:
                found = buf.find(b"<", pos)
                while found < 0:
                    rel = len(buf) - pos
                    if not pull():
                        break
                    found = buf.find(b"<", pos + rel)
                if found < 0:
                    raise fail(f"unterminated element <{stack[-1][0]}>", pos)
                raw = buf[pos:found]
                pos = found
                run = raw.decode("utf-8", "surrogatepass")
                if run.strip():
                    stack[-1][2] = True
                append((TEXT, _decode_entities(run) if _AMP in raw else run))

        skip_misc()
        ensure(1)
        if pos < len(buf):
            raise fail("trailing content after root element", pos)
    except XMLParseError:
        # Deliver every event scanned before the error, then re-raise on
        # the consumer's next pull — the flattened stream shows the same
        # prefix-then-error behavior as per-event emission.
        if out:
            yield out
        raise
    if out:
        yield out
