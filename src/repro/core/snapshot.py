"""The binary mmap snapshot format for XCluster synopses.

JSON (:mod:`repro.core.serialization`) remains the portable interchange
format, but it is cold-start-bound: every consumer re-parses the whole
blob and rebuilds the full Python object graph before the first
estimate.  A *snapshot* is the serving-tier format: a single buffer of
little-endian sections laid out so a file can be opened with ``mmap``
and decoded **lazily per section** —

* the header carries magic bytes (format auto-detection; the last byte
  is the format version) and a section table of ``(id, stored length,
  raw length)`` entries, bounds-checked up front so truncation is
  caught at open time;
* a section is stored deflated (stdlib ``zlib``) when that is smaller
  and raw otherwise; a deflated section is inflated once, on first use,
  into exactly its declared raw length, and a declared length beyond
  deflate's 1032:1 ceiling is refused before inflating;
* every section and every summary payload stores each field as one
  *column*: a width byte (1, 2, 4 or 8), then the values at that width,
  the narrowest that holds the column's extremes, signed only where the
  field can be negative.  Doubles stay 8 bytes, raw or dictionary-coded
  (see :func:`_put_doubles`), so every float round-trips bit for bit;
* the node and edge tables are decoded eagerly (the graph must exist to
  serve anything) in the same canonical order the JSON decoder uses, so
  a snapshot-loaded synopsis replays every float accumulation
  bit-for-bit;
* the label and vocabulary pools are front-coded (see
  :func:`_put_strings`);
* per-family value-summary payloads (histogram buckets, PST node
  columns, EBTH terms and runs) live in family
  sections and are **deferred**: each node parks a decode thunk
  (:meth:`~repro.core.synopsis.SynopsisNode.defer_summary`) pointing at
  its payload, and only summaries a workload actually touches are ever
  decoded.  A payload runs to the next payload of its section, so a
  column count that disagrees with the payload's bytes is caught.  The
  vocabulary and the family sections are inflated only when the first
  summary that needs them is decoded.

Round-tripping is bit-exact: ``synopsis_to_dict(load(save(s)))``
equals ``synopsis_to_dict(s)`` for every summary family.  Malformed
input — bad magic, another format version, truncated sections, corrupt
deflate streams, corrupt columns — raises
:class:`~repro.core.serialization.SynopsisFormatError`, whether the
corruption surfaces at open time or at first lazy access.
"""

from __future__ import annotations

import mmap
import sys
import zlib
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.serialization import SynopsisFormatError, _find_vocabulary
from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.values.ebth import EndBiasedTermHistogram
from repro.values.histogram import Histogram, HistogramBucket
from repro.values.pst import PrunedSuffixTree
from repro.values.rle import RunLengthBitmap
from repro.values.summary import (
    HistogramSummary,
    StringSummary,
    TextSummary,
    ValueSummary,
)
from repro.values.termvector import Vocabulary
from repro.xmltree.types import ValueType

#: Leading bytes of every snapshot; the final byte is the format version.
SNAPSHOT_MAGIC = b"XCSNAP\x00\x03"

#: Deflate's best case: a 258-byte match costs at least 2 bits (a 1-bit
#: length code and a 1-bit distance code), so a byte in gives at most
#: 1032 out.  A section claiming more is corrupt, and refusing it bounds
#: what inflating one may allocate.
_MAX_INFLATE_RATIO = 1032

# Section ids, in file order.  A summary's kind code is the id of the
# section holding its payload (0 = no summary).
_SEC_META = 1
_SEC_LABELS = 2
_SEC_VOCAB = 3
_SEC_NODES = 4
_SEC_EDGES = 5
_SEC_HIST = 6
# Id 7 held the retired wavelet family's payloads.  It is still written,
# empty, so the section table keeps its layout and no id is reused.
_SEC_RETIRED = 7
_SEC_PST = 8
_SEC_EBTH = 9

_SECTION_NAMES = {
    _SEC_META: "meta",
    _SEC_LABELS: "labels",
    _SEC_VOCAB: "vocabulary",
    _SEC_NODES: "nodes",
    _SEC_EDGES: "edges",
    _SEC_HIST: "histogram",
    _SEC_RETIRED: "retired",
    _SEC_PST: "pst",
    _SEC_EBTH: "ebth",
}

_VALUE_TYPE_CODES = {
    ValueType.NULL: 0,
    ValueType.NUMERIC: 1,
    ValueType.STRING: 2,
    ValueType.TEXT: 3,
}
_VALUE_TYPES_BY_CODE = {code: vt for vt, code in _VALUE_TYPE_CODES.items()}


def _typecodes(candidates: str) -> Dict[int, str]:
    """Column width in bytes -> the first array typecode of that size."""
    by_width: Dict[int, str] = {}
    for code in candidates:
        by_width.setdefault(array(code).itemsize, code)
    return {width: by_width[width] for width in (1, 2, 4, 8)}


_UNSIGNED = _typecodes("BHILQ")
_SIGNED = _typecodes("bhilq")
_BIG_ENDIAN = sys.byteorder == "big"
if array("d").itemsize != 8:
    raise ImportError("snapshots need 8-byte C doubles")


def _little_endian(column: array) -> bytes:
    if _BIG_ENDIAN:
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


# -- encoding ----------------------------------------------------------------


def _put_ints(out: bytearray, values: Sequence[int], signed: bool = False) -> None:
    """Append one integer column: its width byte, then ``values``."""
    low, high = (min(values), max(values)) if values else (0, 0)
    for width, typecode in (_SIGNED if signed else _UNSIGNED).items():
        bound = 1 << (8 * width - signed)
        if (-bound if signed else 0) <= low and high < bound:
            out.append(width)
            out += _little_endian(array(typecode, values))
            return
    raise SynopsisFormatError(f"value outside snapshot range: [{low}, {high}]")


def _put_doubles(out: bytearray, values: Sequence[float]) -> None:
    """Append one column of doubles, raw or dictionary-coded, whichever
    is smaller.  Raw is a zero width byte and the 8-byte values.  Coded
    is an integer column holding the distinct count then each value's
    index, followed by the distinct values.  The dictionary is keyed by
    bit pattern, so ``-0.0`` and NaNs decode exactly as written."""
    doubles = array("d", values)
    distinct: Dict[int, int] = {}
    codes = [distinct.setdefault(bits, len(distinct))
             for bits in memoryview(doubles).cast("B").cast(_UNSIGNED[8])]
    coded = bytearray()
    _put_ints(coded, [len(distinct)] + codes)
    coded += _little_endian(array(_UNSIGNED[8], distinct))
    if len(coded) < 1 + 8 * len(codes):
        out += coded
    else:
        out.append(0)
        out += _little_endian(doubles)


def _put_strings(out: bytearray, strings: Sequence[str]) -> None:
    """Append a front-coded string pool: the count, then per string the
    length of the UTF-8 prefix it shares with its predecessor and the
    length of the rest, then the rests as one blob.  Prefixes are shared
    over bytes, so one may end inside a code point."""
    shared: List[int] = []
    rests: List[bytes] = []
    previous = b""
    for text in strings:
        term = text.encode("utf-8")
        limit = min(len(previous), len(term))
        size = 0
        while size < limit and previous[size] == term[size]:
            size += 1
        shared.append(size)
        rests.append(term[size:])
        previous = term
    _put_ints(out, [len(rests)])
    _put_ints(out, shared)
    _put_ints(out, list(map(len, rests)))
    out += b"".join(rests)


def _encode_histogram(summary: HistogramSummary, out: bytearray) -> None:
    buckets = summary.histogram.buckets
    _put_ints(out, [len(buckets)])
    _put_ints(out, [bucket.lo for bucket in buckets], signed=True)
    _put_ints(out, [bucket.hi for bucket in buckets], signed=True)
    _put_doubles(out, [bucket.count for bucket in buckets])


def _encode_pst(summary: StringSummary, out: bytearray) -> None:
    tree = summary.pst
    counts = tree.counts
    # The substrings are prefix-closed, so sorted order is pre-order
    # with each parent's children sorted by symbol: the bytes depend on
    # the counts alone.
    order = sorted(counts)
    fanout = Counter([substring[:-1] for substring in order])
    orphans = sum(n for parent, n in fanout.items() if parent and parent not in counts)
    if orphans:
        raise SynopsisFormatError(
            f"cannot encode PST: {orphans} substrings lack an indexed parent"
        )
    _put_ints(out, [tree.max_depth, tree.string_count, len(order)])
    _put_ints(out, [ord(substring[-1]) for substring in order])
    _put_ints(out, [fanout.get(substring, 0) for substring in order])
    _put_ints(out, list(map(counts.__getitem__, order)))


def _encode_ebth(summary: TextSummary, out: bytearray) -> None:
    ebth = summary.ebth
    exact = sorted(ebth.exact.items())
    runs = ebth.bitmap.runs
    _put_ints(out, [len(exact), len(runs), ebth.bucket_member_count, ebth.count])
    _put_ints(out, [term_id for term_id, _ in exact])
    _put_doubles(out, [ebth.bucket_average] + [frequency for _, frequency in exact])
    _put_ints(out, [start for start, _ in runs])
    _put_ints(out, [end - start + 1 for start, end in runs])


#: Summary family -> (kind = payload section id, payload encoder).
_ENCODERS = (
    (HistogramSummary, _SEC_HIST, _encode_histogram),
    (StringSummary, _SEC_PST, _encode_pst),
    (TextSummary, _SEC_EBTH, _encode_ebth),
)


def _encode_summary(
    summary: Optional[ValueSummary], sections: Dict[int, bytearray]
) -> Tuple[int, int]:
    """Append ``summary``'s payload to its family section; return the
    node table's (kind, payload offset)."""
    if summary is None:
        return 0, 0
    for family, kind, encode in _ENCODERS:
        if isinstance(summary, family):
            offset = len(sections[kind])
            encode(summary, sections[kind])
            return kind, offset
    raise SynopsisFormatError(
        f"cannot encode summary {type(summary).__name__}"
    )


def snapshot_to_bytes(synopsis: XClusterSynopsis) -> bytes:
    """Encode a synopsis into one self-contained snapshot buffer."""
    vocabulary = _find_vocabulary(synopsis)
    sections: Dict[int, bytearray] = {sid: bytearray() for sid in _SECTION_NAMES}
    labels: Dict[str, int] = {}
    rows: List[tuple] = []
    edges: List[tuple] = []
    try:
        for node in sorted(synopsis, key=lambda node: node.node_id):
            kind, offset = _encode_summary(node.vsumm, sections)
            rows.append((
                node.node_id,
                labels.setdefault(node.label, len(labels)),
                _VALUE_TYPE_CODES[node.value_type],
                kind,
                node.count,
                offset,
            ))
            # Canonical child order (sorted, as in the JSON encoder):
            # the decoder's edge insertion order — and therefore every
            # estimate's accumulation order — is then load-path
            # independent.
            edges.extend(
                (node.node_id, child_id, node.children[child_id])
                for child_id in sorted(node.children)
            )
        root_id = -1 if synopsis.root_id is None else synopsis.root_id
        _put_ints(sections[_SEC_META], [root_id, len(rows), len(edges)], signed=True)
        for field in range(6):
            _put_ints(sections[_SEC_NODES], [row[field] for row in rows])
        for field in range(2):
            _put_ints(sections[_SEC_EDGES], [edge[field] for edge in edges])
        _put_doubles(sections[_SEC_EDGES], [edge[2] for edge in edges])
    except (TypeError, OverflowError) as err:
        raise SynopsisFormatError(f"value outside snapshot range: {err}") from err
    _put_strings(sections[_SEC_LABELS], list(labels))
    _put_strings(
        sections[_SEC_VOCAB], list(vocabulary) if vocabulary is not None else []
    )

    return _pack_sections(sections)


def _pack_sections(sections: Dict[int, bytes]) -> bytes:
    """The snapshot file of ``sections`` (id -> raw bytes, in file
    order): the magic, the section table, then each section stored
    deflated when that is smaller and raw otherwise."""
    stored: Dict[int, bytes] = {}
    for section_id, payload in sections.items():
        packed = zlib.compress(payload)
        stored[section_id] = packed if len(packed) < len(payload) else payload
    out = bytearray(SNAPSHOT_MAGIC)
    _put_ints(out, [len(stored)])
    _put_ints(out, list(stored))
    _put_ints(out, list(map(len, stored.values())))
    _put_ints(out, list(map(len, sections.values())))
    for data in stored.values():
        out += data
    return bytes(out)


def save_snapshot(synopsis: XClusterSynopsis, path: str) -> None:
    """Write a synopsis to a binary snapshot file."""
    data = snapshot_to_bytes(synopsis)
    with open(path, "wb") as handle:
        handle.write(data)


# -- decoding ----------------------------------------------------------------


class _Section:
    """One section: ``stored`` bytes at ``offset`` in the snapshot
    buffer holding ``length`` raw bytes, deflated when ``stored <
    length`` and then inflated on first use."""

    __slots__ = ("buffer", "offset", "length", "stored", "_window")

    def __init__(
        self, buffer, offset: int, length: int, stored: Optional[int] = None
    ) -> None:
        self.buffer = buffer
        self.offset = offset
        self.length = length
        self.stored = length if stored is None else stored
        # One attribute, set once, so concurrent first uses never see a
        # half-updated window.
        self._window = (buffer, offset) if self.stored == length else None

    def window(self) -> Tuple[object, int]:
        """The buffer holding the section's raw bytes, and their offset.

        Inflation never produces more than the declared raw length, and
        must produce exactly that.
        """
        window = self._window
        if window is None:
            inflater = zlib.decompressobj()
            packed = self.buffer[self.offset:self.offset + self.stored]
            try:
                data = inflater.decompress(packed, self.length)
            except zlib.error as err:
                raise SynopsisFormatError(
                    f"corrupt deflated section: {err}"
                ) from err
            if len(data) != self.length or not inflater.eof or inflater.unused_data:
                raise SynopsisFormatError(
                    f"a deflated section does not inflate to its declared "
                    f"{self.length} bytes"
                )
            window = self._window = (data, 0)
        return window


class _Reader:
    """A cursor over section-relative ``[start, end)`` that reads
    columns and checks every bound against that window."""

    __slots__ = ("buffer", "at", "end")

    def __init__(self, section: _Section, start: int = 0, end: Optional[int] = None):
        self.buffer, offset = section.window()
        self.at = offset + start
        self.end = offset + (section.length if end is None else end)

    def take(self, size: int) -> bytes:
        start = self.at
        if size < 0 or start + size > self.end:
            raise SynopsisFormatError(
                f"a {size}-byte column overruns its payload at {start}"
            )
        self.at = start + size
        return self.buffer[start:self.at]

    def _column(self, typecode: str, count: int) -> array:
        column = array(typecode)
        column.frombytes(self.take(count * column.itemsize))
        if _BIG_ENDIAN:
            column.byteswap()
        return column

    def ints(self, count: int, signed: bool = False) -> array:
        width = self.take(1)[0]
        typecode = (_SIGNED if signed else _UNSIGNED).get(width)
        if typecode is None:
            raise SynopsisFormatError(f"corrupt column width code {width}")
        return self._column(typecode, count)

    def doubles(self, count: int) -> Sequence[float]:
        if self.at < self.end and self.buffer[self.at] == 0:
            self.at += 1
            return self._column("d", count)
        codes = self.ints(count + 1)
        table = self._column("d", codes[0])
        if count and max(codes[1:]) >= len(table):
            raise SynopsisFormatError("double column index outside its dictionary")
        return [table[code] for code in codes[1:]]

    def done(self) -> None:
        if self.at != self.end:
            raise SynopsisFormatError(
                f"{self.end - self.at} bytes left over after the columns"
            )


def _read_strings(section: _Section) -> List[str]:
    reader = _Reader(section)
    (count,) = reader.ints(1)
    shared = reader.ints(count)
    rests = reader.ints(count)
    blob = reader.take(sum(rests))
    reader.done()
    strings: List[str] = []
    term = b""
    start = 0
    try:
        for size, rest in zip(shared, rests):
            if size > len(term):
                raise SynopsisFormatError(
                    f"string pool prefix of {size} bytes outruns its "
                    f"{len(term)}-byte predecessor"
                )
            term = term[:size] + blob[start:start + rest]
            start += rest
            strings.append(str(term, "utf-8"))
    except UnicodeDecodeError as err:
        raise SynopsisFormatError(f"corrupt string pool: {err}") from err
    return strings


def _decode_histogram_payload(reader: _Reader) -> HistogramSummary:
    (count,) = reader.ints(1)
    buckets = zip(
        reader.ints(count, signed=True),
        reader.ints(count, signed=True),
        reader.doubles(count),
    )
    reader.done()
    return HistogramSummary(Histogram([HistogramBucket(*b) for b in buckets]))


def _decode_pst_payload(reader: _Reader) -> StringSummary:
    max_depth, string_count, node_count = reader.ints(3)
    nodes = zip(
        reader.ints(node_count), reader.ints(node_count), reader.ints(node_count)
    )
    reader.done()
    if max_depth < 1:
        raise SynopsisFormatError(f"corrupt PST header (max_depth={max_depth})")
    tree = PrunedSuffixTree(max_depth)
    tree.string_count = string_count
    counts = tree.counts
    # Pre-order reconstruction: the stack tracks how many children each
    # open node still expects.
    stack = [("", node_count and 2**63)]
    for codepoint, child_count, count in nodes:
        while stack and stack[-1][1] == 0:
            stack.pop()
        if not stack:
            raise SynopsisFormatError("PST payload has orphan trie nodes")
        parent, remaining = stack.pop()
        try:
            substring = parent + chr(codepoint)
        except (ValueError, OverflowError) as err:
            raise SynopsisFormatError(
                f"corrupt PST symbol {codepoint}"
            ) from err
        counts[substring] = count
        if remaining - 1 > 0:
            stack.append((parent, remaining - 1))
        if child_count:
            stack.append((substring, child_count))
    for parent, remaining in stack:
        if parent and remaining > 0:
            raise SynopsisFormatError("PST payload truncated mid-subtree")
    if len(counts) != node_count:
        raise SynopsisFormatError("PST payload repeats a trie node")
    return StringSummary(tree)


def _decode_ebth_payload(reader: _Reader, vocabulary: Vocabulary) -> TextSummary:
    exact_count, run_count, bucket_member_count, count = reader.ints(4)
    term_ids = reader.ints(exact_count)
    frequencies = reader.doubles(exact_count + 1)
    starts = reader.ints(run_count)
    lengths = reader.ints(run_count)
    reader.done()
    try:
        bitmap = RunLengthBitmap(
            [(start, start + length - 1) for start, length in zip(starts, lengths)]
        )
    except ValueError as err:
        raise SynopsisFormatError(f"corrupt EBTH bitmap: {err}") from err
    return TextSummary(
        EndBiasedTermHistogram(
            vocabulary,
            dict(zip(term_ids, frequencies[1:])),
            bitmap,
            frequencies[0],
            bucket_member_count,
            count,
        )
    )


class _VocabularyCell:
    """Decode-once holder for the shared vocabulary section.

    Every EBTH thunk routes through one cell, so the term pool is
    decoded at most once per snapshot — on the first TEXT-summary
    access — and all text summaries share a single id space, exactly as
    the JSON loader arranges.
    """

    __slots__ = ("_section", "_vocabulary")

    def __init__(self, section: _Section) -> None:
        self._section = section
        self._vocabulary: Optional[Vocabulary] = None

    def load(self) -> Vocabulary:
        if self._vocabulary is None:
            vocabulary = Vocabulary()
            vocabulary.intern_all(_read_strings(self._section))
            self._vocabulary = vocabulary
        return self._vocabulary


_DECODERS = {
    _SEC_HIST: _decode_histogram_payload,
    _SEC_PST: _decode_pst_payload,
}


def _summary_thunk(
    kind: int, section: _Section, start: int, end: int, vocab_cell: _VocabularyCell
) -> Callable[[], ValueSummary]:
    def guarded() -> ValueSummary:
        # Corrupt payload values surface from summary constructors as
        # assorted ValueErrors/KeyErrors; callers (lazy access, eager
        # loads, the invariant auditor) are promised a format error.
        reader = _Reader(section, start, end)
        try:
            if kind == _SEC_EBTH:
                return _decode_ebth_payload(reader, vocab_cell.load())
            return _DECODERS[kind](reader)
        except SynopsisFormatError:
            raise
        except (ValueError, KeyError, TypeError, OverflowError) as err:
            raise SynopsisFormatError(
                f"corrupt summary payload at offset {start}: {err}"
            ) from err

    return guarded


def synopsis_from_snapshot(
    buffer, verify: bool = True, lazy: bool = True
) -> XClusterSynopsis:
    """Rebuild a synopsis from a snapshot buffer (bytes or mmap).

    Args:
        buffer: the snapshot bytes; an ``mmap.mmap`` works directly, so
            the value-summary payload sections stay on disk until first
            access.
        verify: validate graph invariants after decoding (the JSON
            loader's contract); pass ``False`` for relaxed auditing
            loads.
        lazy: defer per-node value-summary decoding to first ``vsumm``
            access (the serving hot path).  ``False`` decodes every
            payload eagerly, surfacing any payload corruption here.
    """
    sections = _section_table(buffer)
    meta = _Reader(sections[_SEC_META])
    root_id, node_count, edge_count = meta.ints(3, signed=True)
    meta.done()
    table = _Reader(sections[_SEC_NODES])
    ids, label_refs, type_codes, kinds, counts, offsets = (
        table.ints(node_count) for _ in range(6)
    )
    table.done()
    table = _Reader(sections[_SEC_EDGES])
    parents, children, averages = (
        table.ints(edge_count), table.ints(edge_count), table.doubles(edge_count)
    )
    table.done()

    labels = _read_strings(sections[_SEC_LABELS])
    vocab_cell = _VocabularyCell(sections[_SEC_VOCAB])
    # Payloads are written back to back, so each runs to the next
    # start in its section.
    ends: Dict[int, Dict[int, int]] = {}
    for _, kind, _ in _ENCODERS:
        starts = sorted({at for k, at in zip(kinds, offsets) if k == kind})
        ends[kind] = dict(zip(starts, starts[1:] + [sections[kind].length]))

    synopsis = XClusterSynopsis()
    nodes_by_id: Dict[int, SynopsisNode] = synopsis.nodes
    for node_id, label_ref, type_code, kind, count, offset in zip(
        ids, label_refs, type_codes, kinds, counts, offsets
    ):
        if label_ref >= len(labels):
            raise SynopsisFormatError(
                f"node {node_id} references missing label {label_ref}"
            )
        value_type = _VALUE_TYPES_BY_CODE.get(type_code)
        if value_type is None:
            raise SynopsisFormatError(
                f"node {node_id} carries unknown value type {type_code}"
            )
        node = SynopsisNode(node_id, labels[label_ref], value_type, count)
        if node_id in nodes_by_id:
            raise SynopsisFormatError(f"duplicate node id {node_id}")
        if kind:
            if kind not in ends:
                raise SynopsisFormatError(
                    f"node {node_id} carries unknown summary kind {kind}"
                )
            thunk = _summary_thunk(
                kind, sections[kind], offset, ends[kind][offset], vocab_cell
            )
            if lazy:
                node.defer_summary(thunk)
            else:
                node.vsumm = thunk()
        nodes_by_id[node_id] = node
    synopsis._next_id = max(nodes_by_id, default=-1) + 1

    for parent_id, child_id, average in zip(parents, children, averages):
        parent = nodes_by_id.get(parent_id)
        child = nodes_by_id.get(child_id)
        if parent is None or child is None:
            raise SynopsisFormatError(
                f"edge {parent_id}->{child_id} targets a missing node"
            )
        try:
            synopsis.add_edge(parent, child, average)
        except ValueError as err:
            raise SynopsisFormatError(
                f"edge {parent_id}->{child_id}: {err}"
            ) from err

    if root_id >= 0:
        if root_id not in nodes_by_id:
            raise SynopsisFormatError(f"root id {root_id} missing")
        synopsis.root_id = root_id
    if verify:
        synopsis.validate()
    return synopsis


def _section_table(buffer) -> Dict[int, _Section]:
    size = len(buffer)
    stem = len(SNAPSHOT_MAGIC) - 1
    if size <= stem or bytes(buffer[:stem]) != SNAPSHOT_MAGIC[:stem]:
        raise SynopsisFormatError("not a synopsis snapshot (bad magic bytes)")
    if buffer[stem] != SNAPSHOT_MAGIC[stem]:
        raise SynopsisFormatError(
            f"snapshot format version {buffer[stem]} is not supported "
            f"(this build reads version {SNAPSHOT_MAGIC[stem]})"
        )
    header = _Reader(_Section(buffer, 0, size), stem + 1)
    (count,) = header.ints(1)
    ids = header.ints(count)
    stored_lengths = header.ints(count)
    lengths = header.ints(count)
    sections: Dict[int, _Section] = {}
    offset = header.at
    for section_id, stored, length in zip(ids, stored_lengths, lengths):
        if offset + stored > size:
            raise SynopsisFormatError(
                f"section {section_id} [{offset}, {offset + stored}) lies "
                f"outside the {size}-byte snapshot"
            )
        if stored > length or length > _MAX_INFLATE_RATIO * stored:
            raise SynopsisFormatError(
                f"section {section_id} cannot inflate {stored} stored bytes "
                f"to {length} (deflate's ceiling is "
                f"{_MAX_INFLATE_RATIO}:1)"
            )
        if section_id in sections:
            raise SynopsisFormatError(f"duplicate section id {section_id}")
        sections[section_id] = _Section(buffer, offset, length, stored)
        offset += stored
    if offset != size:
        raise SynopsisFormatError(f"{size - offset} stray bytes after the sections")
    missing = [sid for sid in _SECTION_NAMES if sid not in sections]
    if missing:
        raise SynopsisFormatError(f"snapshot is missing sections {missing}")
    return sections


def snapshot_sections(buffer) -> Dict[str, int]:
    """Stored (shipped) bytes per named section of a snapshot buffer
    (``"pst"``, ``"ebth"``, ``"vocabulary"``, ...), for size reports."""
    return {
        _SECTION_NAMES[sid]: section.stored
        for sid, section in _section_table(buffer).items()
        if sid in _SECTION_NAMES
    }


def load_snapshot(
    path: str, verify: bool = True, lazy: bool = True, use_mmap: bool = True
) -> XClusterSynopsis:
    """Read a snapshot written by :func:`save_snapshot`.

    The file is mapped read-only when possible, so deferred summary
    payloads are paged in on first access rather than read up front;
    platforms or files that cannot be mapped fall back to one read.
    """
    handle = open(path, "rb")
    buffer = None
    if use_mmap:
        try:
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            buffer = None  # empty file or unmappable fs: fall back
    if buffer is None:
        buffer = handle.read()
        handle.close()
        return synopsis_from_snapshot(buffer, verify=verify, lazy=lazy)
    # The mmap (and its handle) stay alive as long as any deferred
    # thunk references the section windows built over it.
    handle.close()
    return synopsis_from_snapshot(buffer, verify=verify, lazy=lazy)


def is_snapshot(path: str) -> bool:
    """Whether ``path`` starts with the snapshot magic bytes, of any
    format version (the loader names a version it cannot read)."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(SNAPSHOT_MAGIC))
    except OSError:
        return False
    return len(head) == len(SNAPSHOT_MAGIC) and head[:-1] == SNAPSHOT_MAGIC[:-1]
