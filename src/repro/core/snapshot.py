"""The binary mmap snapshot format for XCluster synopses.

JSON (:mod:`repro.core.serialization`) remains the portable interchange
format, but it is cold-start-bound: every consumer re-parses the whole
blob and rebuilds the full Python object graph before the first
estimate.  A *snapshot* is the serving-tier format: a single buffer of
length-prefixed little-endian sections laid out so a file can be opened
with ``mmap`` and decoded **lazily per section** —

* the header carries magic bytes (format auto-detection) and a section
  table of absolute ``(id, offset, length)`` entries, bounds-checked up
  front so truncation is caught at open time;
* the node and edge tables are flat fixed-width ``struct`` records,
  decoded eagerly (the graph must exist to serve anything) in the same
  canonical order the JSON decoder uses, so a snapshot-loaded synopsis
  replays every float accumulation bit-for-bit;
* the label and vocabulary string pools are interned once;
* per-family value-summary payloads (histogram buckets, PST node
  arrays, EBTH runs, wavelet coefficients) live in family sections and
  are **deferred**: each node parks a decode thunk
  (:meth:`~repro.core.synopsis.SynopsisNode.defer_summary`) pointing at
  its payload offset, and only summaries a workload actually touches
  are ever decoded.

Round-tripping is bit-exact: ``synopsis_to_dict(load(save(s)))``
equals ``synopsis_to_dict(s)`` for every summary family.  Malformed
input — bad magic, truncated sections, corrupt payloads — raises
:class:`~repro.core.serialization.SynopsisFormatError`, never a raw
``struct.error``, whether the corruption surfaces at open time or at
first lazy access.
"""

from __future__ import annotations

import mmap
import struct
from typing import Callable, Dict, List, Optional, Tuple

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
    WaveletSummary,
)
from repro.values.wavelet import HaarWavelet
from repro.values.termvector import Vocabulary
from repro.xmltree.types import ValueType

#: Leading bytes of every snapshot; the final byte is the format version.
SNAPSHOT_MAGIC = b"XCSNAP\x00\x01"

# Section ids (the section table maps id -> absolute offset + length).
_SEC_META = 1
_SEC_LABELS = 2
_SEC_VOCAB = 3
_SEC_NODES = 4
_SEC_EDGES = 5
_SEC_HIST = 6
_SEC_WAVELET = 7
_SEC_PST = 8
_SEC_EBTH = 9

_REQUIRED_SECTIONS = (
    _SEC_META,
    _SEC_LABELS,
    _SEC_VOCAB,
    _SEC_NODES,
    _SEC_EDGES,
    _SEC_HIST,
    _SEC_WAVELET,
    _SEC_PST,
    _SEC_EBTH,
)

_SECTION_COUNT = struct.Struct("<I")
_SECTION_ENTRY = struct.Struct("<IQQ")
#: root_id (-1 = none), node count, edge count.
_META = struct.Struct("<qqq")
#: node_id, label ref, value-type code, summary kind, count, payload offset.
_NODE = struct.Struct("<qIBBqq")
#: parent id, child id, average child counter.
_EDGE = struct.Struct("<qqd")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
#: histogram bucket lo, hi, count.
_BUCKET = struct.Struct("<qqd")
#: wavelet header: domain_lo, cell_width, length, total.
_WAVELET_HEAD = struct.Struct("<qqqd")
#: one wavelet coefficient: index, value.
_COEFF = struct.Struct("<qd")
#: PST header: max_depth, string_count, node count.
_PST_HEAD = struct.Struct("<qqq")
#: one pre-order PST node: symbol codepoint, child count, count.
_PST_NODE = struct.Struct("<IIq")
#: one exact EBTH term: term id, fractional frequency.
_TERM = struct.Struct("<qd")
#: one RLE bitmap run: start, end (inclusive).
_RUN = struct.Struct("<qq")
#: EBTH tail: bucket average, bucket member count, text count.
_EBTH_TAIL = struct.Struct("<dqq")

#: Summary-kind codes stored in the node table.
_KIND_NONE = 0
_KIND_HIST = 1
_KIND_WAVELET = 2
_KIND_PST = 3
_KIND_EBTH = 4

_KIND_SECTION = {
    _KIND_HIST: _SEC_HIST,
    _KIND_WAVELET: _SEC_WAVELET,
    _KIND_PST: _SEC_PST,
    _KIND_EBTH: _SEC_EBTH,
}

_VALUE_TYPE_CODES = {
    ValueType.NULL: 0,
    ValueType.NUMERIC: 1,
    ValueType.STRING: 2,
    ValueType.TEXT: 3,
}
_VALUE_TYPES_BY_CODE = {code: vt for vt, code in _VALUE_TYPE_CODES.items()}


# -- encoding ----------------------------------------------------------------


def _pack_string_pool(strings: List[str]) -> bytes:
    parts = [_U64.pack(len(strings))]
    for text in strings:
        data = text.encode("utf-8")
        parts.append(_U32.pack(len(data)))
        parts.append(data)
    return b"".join(parts)


def _encode_histogram(summary: HistogramSummary, out: bytearray) -> int:
    offset = len(out)
    buckets = summary.histogram.buckets
    out += _U64.pack(len(buckets))
    for bucket in buckets:
        out += _BUCKET.pack(bucket.lo, bucket.hi, bucket.count)
    return offset


def _encode_wavelet(summary: WaveletSummary, out: bytearray) -> int:
    offset = len(out)
    wavelet = summary.wavelet
    out += _WAVELET_HEAD.pack(
        wavelet.domain_lo, wavelet.cell_width, wavelet.length, wavelet.total
    )
    # Sorted for a canonical layout (mirrors the JSON encoder); the
    # decoder rebuilds the coefficient dict in this order.
    items = sorted(wavelet.coefficients.items())
    out += _U64.pack(len(items))
    for index, value in items:
        out += _COEFF.pack(index, value)
    return offset


def _encode_pst(summary: StringSummary, out: bytearray) -> int:
    offset = len(out)
    tree = summary.pst
    counts = tree.counts
    out += _PST_HEAD.pack(tree.max_depth, tree.string_count, len(counts))
    # Pre-order, each parent's children in trie order, so the decoder
    # rebuilds the same per-parent order (and thus the same bytes).
    child_lists = tree.child_lists()
    stack = list(reversed(child_lists.get("", ())))
    nodes = 0
    while stack:
        substring = stack.pop()
        children = child_lists.get(substring, ())
        out += _PST_NODE.pack(ord(substring[-1]), len(children), counts[substring])
        nodes += 1
        stack.extend(reversed(children))
    if nodes != len(counts):
        raise SynopsisFormatError(
            f"cannot encode PST: {len(counts) - nodes} substrings lack an "
            "indexed parent"
        )
    return offset


def _encode_ebth(summary: TextSummary, out: bytearray) -> int:
    offset = len(out)
    ebth = summary.ebth
    exact = sorted(ebth.exact.items())
    out += _U64.pack(len(exact))
    for term_id, frequency in exact:
        out += _TERM.pack(term_id, frequency)
    runs = ebth.bitmap.runs
    out += _U64.pack(len(runs))
    for start, end in runs:
        out += _RUN.pack(start, end)
    out += _EBTH_TAIL.pack(
        ebth.bucket_average, ebth.bucket_member_count, ebth.count
    )
    return offset


def snapshot_to_bytes(synopsis: XClusterSynopsis) -> bytes:
    """Encode a synopsis into one self-contained snapshot buffer."""
    vocabulary = _find_vocabulary(synopsis)
    labels: List[str] = []
    label_refs: Dict[str, int] = {}
    pools: Dict[int, bytearray] = {
        _SEC_HIST: bytearray(),
        _SEC_WAVELET: bytearray(),
        _SEC_PST: bytearray(),
        _SEC_EBTH: bytearray(),
    }

    nodes = sorted(synopsis, key=lambda node: node.node_id)
    node_records = bytearray()
    edge_records = bytearray()
    edge_count = 0
    try:
        for node in nodes:
            label_ref = label_refs.get(node.label)
            if label_ref is None:
                label_ref = len(labels)
                label_refs[node.label] = label_ref
                labels.append(node.label)
            kind, payload_offset = _encode_summary(node.vsumm, pools)
            node_records += _NODE.pack(
                node.node_id,
                label_ref,
                _VALUE_TYPE_CODES[node.value_type],
                kind,
                node.count,
                payload_offset,
            )
            # Canonical child order (sorted, as in the JSON encoder):
            # the decoder's edge insertion order — and therefore every
            # estimate's accumulation order — is then load-path
            # independent.
            for child_id in sorted(node.children):
                edge_records += _EDGE.pack(
                    node.node_id, child_id, node.children[child_id]
                )
                edge_count += 1
    except struct.error as err:
        raise SynopsisFormatError(f"value outside snapshot range: {err}") from err

    root_id = -1 if synopsis.root_id is None else synopsis.root_id
    sections: List[Tuple[int, bytes]] = [
        (_SEC_META, _META.pack(root_id, len(nodes), edge_count)),
        (_SEC_LABELS, _pack_string_pool(labels)),
        (
            _SEC_VOCAB,
            _pack_string_pool(
                list(vocabulary) if vocabulary is not None else []
            ),
        ),
        (_SEC_NODES, bytes(node_records)),
        (_SEC_EDGES, bytes(edge_records)),
        (_SEC_HIST, bytes(pools[_SEC_HIST])),
        (_SEC_WAVELET, bytes(pools[_SEC_WAVELET])),
        (_SEC_PST, bytes(pools[_SEC_PST])),
        (_SEC_EBTH, bytes(pools[_SEC_EBTH])),
    ]

    header_size = (
        len(SNAPSHOT_MAGIC)
        + _SECTION_COUNT.size
        + len(sections) * _SECTION_ENTRY.size
    )
    parts = [SNAPSHOT_MAGIC, _SECTION_COUNT.pack(len(sections))]
    offset = header_size
    for section_id, payload in sections:
        parts.append(_SECTION_ENTRY.pack(section_id, offset, len(payload)))
        offset += len(payload)
    parts.extend(payload for _, payload in sections)
    return b"".join(parts)


def _encode_summary(
    summary: Optional[ValueSummary], pools: Dict[int, bytearray]
) -> Tuple[int, int]:
    if summary is None:
        return _KIND_NONE, -1
    if isinstance(summary, HistogramSummary):
        return _KIND_HIST, _encode_histogram(summary, pools[_SEC_HIST])
    if isinstance(summary, WaveletSummary):
        return _KIND_WAVELET, _encode_wavelet(summary, pools[_SEC_WAVELET])
    if isinstance(summary, StringSummary):
        return _KIND_PST, _encode_pst(summary, pools[_SEC_PST])
    if isinstance(summary, TextSummary):
        return _KIND_EBTH, _encode_ebth(summary, pools[_SEC_EBTH])
    raise SynopsisFormatError(
        f"cannot encode summary {type(summary).__name__}"
    )


def save_snapshot(synopsis: XClusterSynopsis, path: str) -> None:
    """Write a synopsis to a binary snapshot file."""
    data = snapshot_to_bytes(synopsis)
    with open(path, "wb") as handle:
        handle.write(data)


# -- decoding ----------------------------------------------------------------


class _Section:
    """One mapped section: a window into the snapshot buffer."""

    __slots__ = ("buffer", "offset", "length")

    def __init__(self, buffer, offset: int, length: int) -> None:
        self.buffer = buffer
        self.offset = offset
        self.length = length

    @property
    def end(self) -> int:
        return self.offset + self.length

    def unpack(self, fmt: struct.Struct, at: int):
        """Unpack one record at section-relative offset ``at``."""
        absolute = self.offset + at
        if at < 0 or absolute + fmt.size > self.end:
            raise SynopsisFormatError(
                f"record at {at} overruns its {self.length}-byte section"
            )
        try:
            return fmt.unpack_from(self.buffer, absolute)
        except struct.error as err:  # pragma: no cover - bounds caught above
            raise SynopsisFormatError(f"corrupt record: {err}") from err


def _read_string_pool(section: _Section) -> List[str]:
    (count,) = section.unpack(_U64, 0)
    at = _U64.size
    strings: List[str] = []
    for _ in range(count):
        (length,) = section.unpack(_U32, at)
        at += _U32.size
        if at + length > section.length:
            raise SynopsisFormatError("string pool overruns its section")
        raw = bytes(section.buffer[section.offset + at:section.offset + at + length])
        try:
            strings.append(raw.decode("utf-8"))
        except UnicodeDecodeError as err:
            raise SynopsisFormatError(f"corrupt string pool: {err}") from err
        at += length
    return strings


def _decode_histogram_payload(section: _Section, at: int) -> HistogramSummary:
    (count,) = section.unpack(_U64, at)
    at += _U64.size
    buckets = []
    for _ in range(count):
        lo, hi, bucket_count = section.unpack(_BUCKET, at)
        at += _BUCKET.size
        buckets.append(HistogramBucket(lo, hi, bucket_count))
    try:
        return HistogramSummary(Histogram(buckets))
    except ValueError as err:
        raise SynopsisFormatError(f"corrupt histogram payload: {err}") from err


def _decode_wavelet_payload(section: _Section, at: int) -> WaveletSummary:
    domain_lo, cell_width, length, total = section.unpack(_WAVELET_HEAD, at)
    at += _WAVELET_HEAD.size
    (coefficient_count,) = section.unpack(_U64, at)
    at += _U64.size
    coefficients: Dict[int, float] = {}
    for _ in range(coefficient_count):
        index, value = section.unpack(_COEFF, at)
        at += _COEFF.size
        coefficients[index] = value
    try:
        return WaveletSummary(
            HaarWavelet(domain_lo, cell_width, length, coefficients, total)
        )
    except ValueError as err:
        raise SynopsisFormatError(f"corrupt wavelet payload: {err}") from err


def _decode_pst_payload(section: _Section, at: int) -> StringSummary:
    max_depth, string_count, node_count = section.unpack(_PST_HEAD, at)
    at += _PST_HEAD.size
    if max_depth < 1 or node_count < 0:
        raise SynopsisFormatError(
            f"corrupt PST header (max_depth={max_depth}, nodes={node_count})"
        )
    tree = PrunedSuffixTree(max_depth)
    tree.string_count = string_count
    counts = tree.counts
    # Pre-order reconstruction: the stack tracks how many children each
    # open node still expects.
    stack: List[Tuple[str, int]] = [("", node_count and 2**63)]
    for _ in range(node_count):
        codepoint, child_count, count = section.unpack(_PST_NODE, at)
        at += _PST_NODE.size
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


def _decode_ebth_payload(
    section: _Section, at: int, vocabulary: Vocabulary
) -> TextSummary:
    (exact_count,) = section.unpack(_U64, at)
    at += _U64.size
    exact: Dict[int, float] = {}
    for _ in range(exact_count):
        term_id, frequency = section.unpack(_TERM, at)
        at += _TERM.size
        exact[term_id] = frequency
    (run_count,) = section.unpack(_U64, at)
    at += _U64.size
    runs = []
    for _ in range(run_count):
        runs.append(section.unpack(_RUN, at))
        at += _RUN.size
    bucket_average, bucket_member_count, count = section.unpack(_EBTH_TAIL, at)
    try:
        bitmap = RunLengthBitmap(runs)
    except ValueError as err:
        raise SynopsisFormatError(f"corrupt EBTH bitmap: {err}") from err
    return TextSummary(
        EndBiasedTermHistogram(
            vocabulary, exact, bitmap, bucket_average, bucket_member_count, count
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
            for term in _read_string_pool(self._section):
                vocabulary.intern(term)
            self._vocabulary = vocabulary
        return self._vocabulary


def _summary_thunk(
    kind: int,
    sections: Dict[int, _Section],
    payload_offset: int,
    vocab_cell: _VocabularyCell,
) -> Callable[[], ValueSummary]:
    section = sections[_KIND_SECTION[kind]]
    if kind == _KIND_HIST:
        decode = lambda: _decode_histogram_payload(section, payload_offset)
    elif kind == _KIND_WAVELET:
        decode = lambda: _decode_wavelet_payload(section, payload_offset)
    elif kind == _KIND_PST:
        decode = lambda: _decode_pst_payload(section, payload_offset)
    else:
        decode = lambda: _decode_ebth_payload(
            section, payload_offset, vocab_cell.load()
        )

    def guarded() -> ValueSummary:
        # Corrupt payload values surface from summary constructors as
        # assorted ValueErrors/KeyErrors; callers (lazy access, eager
        # loads, the invariant auditor) are promised a format error.
        try:
            return decode()
        except SynopsisFormatError:
            raise
        except (ValueError, KeyError, TypeError, OverflowError) as err:
            raise SynopsisFormatError(
                f"corrupt summary payload at offset {payload_offset}: {err}"
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
    root_id, node_count, edge_count = sections[_SEC_META].unpack(_META, 0)

    labels = _read_string_pool(sections[_SEC_LABELS])
    vocab_cell = _VocabularyCell(sections[_SEC_VOCAB])

    node_section = sections[_SEC_NODES]
    if node_section.length != node_count * _NODE.size:
        raise SynopsisFormatError(
            f"node table holds {node_section.length} bytes, expected "
            f"{node_count} records"
        )
    synopsis = XClusterSynopsis()
    nodes_by_id: Dict[int, SynopsisNode] = synopsis.nodes
    for record in range(node_count):
        node_id, label_ref, type_code, kind, count, payload_offset = (
            node_section.unpack(_NODE, record * _NODE.size)
        )
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
        if node.node_id in nodes_by_id:
            raise SynopsisFormatError(f"duplicate node id {node.node_id}")
        if kind != _KIND_NONE:
            if kind not in _KIND_SECTION:
                raise SynopsisFormatError(
                    f"node {node_id} carries unknown summary kind {kind}"
                )
            thunk = _summary_thunk(kind, sections, payload_offset, vocab_cell)
            if lazy:
                node.defer_summary(thunk)
            else:
                node.vsumm = thunk()
        nodes_by_id[node.node_id] = node
    synopsis._next_id = max(nodes_by_id, default=-1) + 1

    edge_section = sections[_SEC_EDGES]
    if edge_section.length != edge_count * _EDGE.size:
        raise SynopsisFormatError(
            f"edge table holds {edge_section.length} bytes, expected "
            f"{edge_count} records"
        )
    for record in range(edge_count):
        parent_id, child_id, average = edge_section.unpack(
            _EDGE, record * _EDGE.size
        )
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
    magic_len = len(SNAPSHOT_MAGIC)
    if size < magic_len or bytes(buffer[:magic_len]) != SNAPSHOT_MAGIC:
        raise SynopsisFormatError("not a synopsis snapshot (bad magic bytes)")
    if size < magic_len + _SECTION_COUNT.size:
        raise SynopsisFormatError("snapshot truncated inside its header")
    (section_count,) = _SECTION_COUNT.unpack_from(buffer, magic_len)
    table_at = magic_len + _SECTION_COUNT.size
    table_end = table_at + section_count * _SECTION_ENTRY.size
    if table_end > size:
        raise SynopsisFormatError("snapshot truncated inside its section table")
    sections: Dict[int, _Section] = {}
    for index in range(section_count):
        section_id, offset, length = _SECTION_ENTRY.unpack_from(
            buffer, table_at + index * _SECTION_ENTRY.size
        )
        if offset < table_end or offset + length > size:
            raise SynopsisFormatError(
                f"section {section_id} [{offset}, {offset + length}) lies "
                f"outside the {size}-byte snapshot"
            )
        if section_id in sections:
            raise SynopsisFormatError(f"duplicate section id {section_id}")
        sections[section_id] = _Section(buffer, offset, length)
    missing = [sid for sid in _REQUIRED_SECTIONS if sid not in sections]
    if missing:
        raise SynopsisFormatError(f"snapshot is missing sections {missing}")
    return sections


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
    """Whether ``path`` starts with the snapshot magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(SNAPSHOT_MAGIC)) == SNAPSHOT_MAGIC
    except OSError:
        return False
