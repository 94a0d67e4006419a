"""Synopsis persistence: save/load XCluster synopses as JSON.

A synopsis built once (possibly from a large document) is reused across
many optimizer sessions, so it must round-trip through storage.  The
format is a single JSON document containing the shared term vocabulary,
every node with its value summary, and the edge list; loading rebuilds
an estimator-ready :class:`~repro.core.synopsis.XClusterSynopsis` that
produces byte-identical estimates.

The JSON encoding is deliberately simple and versioned; the byte-level
size accounting of :mod:`repro.core.sizing` models the equivalent packed
binary layout, not this interchange format.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

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

FORMAT_VERSION = 1


class SynopsisFormatError(ValueError):
    """Raised when loading malformed or incompatible synopsis data."""


# -- value-summary encoding ---------------------------------------------------


def _encode_histogram(summary: HistogramSummary) -> Dict[str, Any]:
    return {
        "kind": "histogram",
        "buckets": [
            [bucket.lo, bucket.hi, bucket.count]
            for bucket in summary.histogram.buckets
        ],
    }


def _decode_histogram(data: Dict[str, Any]) -> HistogramSummary:
    buckets = [
        HistogramBucket(int(lo), int(hi), float(count))
        for lo, hi, count in data["buckets"]
    ]
    return HistogramSummary(Histogram(buckets))


def _encode_wavelet(summary: WaveletSummary) -> Dict[str, Any]:
    wavelet = summary.wavelet
    return {
        "kind": "wavelet",
        "domain_lo": wavelet.domain_lo,
        "cell_width": wavelet.cell_width,
        "length": wavelet.length,
        "coefficients": sorted(wavelet.coefficients.items()),
        "total": wavelet.total,
    }


def _decode_wavelet(data: Dict[str, Any]) -> WaveletSummary:
    coefficients = {int(index): float(value) for index, value in data["coefficients"]}
    return WaveletSummary(
        HaarWavelet(
            int(data["domain_lo"]),
            int(data["cell_width"]),
            int(data["length"]),
            coefficients,
            float(data["total"]),
        )
    )


def _encode_pst(summary: StringSummary) -> Dict[str, Any]:
    tree = summary.pst
    counts = tree.counts
    child_lists = tree.child_lists()

    def encode(substring: str) -> List[Any]:
        return [
            substring[-1],
            counts[substring],
            [encode(child) for child in child_lists.get(substring, ())],
        ]

    return {
        "kind": "pst",
        "max_depth": tree.max_depth,
        "string_count": tree.string_count,
        "children": [encode(child) for child in child_lists.get("", ())],
    }


def _decode_pst(data: Dict[str, Any]) -> StringSummary:
    tree = PrunedSuffixTree(int(data["max_depth"]))
    tree.string_count = int(data["string_count"])
    counts = tree.counts

    def attach(parent: str, encoded: List[Any]) -> None:
        char, count, children = encoded
        if not isinstance(char, str) or len(char) != 1:
            raise ValueError(f"PST symbol {char!r} is not one character")
        substring = parent + char
        counts[substring] = int(count)
        for child in children:
            attach(substring, child)

    for encoded in data["children"]:
        attach("", encoded)
    return StringSummary(tree)


def _encode_ebth(summary: TextSummary) -> Dict[str, Any]:
    ebth = summary.ebth
    return {
        "kind": "ebth",
        "exact": sorted(ebth.exact.items()),
        "runs": list(ebth.bitmap.runs),
        "bucket_average": ebth.bucket_average,
        "bucket_member_count": ebth.bucket_member_count,
        "count": ebth.count,
    }


def _decode_ebth(data: Dict[str, Any], vocabulary: Vocabulary) -> TextSummary:
    bitmap = RunLengthBitmap([tuple(run) for run in data["runs"]])
    exact = {int(term_id): float(freq) for term_id, freq in data["exact"]}
    return TextSummary(
        EndBiasedTermHistogram(
            vocabulary,
            exact,
            bitmap,
            float(data["bucket_average"]),
            int(data["bucket_member_count"]),
            int(data["count"]),
        )
    )


def _encode_summary(summary: Optional[ValueSummary]) -> Optional[Dict[str, Any]]:
    if summary is None:
        return None
    if isinstance(summary, HistogramSummary):
        return _encode_histogram(summary)
    if isinstance(summary, WaveletSummary):
        return _encode_wavelet(summary)
    if isinstance(summary, StringSummary):
        return _encode_pst(summary)
    if isinstance(summary, TextSummary):
        return _encode_ebth(summary)
    raise SynopsisFormatError(f"cannot encode summary {type(summary).__name__}")


def _decode_summary(
    data: Optional[Dict[str, Any]], vocabulary: Vocabulary
) -> Optional[ValueSummary]:
    if data is None:
        return None
    try:
        kind = data.get("kind")
        if kind == "histogram":
            return _decode_histogram(data)
        if kind == "wavelet":
            return _decode_wavelet(data)
        if kind == "pst":
            return _decode_pst(data)
        if kind == "ebth":
            return _decode_ebth(data, vocabulary)
    except SynopsisFormatError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise SynopsisFormatError(f"corrupt {kind!r} summary: {err}") from err
    raise SynopsisFormatError(f"unknown summary kind {kind!r}")


# -- synopsis encoding --------------------------------------------------------


def synopsis_to_dict(synopsis: XClusterSynopsis) -> Dict[str, Any]:
    """Encode a synopsis (and its shared vocabulary) as plain data."""
    vocabulary = _find_vocabulary(synopsis)
    return {
        "format": FORMAT_VERSION,
        "root": synopsis.root_id,
        "vocabulary": list(vocabulary) if vocabulary is not None else [],
        "nodes": [
            {
                "id": node.node_id,
                "label": node.label,
                "type": node.value_type.value,
                "count": node.count,
                "vsumm": _encode_summary(node.vsumm),
                "children": sorted(
                    (child_id, avg) for child_id, avg in node.children.items()
                ),
            }
            for node in sorted(synopsis, key=lambda n: n.node_id)
        ],
    }


def _find_vocabulary(synopsis: XClusterSynopsis) -> Optional[Vocabulary]:
    for node in synopsis.valued_nodes():
        if isinstance(node.vsumm, TextSummary):
            return node.vsumm.ebth.vocabulary
    return None


def synopsis_from_dict(
    data: Dict[str, Any], verify: bool = True
) -> XClusterSynopsis:
    """Rebuild a synopsis previously encoded by :func:`synopsis_to_dict`.

    Args:
        data: the encoded synopsis.
        verify: validate graph invariants after decoding (default).
            Pass ``False`` to load a suspect synopsis *without* raising,
            e.g. so ``python -m repro check`` can hand it to the
            invariant auditor and report every breach structurally.
            Relaxed loads also defer value-summary decoding to first
            access, so auditing a huge synopsis's graph shape does not
            pay the full payload decode; a corrupt summary then raises
            :class:`SynopsisFormatError` when dereferenced.
    """
    if data.get("format") != FORMAT_VERSION:
        raise SynopsisFormatError(
            f"unsupported format version {data.get('format')!r}"
        )
    vocabulary = Vocabulary()
    for term in data.get("vocabulary", []):
        vocabulary.intern(term)

    synopsis = XClusterSynopsis()
    nodes_by_id: Dict[int, SynopsisNode] = {}
    for encoded in data["nodes"]:
        node = SynopsisNode(
            int(encoded["id"]),
            encoded["label"],
            ValueType(encoded["type"]),
            int(encoded["count"]),
        )
        raw_summary = encoded.get("vsumm")
        if raw_summary is not None:
            if verify:
                node.vsumm = _decode_summary(raw_summary, vocabulary)
            else:
                node.defer_summary(
                    lambda raw=raw_summary: _decode_summary(raw, vocabulary)
                )
        if node.node_id in nodes_by_id:
            raise SynopsisFormatError(f"duplicate node id {node.node_id}")
        nodes_by_id[node.node_id] = node
        synopsis.nodes[node.node_id] = node
    synopsis._next_id = max(nodes_by_id, default=-1) + 1

    for encoded in data["nodes"]:
        node = nodes_by_id[int(encoded["id"])]
        for child_id, average in encoded["children"]:
            child = nodes_by_id.get(int(child_id))
            if child is None:
                raise SynopsisFormatError(
                    f"edge {node.node_id}->{child_id} targets a missing node"
                )
            synopsis.add_edge(node, child, float(average))

    root_id = data.get("root")
    if root_id is not None:
        if int(root_id) not in nodes_by_id:
            raise SynopsisFormatError(f"root id {root_id} missing")
        synopsis.root_id = int(root_id)
    if verify:
        synopsis.validate()
    return synopsis


def save_synopsis(synopsis: XClusterSynopsis, path: str) -> None:
    """Write a synopsis to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(synopsis_to_dict(synopsis), handle)


def load_synopsis(path: str, verify: bool = True) -> XClusterSynopsis:
    """Read a synopsis saved as JSON *or* as a binary snapshot.

    The format is auto-detected from the file's magic bytes, so every
    loading surface (``estimate``, ``check --synopsis``, the daemon)
    accepts both interchange JSON and the mmap snapshot format of
    :mod:`repro.core.snapshot` transparently.

    ``verify=False`` skips graph validation (see :func:`synopsis_from_dict`).
    """
    from repro.core import snapshot as _snapshot

    if _snapshot.is_snapshot(path):
        return _snapshot.load_snapshot(path, verify=verify)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as err:
            raise SynopsisFormatError(f"not a synopsis file: {err}") from err
    return synopsis_from_dict(data, verify=verify)
