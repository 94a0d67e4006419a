"""Shard containers, the document router, and the collection store.

One shard *container* packs every distinct document structure routed to
a shard into a single mmap-openable file: a fixed header, a payload
table (offset/length windows plus per-structure metadata), a document
table mapping document ids onto payload indexes, and the payload blob
region — each payload being a standard binary synopsis snapshot
(:mod:`repro.core.snapshot`), so a container is just a directory of
snapshots flattened into one file.  Payloads are decoded lazily: the
container open parses only the tables (every window bounds-checked
against the file size, so truncation is caught up front), and a
payload's synopsis is materialized from a zero-copy ``memoryview``
slice on first use — value summaries inside it defer further still,
via the snapshot format's own thunks.

Documents are routed to shards by :func:`shard_for_doc` — a CRC32 of
the document id, **not** Python's seeded ``hash()``, so the routing is
stable across processes, machines, and interpreter restarts; the same
function serves build time and query time.

:class:`CollectionStore` serves a built collection: an LRU of open
containers (lazily mapped, evicted by dropping references — the mmap
pages stay alive exactly as long as undecoded payload thunks need
them), one shared plan cache + ``EstimatorStats`` across every shard
(the collection analogue of the serving tier's one-``WorkloadEstimator``
-per-synopsis rule), and three estimate paths:

* :meth:`CollectionStore.estimate` — routed: one document's synopsis;
* :meth:`CollectionStore.estimate_collection` — the exact rollup: the
  multiplicity-weighted sum of every distinct payload's estimate, in
  canonical (shard id, payload index) order so the float accumulation
  is reproducible bit-for-bit;
* :meth:`CollectionStore.estimate_rollup` — the merged rollup synopsis
  (:mod:`repro.collection.rollup`), one graph for the whole collection:
  approximate but O(rollup) instead of O(shards).
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.collection.manifest import (
    CollectionFormatError,
    CollectionManifest,
    ROLLUP_FILENAME,
    atomic_write,
    load_manifest,
    verify_collection,
)
from repro.core.estimation.engine import CompiledEstimator, EstimatorStats
from repro.core.snapshot import synopsis_from_snapshot
from repro.core.synopsis import XClusterSynopsis
from repro.errors import SynopsisFormatError
from repro.query.ast import TwigQuery

#: Leading bytes of every shard container; the final byte is the
#: container format version.
SHARD_MAGIC = b"XCSHRD\x00\x01"

_COUNTS = struct.Struct("<II")
#: payload record: offset, length, B_str, B_val, elements, multiplicity.
_PAYLOAD = struct.Struct("<QQQQQQ")
_HASH_LEN = 32
_DOC_HEAD = struct.Struct("<II")


def shard_for_doc(doc_id: str, shard_count: int) -> int:
    """Deterministic document routing (CRC32, process-independent)."""
    if shard_count <= 0:
        raise ValueError("shard_count must be positive")
    return zlib.crc32(doc_id.encode("utf-8")) % shard_count


@dataclass
class PayloadRecord:
    """One distinct structure's payload, as written into a container."""

    content_hash: str
    data: bytes
    structural_budget: int
    value_budget: int
    elements: int
    multiplicity: int


def pack_shard_container(
    payloads: Sequence[PayloadRecord], docs: Sequence[Tuple[str, int]]
) -> bytes:
    """Encode one shard container; ``docs`` maps doc id -> payload index."""
    parts: List[bytes] = [SHARD_MAGIC, _COUNTS.pack(len(payloads), len(docs))]
    doc_table = bytearray()
    for doc_id, payload_index in docs:
        if not 0 <= payload_index < len(payloads):
            raise ValueError(
                f"document {doc_id!r} references payload {payload_index}"
            )
        encoded = doc_id.encode("utf-8")
        doc_table += _DOC_HEAD.pack(len(encoded), payload_index)
        doc_table += encoded
    header_size = (
        len(SHARD_MAGIC)
        + _COUNTS.size
        + len(payloads) * (_PAYLOAD.size + _HASH_LEN)
        + len(doc_table)
    )
    offset = header_size
    for record in payloads:
        digest = bytes.fromhex(record.content_hash)
        if len(digest) != _HASH_LEN:
            raise ValueError(
                f"content hash {record.content_hash!r} is not sha256"
            )
        parts.append(
            _PAYLOAD.pack(
                offset,
                len(record.data),
                record.structural_budget,
                record.value_budget,
                record.elements,
                record.multiplicity,
            )
        )
        parts.append(digest)
        offset += len(record.data)
    parts.append(bytes(doc_table))
    parts.extend(record.data for record in payloads)
    return b"".join(parts)


def write_shard_container(
    path: str, payloads: Sequence[PayloadRecord], docs: Sequence[Tuple[str, int]]
) -> bytes:
    """Atomically write one container; returns the encoded bytes."""
    data = pack_shard_container(payloads, docs)
    atomic_write(path, data)
    return data


@dataclass
class PayloadInfo:
    """Decoded payload-table row of an open container."""

    content_hash: str
    offset: int
    length: int
    structural_budget: int
    value_budget: int
    elements: int
    multiplicity: int


class ShardReader:
    """One open shard container: eager tables, lazy payload synopses."""

    def __init__(self, buffer, shard_id: int = -1) -> None:
        self.shard_id = shard_id
        self._buffer = buffer
        self.payloads: List[PayloadInfo] = []
        self.doc_table: Dict[str, int] = {}
        self._synopses: Dict[int, XClusterSynopsis] = {}
        self._estimators: Dict[int, CompiledEstimator] = {}
        self._parse_tables()

    @classmethod
    def open(cls, path: str, shard_id: int = -1) -> "ShardReader":
        """Map a container read-only (falling back to one read)."""
        import mmap

        with open(path, "rb") as handle:
            try:
                buffer = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (ValueError, OSError):
                buffer = handle.read()
        return cls(buffer, shard_id)

    def _parse_tables(self) -> None:
        buffer = self._buffer
        size = len(buffer)
        magic_len = len(SHARD_MAGIC)
        if size < magic_len or bytes(buffer[:magic_len]) != SHARD_MAGIC:
            raise CollectionFormatError(
                "not a shard container (bad magic bytes)"
            )
        at = magic_len
        try:
            if at + _COUNTS.size > size:
                raise CollectionFormatError(
                    "shard container truncated inside its header"
                )
            payload_count, doc_count = _COUNTS.unpack_from(buffer, at)
            at += _COUNTS.size
            for _ in range(payload_count):
                if at + _PAYLOAD.size + _HASH_LEN > size:
                    raise CollectionFormatError(
                        "shard container truncated inside its payload table"
                    )
                offset, length, b_str, b_val, elements, multiplicity = (
                    _PAYLOAD.unpack_from(buffer, at)
                )
                at += _PAYLOAD.size
                digest = bytes(buffer[at:at + _HASH_LEN])
                at += _HASH_LEN
                if offset + length > size:
                    raise CollectionFormatError(
                        f"payload window [{offset}, {offset + length}) lies "
                        f"outside the {size}-byte container"
                    )
                self.payloads.append(
                    PayloadInfo(
                        digest.hex(), offset, length, b_str, b_val,
                        elements, multiplicity,
                    )
                )
            for _ in range(doc_count):
                if at + _DOC_HEAD.size > size:
                    raise CollectionFormatError(
                        "shard container truncated inside its document table"
                    )
                id_len, payload_index = _DOC_HEAD.unpack_from(buffer, at)
                at += _DOC_HEAD.size
                if at + id_len > size:
                    raise CollectionFormatError(
                        "shard container truncated inside a document id"
                    )
                raw = bytes(buffer[at:at + id_len])
                at += id_len
                try:
                    doc_id = raw.decode("utf-8")
                except UnicodeDecodeError as err:
                    raise CollectionFormatError(
                        f"corrupt document id in shard container: {err}"
                    ) from err
                if payload_index >= payload_count:
                    raise CollectionFormatError(
                        f"document {doc_id!r} references missing payload "
                        f"{payload_index}"
                    )
                if doc_id in self.doc_table:
                    raise CollectionFormatError(
                        f"duplicate document id {doc_id!r} in shard container"
                    )
                self.doc_table[doc_id] = payload_index
        except struct.error as err:  # pragma: no cover - bounds caught above
            raise CollectionFormatError(
                f"corrupt shard container record: {err}"
            ) from err
        counted: Dict[int, int] = {}
        for payload_index in self.doc_table.values():
            counted[payload_index] = counted.get(payload_index, 0) + 1
        for index, info in enumerate(self.payloads):
            if counted.get(index, 0) != info.multiplicity:
                raise CollectionFormatError(
                    f"payload {index} claims multiplicity "
                    f"{info.multiplicity} but the document table holds "
                    f"{counted.get(index, 0)}"
                )

    @property
    def documents(self) -> int:
        return len(self.doc_table)

    def payload_bytes(self, index: int) -> bytes:
        """One payload's raw snapshot bytes, copied out of the buffer."""
        info = self.payloads[index]
        return bytes(self._buffer[info.offset:info.offset + info.length])

    def synopsis(self, index: int) -> XClusterSynopsis:
        """The payload's synopsis, decoded once from a zero-copy window."""
        cached = self._synopses.get(index)
        if cached is not None:
            return cached
        info = self.payloads[index]
        window = memoryview(self._buffer)[info.offset:info.offset + info.length]
        try:
            synopsis = synopsis_from_snapshot(window, verify=False, lazy=True)
        except SynopsisFormatError as err:
            raise CollectionFormatError(
                f"payload {index} ({info.content_hash[:12]}…) is corrupt: "
                f"{err}"
            ) from err
        self._synopses[index] = synopsis
        return synopsis

    def estimator(
        self,
        index: int,
        plan_cache: Optional[dict] = None,
        stats: Optional[EstimatorStats] = None,
        max_path_length: int = 40,
    ) -> CompiledEstimator:
        """A compiled estimator on one payload, sharing the caller's
        plan cache and stats across every payload and shard."""
        cached = self._estimators.get(index)
        if cached is None:
            cached = CompiledEstimator(
                self.synopsis(index),
                max_path_length,
                plan_cache=plan_cache,
                stats=stats,
            )
            self._estimators[index] = cached
        return cached


class CollectionStore:
    """Serve estimates over a built collection directory.

    Containers open lazily and live in an LRU of at most
    ``max_open_shards`` readers; eviction simply drops the reader — any
    synopsis already decoded from it keeps the underlying mmap alive
    through its summary thunks, so eviction can never invalidate an
    estimate in flight.  One plan cache and one ``EstimatorStats``
    serve every payload estimator, so a twig compiled for one document
    is a cache hit for every other document and for the rollup.
    """

    def __init__(
        self,
        root: str,
        max_open_shards: int = 8,
        max_path_length: int = 40,
        verify: bool = False,
    ) -> None:
        self.root = root
        self.manifest: CollectionManifest = (
            verify_collection(root) if verify else load_manifest(root)
        )
        self.max_open_shards = max(1, max_open_shards)
        self.max_path_length = max_path_length
        self.plan_cache: dict = {}
        self.stats = EstimatorStats()
        self._readers: "OrderedDict[int, ShardReader]" = OrderedDict()
        self._rollup: Optional[XClusterSynopsis] = None
        self._rollup_estimator: Optional[CompiledEstimator] = None
        self.lru_hits = 0
        self.lru_misses = 0
        self.lru_evictions = 0

    # -- shard access -------------------------------------------------------

    def shard_of(self, doc_id: str) -> int:
        """The shard a document id routes to."""
        return shard_for_doc(doc_id, self.manifest.shard_count)

    def reader(self, shard_id: int) -> ShardReader:
        """The shard's open container, via the LRU of open mmaps."""
        reader = self._readers.get(shard_id)
        if reader is not None:
            self.lru_hits += 1
            self._readers.move_to_end(shard_id)
            return reader
        self.lru_misses += 1
        entry = self.manifest.shard(shard_id)
        path = os.path.join(self.root, entry.path)
        if not os.path.isfile(path):
            raise CollectionFormatError(
                f"shard {shard_id} container {entry.path} is missing"
            )
        reader = ShardReader.open(path, shard_id)
        self._readers[shard_id] = reader
        while len(self._readers) > self.max_open_shards:
            self._readers.popitem(last=False)
            self.lru_evictions += 1
        return reader

    def document_ids(self) -> Iterator[str]:
        """Every document id, in canonical (shard, container) order."""
        for entry in sorted(self.manifest.shards, key=lambda e: e.shard_id):
            yield from self.reader(entry.shard_id).doc_table

    def payload_of(self, doc_id: str) -> Tuple[int, int]:
        """``(shard_id, payload_index)`` for a document id."""
        shard_id = self.shard_of(doc_id)
        reader = self.reader(shard_id)
        index = reader.doc_table.get(doc_id)
        if index is None:
            raise KeyError(f"collection holds no document {doc_id!r}")
        return shard_id, index

    # -- estimation ---------------------------------------------------------

    def _estimator(self, shard_id: int, index: int) -> CompiledEstimator:
        return self.reader(shard_id).estimator(
            index, self.plan_cache, self.stats, self.max_path_length
        )

    def estimate(self, doc_id: str, query: TwigQuery) -> float:
        """Routed estimate: the document's own payload synopsis."""
        shard_id, index = self.payload_of(doc_id)
        return self._estimator(shard_id, index).estimate(query)

    def estimate_collection(self, query: TwigQuery) -> float:
        """Exact rollup: multiplicity-weighted sum over every payload.

        Payloads are visited in canonical (shard id, payload index)
        order, so the accumulation order — and therefore the float
        result — is independent of LRU state and identical to a fresh
        single-pass oracle over the same containers.
        """
        total = 0.0
        for entry in sorted(self.manifest.shards, key=lambda e: e.shard_id):
            reader = self.reader(entry.shard_id)
            for index, info in enumerate(reader.payloads):
                estimate = self._estimator(entry.shard_id, index).estimate(
                    query
                )
                total += info.multiplicity * estimate
        return total

    def rollup_synopsis(self) -> Optional[XClusterSynopsis]:
        """The materialized merged rollup, if the build produced one."""
        if self._rollup is not None:
            return self._rollup
        if self.manifest.rollup_path is None:
            return None
        from repro.core.snapshot import load_snapshot

        path = os.path.join(self.root, self.manifest.rollup_path)
        try:
            self._rollup = load_snapshot(path, verify=False, lazy=True)
        except SynopsisFormatError as err:
            raise CollectionFormatError(
                f"rollup snapshot is corrupt: {err}"
            ) from err
        except OSError as err:
            raise CollectionFormatError(
                f"rollup snapshot is missing: {err}"
            ) from err
        return self._rollup

    def estimate_rollup(self, query: TwigQuery) -> float:
        """Cross-collection estimate from the merged rollup synopsis.

        The rollup's root cluster counts every document root, while the
        estimator anchors one virtual document above the root (weight
        1.0), so its raw estimate is per *average document*; scaling by
        the root count yields the collection-wide figure.  Falls back
        to the exact sum when the build produced no rollup (mixed root
        labels).
        """
        rollup = self.rollup_synopsis()
        if rollup is None or rollup.root_id is None:
            return self.estimate_collection(query)
        if self._rollup_estimator is None:
            self._rollup_estimator = CompiledEstimator(
                rollup,
                self.max_path_length,
                plan_cache=self.plan_cache,
                stats=self.stats,
            )
        return rollup.root.count * self._rollup_estimator.estimate(query)

    # -- observability ------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, object]:
        """Manifest, budget, LRU, and estimator counters as one dict."""
        manifest = self.manifest
        return {
            "version": manifest.version,
            "shard_count": manifest.shard_count,
            "documents": manifest.documents,
            "distinct_structures": len(manifest.refs),
            "total_budget": manifest.total_budget,
            "compressed": manifest.compressed,
            "budget_distribution": manifest.budgets,
            "multipliers": [
                entry.multiplier
                for entry in sorted(manifest.shards, key=lambda e: e.shard_id)
            ],
            "rollup": manifest.rollup_path is not None,
            "open_shards": len(self._readers),
            "max_open_shards": self.max_open_shards,
            "lru": {
                "hits": self.lru_hits,
                "misses": self.lru_misses,
                "evictions": self.lru_evictions,
            },
            "estimator": {
                "queries_estimated": self.stats.queries_estimated,
                "plans_compiled": self.stats.plans_compiled,
                "plan_cache_hits": self.stats.plan_cache_hits,
                "plan_cache_hit_rate": self.stats.plan_cache_hit_rate,
            },
        }


def rollup_path(root: str) -> str:
    """Absolute path of a collection's rollup snapshot."""
    return os.path.join(root, ROLLUP_FILENAME)
