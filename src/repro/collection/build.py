"""Collection build and rebalance pipelines.

The naive way to summarize N documents is N independent runs of the
single-document pipeline: parse, derive the reference synopsis,
compress, serialize — per document, serially.  Real collections are
template-repetitive (the same catalog entry, log record, or listing
shape stamped out thousands of times), and the whole single-document
stack is deterministic, so the collection build exploits that head-on:

1. **content-hash dedup** — documents are grouped by the sha256 of
   their bytes; each *distinct structure* is ingested (columnar,
   byte-tokenizer), summarized, and compressed exactly once per budget
   variant, however many documents share it.  Under uniform budgets a
   structure's budget depends only on its own element count, so the
   build cache dedups across shards too;
2. **snapshot encode** — payloads are binary snapshots, packed into
   per-shard containers, so serving opens one mmap per shard instead
   of N files.

Both pipelines end the same way: containers and reference snapshots
written atomically, then the manifest (version bumped) renamed into
place last — the commit point.

:func:`rebalance_collection` is the workload-driven half: it clusters
the observed query log (:mod:`repro.collection.budget`), computes
bytes-conserving shard multipliers, picks each hot shard's B_str/B_val
split with :func:`repro.core.autobudget.allocate_budget` against the
stored reference snapshots, and rebuilds only the payloads whose
budgets actually changed — unchanged ``(structure, budget)`` pairs are
copied byte-for-byte from the existing containers (cold shards are
typically untouched), which is what makes rebalancing cheap next to a
full rebuild.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.collection.budget import (
    autobudget_sample,
    cluster_log,
    shard_multipliers,
)
from repro.collection.manifest import (
    CollectionFormatError,
    CollectionManifest,
    REFS_DIRNAME,
    ROLLUP_FILENAME,
    SHARD_DIRNAME,
    ShardEntry,
    atomic_write,
    load_manifest,
    save_manifest,
    sha256_hex,
)
from repro.collection.rollup import merge_rollup
from repro.collection.store import (
    PayloadRecord,
    ShardReader,
    shard_for_doc,
    write_shard_container,
)
from repro.core.autobudget import allocate_budget
from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.reference import build_reference_synopsis
from repro.core.snapshot import snapshot_to_bytes, synopsis_from_snapshot
from repro.query.ast import TwigQuery
from repro.xmltree.columnar import ingest_string


@dataclass
class CollectionConfig:
    """Build knobs for a collection.

    Attributes:
        shard_count: number of shards documents are routed across.
        total_budget: synopsis bytes across every shard's payloads
            (``B_str + B_val``, summed).
        structural_share: default B_str fraction of each payload's
            budget (rebalancing may re-pick it per shard).
        compress: ``False`` stores the uncompressed reference synopses
            as payloads — the exact mode the differential harness pits
            against the monolithic oracle.
        text_word_threshold: ingestion typing knob (parser semantics).
        min_payload_budget: floor for one payload's total budget.
    """

    shard_count: int = 8
    total_budget: int = 1 << 20
    structural_share: float = 0.3
    compress: bool = True
    text_word_threshold: int = 2
    min_payload_budget: int = 512


@dataclass
class BuildReport:
    """What one build/rebalance actually did (for benches and the CLI)."""

    documents: int = 0
    distinct_structures: int = 0
    payload_builds: int = 0
    payloads_reused: int = 0
    shards_written: int = 0
    multipliers: Dict[int, float] = field(default_factory=dict)
    ratios: Dict[int, float] = field(default_factory=dict)

    @property
    def dedup_rate(self) -> float:
        """Fraction of documents served by an already-built structure."""
        if not self.documents:
            return 0.0
        return 1.0 - self.distinct_structures / self.documents


@dataclass
class _Distinct:
    """One distinct document structure during a build."""

    content_hash: str
    xml: str
    elements: int
    #: shard id -> multiplicity.
    shards: Dict[int, int] = field(default_factory=dict)


def _split_budget(
    total: int, structural_share: float
) -> Tuple[int, int]:
    structural = max(128, int(total * structural_share))
    return structural, max(128, total - structural)


def _waterfill_floors(
    targets: Dict[object, float], floor: int
) -> Dict[object, int]:
    """Integer budgets ``>= floor`` whose sum tracks ``sum(targets)``.

    Clamping cold payloads up to the floor spends bytes the multiplier
    scheme already allocated elsewhere; this recovers them by scaling
    down the payloads still above the floor (mirroring
    :func:`repro.collection.budget.shard_multipliers`'s waterfill one
    level down), so a rebalance conserves total payload bytes up to
    integer rounding even when many shards are pinned at the floor.
    """
    total = sum(targets.values())
    values = {key: max(float(floor), value) for key, value in targets.items()}
    for _ in range(16):
        spent = sum(values.values())
        deficit = total - spent
        if abs(deficit) <= 1e-9 * max(1.0, total):
            break
        adjustable = [
            key
            for key, value in values.items()
            if value > floor or deficit > 0
        ]
        adjustable_spend = sum(values[key] for key in adjustable)
        if not adjustable or adjustable_spend <= 0:
            break
        scale = 1.0 + deficit / adjustable_spend
        for key in adjustable:
            values[key] = max(float(floor), values[key] * scale)
    return {key: int(round(value)) for key, value in values.items()}


def _build_payload_bytes(
    xml: str,
    budget: Tuple[int, int],
    compress: bool,
    text_word_threshold: int,
) -> Tuple[bytes, bytes]:
    """The reference snapshot and the ``(B_str, B_val)`` payload of one
    distinct structure (the payload is the reference when ``compress``
    is off)."""
    doc = ingest_string(xml, text_word_threshold=text_word_threshold)
    reference = build_reference_synopsis(doc, doc.value_paths())
    ref_bytes = snapshot_to_bytes(reference)
    if not compress:
        return ref_bytes, ref_bytes
    b_str, b_val = budget
    XClusterBuilder(
        BuildConfig(structural_budget=b_str, value_budget=b_val)
    ).compress(reference)
    return ref_bytes, snapshot_to_bytes(reference)


def _ensure_layout(root: str) -> None:
    os.makedirs(os.path.join(root, SHARD_DIRNAME), exist_ok=True)
    os.makedirs(os.path.join(root, REFS_DIRNAME), exist_ok=True)


def _ref_relpath(content_hash: str) -> str:
    return os.path.join(REFS_DIRNAME, f"{content_hash[:24]}.snap")


def _shard_relpath(shard_id: int) -> str:
    return os.path.join(SHARD_DIRNAME, f"shard-{shard_id:04d}.shard")


def build_collection(
    root: str,
    documents: Iterable[Tuple[str, str]],
    config: Optional[CollectionConfig] = None,
) -> Tuple[CollectionManifest, BuildReport]:
    """Build a collection directory from ``(doc_id, xml)`` pairs.

    Budgets are *uniform*: every shard's payloads get bytes
    proportional to their structure's element count at one global
    rate, with multiplier 1.0 recorded in the manifest — the baseline
    :func:`rebalance_collection` later reallocates from.
    """
    config = config if config is not None else CollectionConfig()
    if config.shard_count <= 0:
        raise ValueError("shard_count must be positive")
    report = BuildReport()

    # -- route and dedup ----------------------------------------------------
    distinct: Dict[str, _Distinct] = {}
    assignments: Dict[int, List[Tuple[str, str]]] = {}
    seen_ids: set = set()
    for doc_id, xml in documents:
        if doc_id in seen_ids:
            raise ValueError(f"duplicate document id {doc_id!r}")
        seen_ids.add(doc_id)
        content_hash = sha256_hex(xml.encode("utf-8"))
        shard_id = shard_for_doc(doc_id, config.shard_count)
        entry = distinct.get(content_hash)
        if entry is None:
            entry = distinct[content_hash] = _Distinct(
                content_hash, xml, elements=0
            )
        entry.shards[shard_id] = entry.shards.get(shard_id, 0) + 1
        assignments.setdefault(shard_id, []).append((doc_id, content_hash))
    if not seen_ids:
        raise ValueError("cannot build a collection from zero documents")
    report.documents = len(seen_ids)
    report.distinct_structures = len(distinct)

    # Element counts come from a cheap pre-pass ingest of each distinct
    # structure (the payload build re-ingests it; the strings are small
    # next to the build itself).
    for entry in distinct.values():
        entry.elements = len(
            ingest_string(
                entry.xml, text_word_threshold=config.text_word_threshold
            )
        )

    # -- uniform budgets ----------------------------------------------------
    # One global byte rate per element of *distinct* structure stored:
    # a shard's budget is proportional to the data it actually keeps.
    total_weight = sum(
        entry.elements
        for entry in distinct.values()
        for _ in entry.shards
    )
    rate = config.total_budget / max(1, total_weight)
    budgets: Dict[str, Tuple[int, int]] = {}
    for content_hash, entry in distinct.items():
        payload_total = max(
            config.min_payload_budget, int(round(rate * entry.elements))
        )
        budgets[content_hash] = _split_budget(
            payload_total, config.structural_share
        )

    # -- build each distinct structure once ---------------------------------
    ref_bytes: Dict[str, bytes] = {}
    payload_bytes: Dict[Tuple[str, int, int], bytes] = {}
    for content_hash, entry in sorted(distinct.items()):
        b_str, b_val = budgets[content_hash]
        (
            ref_bytes[content_hash],
            payload_bytes[(content_hash, b_str, b_val)],
        ) = _build_payload_bytes(
            entry.xml, (b_str, b_val), config.compress, config.text_word_threshold
        )
    report.payload_builds = len(distinct)
    report.payloads_reused = report.documents - report.distinct_structures

    # -- write the directory ------------------------------------------------
    _ensure_layout(root)
    refs_map: Dict[str, str] = {}
    for content_hash, data in sorted(ref_bytes.items()):
        rel = _ref_relpath(content_hash)
        atomic_write(os.path.join(root, rel), data)
        refs_map[content_hash] = rel

    multipliers = {
        shard_id: 1.0 for shard_id in range(config.shard_count)
    }
    ratios = {
        shard_id: config.structural_share
        for shard_id in range(config.shard_count)
    }
    previous_version = 0
    try:
        previous_version = load_manifest(root).version
    except CollectionFormatError:
        pass
    manifest = _write_collection(
        root,
        config,
        distinct,
        assignments,
        budgets_by_shard={
            shard_id: {
                content_hash: budgets[content_hash]
                for content_hash in {
                    h for _, h in assignments.get(shard_id, [])
                }
            }
            for shard_id in range(config.shard_count)
        },
        payload_bytes=payload_bytes,
        refs_map=refs_map,
        ref_bytes=ref_bytes,
        multipliers=multipliers,
        version=previous_version + 1,
        report=report,
    )
    report.multipliers = multipliers
    report.ratios = ratios
    return manifest, report


def _write_collection(
    root: str,
    config: CollectionConfig,
    distinct: Dict[str, _Distinct],
    assignments: Dict[int, List[Tuple[str, str]]],
    budgets_by_shard: Dict[int, Dict[str, Tuple[int, int]]],
    payload_bytes: Dict[Tuple[str, int, int], bytes],
    refs_map: Dict[str, str],
    ref_bytes: Dict[str, bytes],
    multipliers: Dict[int, float],
    version: int,
    report: BuildReport,
) -> CollectionManifest:
    """Write containers + rollup, then commit the manifest atomically."""
    entries: List[ShardEntry] = []
    for shard_id in range(config.shard_count):
        docs = sorted(assignments.get(shard_id, []))
        shard_hashes = sorted({content_hash for _, content_hash in docs})
        shard_budgets = budgets_by_shard.get(shard_id, {})
        payloads: List[PayloadRecord] = []
        index_of: Dict[str, int] = {}
        for content_hash in shard_hashes:
            b_str, b_val = shard_budgets[content_hash]
            entry = distinct[content_hash]
            index_of[content_hash] = len(payloads)
            payloads.append(
                PayloadRecord(
                    content_hash=content_hash,
                    data=payload_bytes[(content_hash, b_str, b_val)],
                    structural_budget=b_str,
                    value_budget=b_val,
                    elements=entry.elements,
                    multiplicity=entry.shards.get(shard_id, 0),
                )
            )
        doc_rows = [
            (doc_id, index_of[content_hash]) for doc_id, content_hash in docs
        ]
        rel = _shard_relpath(shard_id)
        data = write_shard_container(
            os.path.join(root, rel), payloads, doc_rows
        )
        report.shards_written += 1
        entries.append(
            ShardEntry(
                shard_id=shard_id,
                path=rel,
                content_hash=sha256_hex(data),
                documents=len(doc_rows),
                distinct=len(payloads),
                elements=sum(record.elements for record in payloads),
                budget=sum(
                    record.structural_budget + record.value_budget
                    for record in payloads
                ),
                multiplier=multipliers.get(shard_id, 1.0),
            )
        )

    rollup_rel: Optional[str] = None
    rollup_hash: Optional[str] = None
    rollup = merge_rollup(
        [
            (
                synopsis_from_snapshot(ref_bytes[content_hash], verify=False),
                sum(entry.shards.values()),
            )
            for content_hash, entry in sorted(distinct.items())
        ]
    )
    if rollup is not None:
        data = snapshot_to_bytes(rollup)
        atomic_write(os.path.join(root, ROLLUP_FILENAME), data)
        rollup_rel = ROLLUP_FILENAME
        rollup_hash = sha256_hex(data)

    manifest = CollectionManifest(
        shard_count=config.shard_count,
        total_budget=config.total_budget,
        structural_share=config.structural_share,
        compressed=config.compress,
        shards=entries,
        refs=refs_map,
        rollup_path=rollup_rel,
        rollup_hash=rollup_hash,
        version=version,
    )
    save_manifest(root, manifest)
    return manifest


def rebalance_collection(
    root: str,
    log: Sequence[Tuple[str, TwigQuery]],
    autobudget_queries: int = 8,
) -> Tuple[CollectionManifest, BuildReport]:
    """Reallocate synopsis bytes toward the shards the log actually hits.

    The total byte budget is conserved (see
    :func:`~repro.collection.budget.shard_multipliers`); hot shards
    additionally get their B_str/B_val split re-picked by
    :func:`~repro.core.autobudget.allocate_budget` against their
    dominant structure's reference snapshot, scored on the log's own
    query shapes.  Payloads whose ``(structure, budget)`` pair is
    unchanged are copied from the existing containers byte-for-byte.
    """
    manifest = load_manifest(root)
    config = CollectionConfig(
        shard_count=manifest.shard_count,
        total_budget=manifest.total_budget,
        structural_share=manifest.structural_share,
        compress=manifest.compressed,
    )
    report = BuildReport()

    clustered = cluster_log(
        log, lambda doc_id: shard_for_doc(doc_id, manifest.shard_count)
    )

    # Reload the current containers (they double as the payload-reuse
    # source) and reconstruct the routing/distinct tables from disk.
    readers: Dict[int, ShardReader] = {}
    distinct: Dict[str, _Distinct] = {}
    assignments: Dict[int, List[Tuple[str, str]]] = {}
    old_payloads: Dict[Tuple[str, int, int], bytes] = {}
    for entry in manifest.shards:
        reader = ShardReader.open(
            os.path.join(root, entry.path), entry.shard_id
        )
        readers[entry.shard_id] = reader
        for index, info in enumerate(reader.payloads):
            record = distinct.get(info.content_hash)
            if record is None:
                record = distinct[info.content_hash] = _Distinct(
                    info.content_hash, "", info.elements
                )
            record.shards[entry.shard_id] = info.multiplicity
            old_payloads[
                (info.content_hash, info.structural_budget, info.value_budget)
            ] = reader.payload_bytes(index)
        for doc_id, index in reader.doc_table.items():
            assignments.setdefault(entry.shard_id, []).append(
                (doc_id, reader.payloads[index].content_hash)
            )
    report.documents = manifest.documents
    report.distinct_structures = len(distinct)

    shard_weights = {
        entry.shard_id: entry.elements for entry in manifest.shards
    }
    multipliers = shard_multipliers(shard_weights, clustered.shard_heat)
    total_weight = sum(shard_weights.values())
    rate = manifest.total_budget / max(1, total_weight)

    # Per-shard B_str/B_val ratio: hot shards re-pick theirs with the
    # autobudget search against their dominant structure's reference.
    ratios = {
        entry.shard_id: manifest.structural_share
        for entry in manifest.shards
    }
    if manifest.compressed:
        for shard_id in clustered.hot_shards():
            reader = readers.get(shard_id)
            if reader is None or not reader.payloads:
                continue
            queries = clustered.shard_queries(
                shard_id, limit=autobudget_queries
            )
            if not queries:
                continue
            dominant = max(
                reader.payloads,
                key=lambda info: (info.multiplicity, info.elements),
            )
            ref = _load_reference(root, manifest, dominant.content_hash)
            if ref is None:
                continue
            budget = max(
                config.min_payload_budget,
                int(
                    round(
                        multipliers[shard_id] * rate * dominant.elements
                    )
                ),
            )
            sample = autobudget_sample(ref, queries)
            try:
                result = allocate_budget(ref, budget, sample, refine_steps=1)
            except ValueError:
                continue
            ratios[shard_id] = result.ratio

    # New budgets per (shard, structure); rebuild only what changed.
    # Targets come from the shard multipliers; the waterfill then
    # claws the minimum-budget floors back from unfloored payloads so
    # the rebalanced store spends the same total bytes it did before.
    targets = {
        (entry.shard_id, info.content_hash): multipliers[entry.shard_id]
        * rate
        * info.elements
        for entry in manifest.shards
        for info in readers[entry.shard_id].payloads
    }
    payload_totals = _waterfill_floors(targets, config.min_payload_budget)
    budgets_by_shard: Dict[int, Dict[str, Tuple[int, int]]] = {}
    needed: Dict[str, List[Tuple[int, int]]] = {}
    payload_bytes: Dict[Tuple[str, int, int], bytes] = {}
    for entry in manifest.shards:
        shard_id = entry.shard_id
        shard_budgets: Dict[str, Tuple[int, int]] = {}
        for info in readers[shard_id].payloads:
            payload_total = payload_totals[(shard_id, info.content_hash)]
            split = _split_budget(payload_total, ratios[shard_id])
            shard_budgets[info.content_hash] = split
            key = (info.content_hash, split[0], split[1])
            if key in old_payloads:
                payload_bytes[key] = old_payloads[key]
                report.payloads_reused += 1
            elif split not in needed.setdefault(info.content_hash, []):
                needed[info.content_hash].append(split)
        budgets_by_shard[shard_id] = shard_budgets

    for content_hash, variants in sorted(needed.items()):
        ref = _load_reference(root, manifest, content_hash)
        if ref is None:
            raise CollectionFormatError(
                f"cannot rebalance: reference snapshot for "
                f"{content_hash[:12]}… is missing"
            )
        for b_str, b_val in variants:
            trial = copy.deepcopy(ref)
            if manifest.compressed:
                XClusterBuilder(
                    BuildConfig(structural_budget=b_str, value_budget=b_val)
                ).compress(trial)
            payload_bytes[(content_hash, b_str, b_val)] = snapshot_to_bytes(
                trial
            )
            report.payload_builds += 1

    refs_map = dict(manifest.refs)
    ref_blobs = {
        content_hash: _read_ref_bytes(root, manifest, content_hash)
        for content_hash in distinct
    }
    new_manifest = _write_collection(
        root,
        config,
        distinct,
        {shard: sorted(rows) for shard, rows in assignments.items()},
        budgets_by_shard=budgets_by_shard,
        payload_bytes=payload_bytes,
        refs_map=refs_map,
        ref_bytes=ref_blobs,
        multipliers=multipliers,
        version=manifest.version + 1,
        report=report,
    )
    report.multipliers = multipliers
    report.ratios = ratios
    return new_manifest, report


def _read_ref_bytes(
    root: str, manifest: CollectionManifest, content_hash: str
) -> bytes:
    rel = manifest.refs.get(content_hash)
    if rel is None:
        raise CollectionFormatError(
            f"manifest has no reference snapshot for {content_hash[:12]}…"
        )
    try:
        with open(os.path.join(root, rel), "rb") as handle:
            return handle.read()
    except OSError as err:
        raise CollectionFormatError(
            f"reference snapshot {rel} is missing: {err}"
        ) from err


def _load_reference(
    root: str, manifest: CollectionManifest, content_hash: str
):
    rel = manifest.refs.get(content_hash)
    if rel is None:
        return None
    try:
        data = _read_ref_bytes(root, manifest, content_hash)
    except CollectionFormatError:
        return None
    return synopsis_from_snapshot(data, verify=False, lazy=False)
