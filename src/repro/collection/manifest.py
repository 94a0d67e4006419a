"""The versioned collection manifest and its typed error contract.

A collection is a directory: per-shard snapshot containers under
``shards/``, per-structure reference snapshots under ``refs/``, an
optional materialized rollup snapshot, and one ``manifest.json`` tying
them together.  The manifest is the collection's root of trust — every
open starts by loading it, and every build/rebalance rewrites it
**atomically** (write to a temporary sibling, ``fsync``, ``rename``) so
a crash mid-write leaves either the old manifest or the new one, never
a torn file.

Each shard entry records the container's content hash (sha256 of the
file bytes), so :func:`verify_collection` can detect truncated or
bit-rotted containers before a single payload is decoded.  Every
failure mode — missing manifest, torn JSON, wrong types, missing shard
file, hash mismatch — raises :class:`CollectionFormatError`, never a
raw ``KeyError``/``json.JSONDecodeError``/``struct.error``; this is the
same contract :mod:`repro.core.snapshot` keeps with
``SynopsisFormatError``, lifted to the directory level.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import InputError

#: Bump when a manifest field is added, removed, or retyped.
MANIFEST_FORMAT = 1

MANIFEST_FILENAME = "manifest.json"
SHARD_DIRNAME = "shards"
REFS_DIRNAME = "refs"
ROLLUP_FILENAME = "rollup.snap"


class CollectionFormatError(InputError):
    """A collection directory is malformed, torn, or inconsistent."""


def sha256_hex(data: bytes) -> str:
    """The content hash used throughout the collection tier."""
    return hashlib.sha256(data).hexdigest()


def hash_file(path: str) -> str:
    """sha256 of a file's bytes (streamed, so containers can be large)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory tmp + rename.

    The rename is atomic on POSIX, so readers racing a rebuild see
    either the previous file or the complete new one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


@dataclass
class ShardEntry:
    """One shard's manifest record.

    Attributes:
        shard_id: dense shard index in ``[0, shard_count)``.
        path: container path relative to the collection root.
        content_hash: sha256 of the container file bytes.
        documents: documents routed to this shard.
        distinct: distinct document structures (payload synopses).
        elements: total elements across the shard's distinct structures.
        budget: synopsis bytes attributed to this shard (the sum of its
            payload ``B_str + B_val`` budgets).
        multiplier: the workload heat multiplier its budgets were built
            with (1.0 under uniform allocation).
    """

    shard_id: int
    path: str
    content_hash: str
    documents: int
    distinct: int
    elements: int
    budget: int
    multiplier: float = 1.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form of this shard entry."""
        return {
            "shard_id": self.shard_id,
            "path": self.path,
            "content_hash": self.content_hash,
            "documents": self.documents,
            "distinct": self.distinct,
            "elements": self.elements,
            "budget": self.budget,
            "multiplier": self.multiplier,
        }


@dataclass
class CollectionManifest:
    """The collection's versioned root record.

    ``version`` counts rebuilds: every :func:`save_manifest` after a
    build or rebalance writes ``version + 1``, so serving tiers (and
    the stats CLI) can tell stale snapshots of the directory apart.
    """

    shard_count: int
    total_budget: int
    structural_share: float
    compressed: bool
    shards: List[ShardEntry] = field(default_factory=list)
    refs: Dict[str, str] = field(default_factory=dict)
    rollup_path: Optional[str] = None
    rollup_hash: Optional[str] = None
    version: int = 1
    manifest_format: int = MANIFEST_FORMAT

    @property
    def documents(self) -> int:
        return sum(entry.documents for entry in self.shards)

    @property
    def budgets(self) -> List[int]:
        """Per-shard attributed budgets, in shard-id order."""
        return [entry.budget for entry in sorted(self.shards, key=lambda e: e.shard_id)]

    def shard(self, shard_id: int) -> ShardEntry:
        """The entry for one shard id (typed error if absent)."""
        for entry in self.shards:
            if entry.shard_id == shard_id:
                return entry
        raise CollectionFormatError(f"manifest has no shard {shard_id}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form of the whole manifest."""
        return {
            "manifest_format": self.manifest_format,
            "version": self.version,
            "shard_count": self.shard_count,
            "total_budget": self.total_budget,
            "structural_share": self.structural_share,
            "compressed": self.compressed,
            "shards": [entry.to_dict() for entry in self.shards],
            "refs": dict(sorted(self.refs.items())),
            "rollup_path": self.rollup_path,
            "rollup_hash": self.rollup_hash,
        }


_SHARD_FIELDS = {
    "shard_id": int,
    "path": str,
    "content_hash": str,
    "documents": int,
    "distinct": int,
    "elements": int,
    "budget": int,
    "multiplier": (int, float),
}

_MANIFEST_FIELDS = {
    "manifest_format": int,
    "version": int,
    "shard_count": int,
    "total_budget": int,
    "structural_share": (int, float),
    "compressed": bool,
    "shards": list,
    "refs": dict,
}


def _typed(mapping: Dict[str, Any], name: str, expected, where: str):
    if name not in mapping:
        raise CollectionFormatError(f"{where} is missing field {name!r}")
    value = mapping[name]
    if isinstance(value, bool) and expected is not bool and bool not in (
        expected if isinstance(expected, tuple) else (expected,)
    ):
        raise CollectionFormatError(f"{where} field {name!r} is a bool")
    if not isinstance(value, expected):
        raise CollectionFormatError(
            f"{where} field {name!r} is {type(value).__name__}"
        )
    return value


def manifest_from_dict(payload: Any) -> CollectionManifest:
    """Decode and validate a manifest dictionary."""
    if not isinstance(payload, dict):
        raise CollectionFormatError(
            f"manifest is {type(payload).__name__}, expected an object"
        )
    for name, expected in _MANIFEST_FIELDS.items():
        _typed(payload, name, expected, "manifest")
    if payload["manifest_format"] != MANIFEST_FORMAT:
        raise CollectionFormatError(
            f"manifest format {payload['manifest_format']} is not "
            f"{MANIFEST_FORMAT}"
        )
    shards: List[ShardEntry] = []
    for index, entry in enumerate(payload["shards"]):
        if not isinstance(entry, dict):
            raise CollectionFormatError(f"shard entry {index} is not an object")
        where = f"shard entry {index}"
        values = {
            name: _typed(entry, name, expected, where)
            for name, expected in _SHARD_FIELDS.items()
        }
        shards.append(ShardEntry(**values))
    seen = {entry.shard_id for entry in shards}
    if len(seen) != len(shards):
        raise CollectionFormatError("manifest repeats a shard id")
    for entry in shards:
        if not 0 <= entry.shard_id < payload["shard_count"]:
            raise CollectionFormatError(
                f"shard id {entry.shard_id} outside "
                f"[0, {payload['shard_count']})"
            )
    refs = payload["refs"]
    for key, value in refs.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise CollectionFormatError("manifest refs must map str -> str")
    rollup_path = payload.get("rollup_path")
    rollup_hash = payload.get("rollup_hash")
    if rollup_path is not None and not isinstance(rollup_path, str):
        raise CollectionFormatError("manifest rollup_path must be a string")
    if rollup_hash is not None and not isinstance(rollup_hash, str):
        raise CollectionFormatError("manifest rollup_hash must be a string")
    return CollectionManifest(
        shard_count=payload["shard_count"],
        total_budget=payload["total_budget"],
        structural_share=float(payload["structural_share"]),
        compressed=payload["compressed"],
        shards=shards,
        refs=dict(refs),
        rollup_path=rollup_path,
        rollup_hash=rollup_hash,
        version=payload["version"],
        manifest_format=payload["manifest_format"],
    )


def load_manifest(root: str) -> CollectionManifest:
    """Load and validate ``root/manifest.json``.

    Raises :class:`CollectionFormatError` for a missing directory or
    manifest, torn/truncated JSON, or any schema violation.
    """
    path = os.path.join(root, MANIFEST_FILENAME)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as err:
        raise CollectionFormatError(
            f"{root} has no readable collection manifest: {err}"
        ) from err
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as err:
        raise CollectionFormatError(
            f"manifest at {path} is not valid JSON (torn write?): {err}"
        ) from err
    return manifest_from_dict(payload)


def save_manifest(root: str, manifest: CollectionManifest) -> str:
    """Atomically write the manifest; returns its path."""
    path = os.path.join(root, MANIFEST_FILENAME)
    data = json.dumps(manifest.to_dict(), indent=2, sort_keys=True).encode(
        "utf-8"
    )
    atomic_write(path, data + b"\n")
    return path


def verify_collection(root: str, manifest: Optional[CollectionManifest] = None) -> CollectionManifest:
    """Check every file the manifest references exists and hash-matches.

    This is the partial-write recovery gate: a crash between container
    writes and the manifest rename leaves either a manifest referencing
    only fully written files (rename happened last) or the previous
    manifest (rename never happened); any other combination — missing
    shard container, truncated container, stale bytes — fails here with
    a typed error naming the offending file.
    """
    if manifest is None:
        manifest = load_manifest(root)
    for entry in manifest.shards:
        path = os.path.join(root, entry.path)
        if not os.path.isfile(path):
            raise CollectionFormatError(
                f"shard {entry.shard_id} container {entry.path} is missing"
            )
        actual = hash_file(path)
        if actual != entry.content_hash:
            raise CollectionFormatError(
                f"shard {entry.shard_id} container {entry.path} hash "
                f"mismatch: manifest {entry.content_hash[:12]}…, "
                f"file {actual[:12]}…"
            )
    for content_hash, ref_path in manifest.refs.items():
        path = os.path.join(root, ref_path)
        if not os.path.isfile(path):
            raise CollectionFormatError(
                f"reference snapshot {ref_path} for structure "
                f"{content_hash[:12]}… is missing"
            )
    if manifest.rollup_path is not None:
        path = os.path.join(root, manifest.rollup_path)
        if not os.path.isfile(path):
            raise CollectionFormatError(
                f"rollup snapshot {manifest.rollup_path} is missing"
            )
        if manifest.rollup_hash is not None:
            actual = hash_file(path)
            if actual != manifest.rollup_hash:
                raise CollectionFormatError(
                    f"rollup snapshot hash mismatch: manifest "
                    f"{manifest.rollup_hash[:12]}…, file {actual[:12]}…"
                )
    return manifest
