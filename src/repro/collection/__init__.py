"""Directory-of-snapshots collection store (multi-document serving).

The collection tier generalizes the single-snapshot serving story to a
corpus: documents are routed to shards by a stable content-independent
hash of their id, each shard keeps one mmap-able container of snapshot
payloads (deduplicated by document content hash), a versioned JSON
manifest ties the directory together, and a merged rollup synopsis
answers cross-collection questions without opening any shard.

Modules:
    manifest  — the versioned manifest, atomic writes, typed errors.
    store     — shard container format, readers, the LRU'd store.
    build     — parallel dedup build and workload-driven rebalance.
    budget    — query-log clustering and bytes-conserving multipliers.
    rollup    — merged rollup synopsis and the merged-document oracle.
    export    — edge-model CSV dump.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "repro.collection.budget": (
            "ClusteredLog",
            "QueryCluster",
            "autobudget_sample",
            "cluster_log",
            "shard_multipliers",
        ),
        "repro.collection.build": (
            "BuildReport",
            "CollectionConfig",
            "build_collection",
            "rebalance_collection",
        ),
        "repro.collection.export": ("export_edge_model",),
        "repro.collection.manifest": (
            "CollectionFormatError",
            "CollectionManifest",
            "ShardEntry",
            "load_manifest",
            "save_manifest",
            "verify_collection",
        ),
        "repro.collection.rollup": ("merge_rollup", "merged_document_events"),
        "repro.collection.store": (
            "CollectionStore",
            "ShardReader",
            "shard_for_doc",
        ),
    },
)
