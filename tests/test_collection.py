"""The collection store: format robustness, routing parity, rebalance.

The contracts under test mirror the snapshot suite one level up:

* **format** — every failure mode of the directory (truncated manifest,
  truncated shard container, missing files, hash mismatches, wrong
  types) surfaces as :class:`CollectionFormatError`, never a raw
  ``KeyError`` / ``struct.error`` / ``json.JSONDecodeError``;
* **routing** — shard-routed estimates are bit-equal to a synopsis
  built directly from the same document (zero drift), and the
  collection-wide sum matches per-document exact counts in
  uncompressed mode;
* **economy** — the dedup build compresses each distinct structure
  once, and rebalancing conserves total synopsis bytes while moving
  them toward the shards the log hits.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.collection import (
    CollectionConfig,
    CollectionFormatError,
    CollectionStore,
    ShardReader,
    build_collection,
    cluster_log,
    load_manifest,
    merge_rollup,
    merged_document_events,
    rebalance_collection,
    shard_for_doc,
    shard_multipliers,
    verify_collection,
)
from repro.collection.export import export_edge_model
from repro.collection.manifest import (
    MANIFEST_FILENAME,
    manifest_from_dict,
    save_manifest,
    sha256_hex,
)
from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.estimation import CompiledEstimator
from repro.core.reference import build_reference_synopsis
from repro.core.snapshot import snapshot_to_bytes
from repro.query.interval import IntervalEvaluator
from repro.query.xpath import parse_twig
from repro.xmltree.columnar import from_events, ingest_string

# ---------------------------------------------------------------------------
# corpus fixtures


def _template(variant: int, items: int) -> str:
    body = "".join(
        f"<item><entry><name>v{variant}-{i % 3}</name>"
        f"<info>{i % 7}</info></entry><note>w{variant}</note></item>"
        for i in range(items)
    )
    return f"<root><head><name>t{variant}</name></head>{body}</root>"


TEMPLATES = [_template(variant, 6 + 4 * variant) for variant in range(3)]

#: 18 documents drawn from 3 distinct structures.
DOCUMENTS = [(f"doc-{i:03d}", TEMPLATES[i % 3]) for i in range(18)]

QUERIES = [
    parse_twig("//item/entry/name"),
    parse_twig("//item//info"),
    parse_twig("/root/head/name"),
    parse_twig("//note"),
]


@pytest.fixture(scope="module")
def exact_collection(tmp_path_factory):
    """An uncompressed (exact-mode) collection plus its manifest."""
    root = str(tmp_path_factory.mktemp("coll-exact"))
    manifest, report = build_collection(
        root,
        DOCUMENTS,
        CollectionConfig(shard_count=4, compress=False),
    )
    return root, manifest, report


@pytest.fixture(scope="module")
def compressed_collection(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("coll-small"))
    manifest, report = build_collection(
        root,
        DOCUMENTS,
        CollectionConfig(shard_count=4, total_budget=120_000, compress=True),
    )
    return root, manifest, report


# ---------------------------------------------------------------------------
# routing


class TestRouter:
    def test_router_is_deterministic_and_in_range(self):
        for doc_id, _ in DOCUMENTS:
            shard = shard_for_doc(doc_id, 7)
            assert 0 <= shard < 7
            assert shard == shard_for_doc(doc_id, 7)

    def test_router_is_process_stable(self):
        # CRC32-based, so these values can never silently change with
        # interpreter hash randomization (a re-run of a built
        # collection must route every document to the same shard).
        assert shard_for_doc("doc-000", 8) == 6
        assert shard_for_doc("doc-001", 8) == 0
        assert shard_for_doc("alpha/beta.xml", 5) == 3

    def test_router_spreads_documents(self):
        shards = {shard_for_doc(doc_id, 4) for doc_id, _ in DOCUMENTS}
        assert len(shards) > 1


# ---------------------------------------------------------------------------
# build + dedup


class TestBuild:
    def test_dedup_builds_each_distinct_structure_once(self, exact_collection):
        _, manifest, report = exact_collection
        assert report.documents == len(DOCUMENTS)
        assert report.distinct_structures == len(TEMPLATES)
        assert report.payload_builds == len(TEMPLATES)
        assert report.payloads_reused == len(DOCUMENTS) - len(TEMPLATES)
        assert manifest.documents == len(DOCUMENTS)

    def test_payloads_equal_a_fresh_ingest_build(self, compressed_collection):
        # The build ingests each structure once and compresses its
        # payload from the decoded reference snapshot; compressing a
        # fresh ingest of the same XML gives equal bytes.
        root, manifest, _ = compressed_collection
        xml_of = {sha256_hex(xml.encode("utf-8")): xml for xml in TEMPLATES}
        checked = 0
        for entry in manifest.shards:
            reader = ShardReader.open(os.path.join(root, entry.path), entry.shard_id)
            for index, info in enumerate(reader.payloads):
                doc = ingest_string(xml_of[info.content_hash], text_word_threshold=2)
                reference = build_reference_synopsis(doc, doc.value_paths())
                ref_path = os.path.join(root, manifest.refs[info.content_hash])
                with open(ref_path, "rb") as handle:
                    assert handle.read() == snapshot_to_bytes(reference)
                XClusterBuilder(
                    BuildConfig(
                        structural_budget=info.structural_budget,
                        value_budget=info.value_budget,
                    )
                ).compress(reference)
                assert reader.payload_bytes(index) == snapshot_to_bytes(reference)
                checked += 1
        assert checked >= len(TEMPLATES)

    def test_manifest_records_refs_per_structure(self, exact_collection):
        root, manifest, _ = exact_collection
        assert len(manifest.refs) == len(TEMPLATES)
        for rel in manifest.refs.values():
            assert os.path.isfile(os.path.join(root, rel))

    def test_verify_passes_on_a_fresh_build(self, exact_collection):
        root, _, _ = exact_collection
        verify_collection(root)

    def test_empty_corpus_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="zero documents"):
            build_collection(str(tmp_path / "c"), [], CollectionConfig())

    def test_duplicate_doc_ids_are_rejected(self, tmp_path):
        docs = [("a", TEMPLATES[0]), ("a", TEMPLATES[1])]
        with pytest.raises(ValueError, match="duplicate document id"):
            build_collection(str(tmp_path / "c"), docs, CollectionConfig())

    def test_rebuild_bumps_the_version(self, tmp_path):
        root = str(tmp_path / "c")
        config = CollectionConfig(shard_count=2, compress=False)
        manifest, _ = build_collection(root, DOCUMENTS[:4], config)
        assert manifest.version == 1
        manifest, _ = build_collection(root, DOCUMENTS[:4], config)
        assert manifest.version == 2


# ---------------------------------------------------------------------------
# estimation parity


class TestEstimation:
    def test_routed_estimates_bit_equal_direct_synopses(
        self, exact_collection
    ):
        root, _, _ = exact_collection
        store = CollectionStore(root)
        direct = {}
        for doc_id, xml in DOCUMENTS:
            if xml not in direct:
                doc = ingest_string(xml, text_word_threshold=2)
                direct[xml] = CompiledEstimator(
                    build_reference_synopsis(doc, doc.value_paths())
                )
            for query in QUERIES:
                assert store.estimate(doc_id, query) == direct[xml].estimate(
                    query
                )

    def test_collection_sum_matches_exact_counts(self, exact_collection):
        root, _, _ = exact_collection
        store = CollectionStore(root)
        for query in QUERIES:
            exact = sum(
                IntervalEvaluator(
                    ingest_string(xml, text_word_threshold=2)
                ).selectivity(query)
                for _, xml in DOCUMENTS
            )
            assert store.estimate_collection(query) == pytest.approx(
                exact, rel=1e-9
            )

    def test_rollup_agrees_with_exact_sum_on_structure(
        self, exact_collection
    ):
        root, _, _ = exact_collection
        store = CollectionStore(root)
        for query in QUERIES[:2]:  # non-root-anchored structural twigs
            assert store.estimate_rollup(query) == pytest.approx(
                store.estimate_collection(query), rel=1e-6
            )

    def test_unknown_document_raises_key_error(self, exact_collection):
        root, _, _ = exact_collection
        store = CollectionStore(root)
        with pytest.raises(KeyError, match="no document"):
            store.estimate("doc-999", QUERIES[0])

    def test_plan_cache_is_shared_across_shards(self, exact_collection):
        root, _, _ = exact_collection
        store = CollectionStore(root)
        store.estimate_collection(QUERIES[0])
        compiled_once = store.stats.plans_compiled
        store.estimate_collection(QUERIES[0])
        assert store.stats.plans_compiled == compiled_once
        assert store.stats.plan_cache_hits > 0

    def test_lru_eviction_keeps_serving(self, exact_collection):
        root, _, _ = exact_collection
        store = CollectionStore(root, max_open_shards=1)
        for query in QUERIES:
            for doc_id, xml in DOCUMENTS:
                assert store.estimate(doc_id, query) >= 0.0
        assert store.lru_evictions > 0
        assert len(store._readers) == 1

    def test_document_ids_cover_the_corpus(self, exact_collection):
        root, _, _ = exact_collection
        store = CollectionStore(root)
        assert sorted(store.document_ids()) == sorted(
            doc_id for doc_id, _ in DOCUMENTS
        )


# ---------------------------------------------------------------------------
# rollup semantics


class TestRollup:
    def test_merged_document_events_round_trip(self):
        merged = from_events(
            merged_document_events(xml for _, xml in DOCUMENTS[:6]),
            text_word_threshold=2,
        )
        separate = [
            ingest_string(xml, text_word_threshold=2)
            for _, xml in DOCUMENTS[:6]
        ]
        # One shared root plus everything below each source root.
        assert len(merged) == 1 + sum(len(doc) - 1 for doc in separate)

    def test_merged_documents_must_share_a_root_label(self):
        other = "<data><x>1</x></data>"
        with pytest.raises(ValueError, match="cannot merge root"):
            list(merged_document_events([TEMPLATES[0], other]))

    def test_mixed_roots_produce_no_rollup_but_serve_exact(self, tmp_path):
        root = str(tmp_path / "mixed")
        docs = [
            ("a", TEMPLATES[0]),
            ("b", "<data><item><entry><name>x</name></entry></item></data>"),
        ]
        manifest, _ = build_collection(
            root, docs, CollectionConfig(shard_count=2, compress=False)
        )
        assert manifest.rollup_path is None
        store = CollectionStore(root)
        query = QUERIES[0]
        # estimate_rollup falls back to the exact sum.
        assert store.estimate_rollup(query) == store.estimate_collection(query)

    def test_merge_rollup_scales_counts_by_multiplicity(self):
        doc = ingest_string(TEMPLATES[0], text_word_threshold=2)
        reference = build_reference_synopsis(doc, doc.value_paths())
        rollup = merge_rollup([(reference, 5)])
        assert rollup is not None
        assert rollup.root.count == 5 * reference.root.count

    def test_merge_rollup_of_nothing_is_none(self):
        assert merge_rollup([]) is None


# ---------------------------------------------------------------------------
# workload-driven rebalance


class TestRebalance:
    def _skewed_log(self, store, per_query=40):
        hot = [doc_id for doc_id, _ in DOCUMENTS if store.shard_of(doc_id) == 0]
        if not hot:  # pragma: no cover - corpus pins shard 0 occupancy
            hot = [DOCUMENTS[0][0]]
        return [(doc_id, QUERIES[0]) for doc_id in hot for _ in range(per_query)]

    def test_rebalance_moves_bytes_toward_hot_shards(self, tmp_path):
        root = str(tmp_path / "c")
        config = CollectionConfig(
            shard_count=4, total_budget=200_000, compress=True
        )
        manifest, _ = build_collection(root, DOCUMENTS, config)
        store = CollectionStore(root)
        log = self._skewed_log(store)
        rebalanced, report = rebalance_collection(root, log)
        assert rebalanced.version == manifest.version + 1
        assert report.multipliers[0] > 1.0
        hot_before = manifest.shard(0).budget
        hot_after = rebalanced.shard(0).budget
        assert hot_after > hot_before
        # Conservation: total bytes unchanged up to per-payload rounding
        # and minimum-budget floors.
        assert sum(rebalanced.budgets) == pytest.approx(
            sum(manifest.budgets), rel=0.03
        )

    def test_rebalance_with_empty_log_reuses_every_payload(self, tmp_path):
        root = str(tmp_path / "c")
        config = CollectionConfig(
            shard_count=3, total_budget=150_000, compress=True
        )
        build_collection(root, DOCUMENTS, config)
        rebalanced, report = rebalance_collection(root, [])
        assert report.payload_builds == 0
        assert report.payloads_reused > 0
        assert all(
            entry.multiplier == 1.0 for entry in rebalanced.shards
        )

    def test_rebalanced_store_still_serves_and_verifies(self, tmp_path):
        root = str(tmp_path / "c")
        build_collection(
            root,
            DOCUMENTS,
            CollectionConfig(shard_count=4, total_budget=200_000),
        )
        store = CollectionStore(root)
        before = store.estimate_collection(QUERIES[0])
        rebalance_collection(root, self._skewed_log(store))
        rebalanced = CollectionStore(root, verify=True)
        after = rebalanced.estimate_collection(QUERIES[0])
        # Budgets moved but the corpus did not; estimates stay close.
        assert after == pytest.approx(before, rel=0.35)


class TestBudgetMath:
    def test_multipliers_conserve_weighted_total(self):
        weights = {0: 100, 1: 200, 2: 300, 3: 400}
        heat = {0: 90, 1: 5, 2: 5, 3: 0}
        multipliers = shard_multipliers(weights, heat)
        total = sum(weights.values())
        spent = sum(multipliers[s] * weights[s] for s in weights)
        assert spent == pytest.approx(total, rel=1e-4)
        assert multipliers[0] > 1.0
        assert all(0.25 <= m <= 8.0 for m in multipliers.values())

    def test_cold_log_means_uniform_multipliers(self):
        weights = {0: 10, 1: 20}
        assert shard_multipliers(weights, {}) == {0: 1.0, 1: 1.0}

    def test_cluster_log_groups_by_plan_signature(self):
        log = [
            ("a", parse_twig("//item/entry/name")),
            ("b", parse_twig("//item/entry/name")),
            ("a", parse_twig("//note")),
        ]
        clustered = cluster_log(log, lambda doc_id: 0 if doc_id == "a" else 1)
        assert clustered.total == 3
        assert len(clustered.clusters) == 2
        assert clustered.shard_heat == {0: 2, 1: 1}
        assert clustered.clusters[0].count == 2
        assert clustered.shard_queries(0, limit=1)


# ---------------------------------------------------------------------------
# corruption: every failure is a typed CollectionFormatError


class TestCorruption:
    def test_missing_directory_is_typed(self, tmp_path):
        with pytest.raises(CollectionFormatError, match="manifest"):
            load_manifest(str(tmp_path / "nope"))

    def test_every_manifest_truncation_point_is_typed(self, tmp_path):
        root = str(tmp_path / "c")
        build_collection(
            root, DOCUMENTS[:4], CollectionConfig(shard_count=2)
        )
        path = os.path.join(root, MANIFEST_FILENAME)
        with open(path, "rb") as handle:
            blob = handle.read()
        # Dropping only trailing whitespace leaves valid JSON; every
        # truncation into the JSON body itself must raise typed.
        for keep in range(len(blob.rstrip())):
            with open(path, "wb") as handle:
                handle.write(blob[:keep])
            with pytest.raises(CollectionFormatError):
                load_manifest(root)

    def test_every_container_truncation_point_is_typed(self, tmp_path):
        root = str(tmp_path / "c")
        manifest, _ = build_collection(
            root, DOCUMENTS[:6], CollectionConfig(shard_count=1)
        )
        path = os.path.join(root, manifest.shards[0].path)
        with open(path, "rb") as handle:
            blob = handle.read()
        for keep in range(len(blob)):
            with pytest.raises(CollectionFormatError):
                ShardReader(blob[:keep])

    def test_missing_shard_container_fails_verification(self, tmp_path):
        root = str(tmp_path / "c")
        manifest, _ = build_collection(
            root, DOCUMENTS[:6], CollectionConfig(shard_count=2)
        )
        victim = os.path.join(root, manifest.shards[1].path)
        os.remove(victim)
        with pytest.raises(CollectionFormatError, match="missing"):
            verify_collection(root)
        # Lazy open fails with the same typed error, not FileNotFoundError.
        store = CollectionStore(root)
        with pytest.raises(CollectionFormatError, match="missing"):
            store.reader(manifest.shards[1].shard_id)

    def test_container_hash_mismatch_fails_verification(self, tmp_path):
        root = str(tmp_path / "c")
        manifest, _ = build_collection(
            root, DOCUMENTS[:6], CollectionConfig(shard_count=1)
        )
        path = os.path.join(root, manifest.shards[0].path)
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        with pytest.raises(CollectionFormatError, match="hash mismatch"):
            verify_collection(root)

    def test_rollup_hash_mismatch_fails_verification(self, tmp_path):
        root = str(tmp_path / "c")
        manifest, _ = build_collection(
            root, DOCUMENTS[:6], CollectionConfig(shard_count=1)
        )
        assert manifest.rollup_path is not None
        path = os.path.join(root, manifest.rollup_path)
        with open(path, "ab") as handle:
            handle.write(b"\x00")
        with pytest.raises(CollectionFormatError, match="rollup"):
            verify_collection(root)

    def test_manifest_type_violations_are_typed(self):
        with pytest.raises(CollectionFormatError, match="expected an object"):
            manifest_from_dict([1, 2])
        base = {
            "manifest_format": 1,
            "version": 1,
            "shard_count": 1,
            "total_budget": 100,
            "structural_share": 0.3,
            "compressed": True,
            "shards": [],
            "refs": {},
            "rollup_path": None,
            "rollup_hash": None,
        }
        for field, bad in (
            ("shard_count", "4"),
            ("shard_count", True),  # a bool is not an int here
            ("compressed", 1),
            ("shards", {}),
            ("refs", []),
        ):
            payload = dict(base)
            payload[field] = bad
            with pytest.raises(CollectionFormatError, match=field):
                manifest_from_dict(payload)

    def test_manifest_rejects_duplicate_and_out_of_range_shards(self):
        entry = {
            "shard_id": 0,
            "path": "shards/s.shard",
            "content_hash": "00" * 32,
            "documents": 1,
            "distinct": 1,
            "elements": 5,
            "budget": 100,
            "multiplier": 1.0,
        }
        base = {
            "manifest_format": 1,
            "version": 1,
            "shard_count": 1,
            "total_budget": 100,
            "structural_share": 0.3,
            "compressed": False,
            "shards": [entry, dict(entry)],
            "refs": {},
            "rollup_path": None,
            "rollup_hash": None,
        }
        with pytest.raises(CollectionFormatError, match="repeats"):
            manifest_from_dict(base)
        base["shards"] = [dict(entry, shard_id=3)]
        with pytest.raises(CollectionFormatError, match="outside"):
            manifest_from_dict(base)

    def test_wrong_manifest_format_version_is_typed(self, tmp_path):
        root = str(tmp_path / "c")
        manifest, _ = build_collection(
            root, DOCUMENTS[:4], CollectionConfig(shard_count=1)
        )
        payload = manifest.to_dict()
        payload["manifest_format"] = 99
        with pytest.raises(CollectionFormatError, match="format 99"):
            manifest_from_dict(payload)

    def test_save_manifest_is_atomic(self, tmp_path):
        root = str(tmp_path / "c")
        manifest, _ = build_collection(
            root, DOCUMENTS[:4], CollectionConfig(shard_count=1)
        )
        # A crash mid-save must leave no torn manifest: the tmp sibling
        # is cleaned up by the rename, and the manifest still loads.
        save_manifest(root, manifest)
        assert [
            name for name in os.listdir(root) if name.endswith(".tmp")
        ] == []
        load_manifest(root)


# ---------------------------------------------------------------------------
# export


class TestExport:
    def test_edge_model_export_is_complete(self, exact_collection, tmp_path):
        root, manifest, _ = exact_collection
        out = str(tmp_path / "csv")
        written = export_edge_model(CollectionStore(root), out)
        assert set(written) == {
            "shards.csv",
            "documents.csv",
            "nodes.csv",
            "edges.csv",
        }
        assert written["shards.csv"] == manifest.shard_count
        assert written["documents.csv"] == len(DOCUMENTS)
        assert written["nodes.csv"] > 0
        assert written["edges.csv"] > 0
        with open(os.path.join(out, "documents.csv")) as handle:
            header = handle.readline().strip()
        assert header == "doc_id,shard_id,payload_index,content_hash"

    def test_export_is_deterministic(self, exact_collection, tmp_path):
        root, _, _ = exact_collection
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        export_edge_model(CollectionStore(root), out_a)
        export_edge_model(CollectionStore(root), out_b)
        for name in ("shards.csv", "documents.csv", "nodes.csv", "edges.csv"):
            with open(os.path.join(out_a, name)) as handle:
                first = handle.read()
            with open(os.path.join(out_b, name)) as handle:
                assert handle.read() == first


# ---------------------------------------------------------------------------
# serving


class TestServing:
    def _engine(self, root):
        from repro.serve import CollectionServeEngine

        return CollectionServeEngine(CollectionStore(root))

    def test_engine_routes_and_sums(self, exact_collection):
        root, _, _ = exact_collection
        engine = self._engine(root)

        async def run():
            doc = await engine.estimate_doc("doc-001", QUERIES[0])
            total = await engine.estimate(QUERIES[0])
            rolled = await engine.estimate_rollup(QUERIES[0])
            return doc, total, rolled

        doc, total, rolled = asyncio.run(run())
        store = CollectionStore(root)
        assert doc == store.estimate("doc-001", QUERIES[0])
        assert total == store.estimate_collection(QUERIES[0])
        assert rolled == pytest.approx(total, rel=1e-6)

    def test_engine_rejects_updates(self, exact_collection):
        root, _, _ = exact_collection
        with pytest.raises(ValueError, match="read-only"):
            self._engine(root).apply_updates([])

    def test_stats_carry_the_collection_section(self, exact_collection):
        root, _, _ = exact_collection
        snapshot = self._engine(root).stats_snapshot()
        assert snapshot["collection"]["documents"] == len(DOCUMENTS)
        assert "lru" in snapshot["collection"]

    def test_http_routing_by_document_id(self, exact_collection):
        from repro.serve import ServeClient
        from repro.serve.http import SynopsisServer

        root, _, _ = exact_collection
        engine = self._engine(root)

        async def main():
            async with SynopsisServer(engine) as server:
                client = ServeClient(server.host, server.port)
                routed = await client.estimate(
                    {"query": "//item/entry/name", "doc": "doc-001"}
                )
                total = await client.estimate({"query": "//item/entry/name"})
                rollup = await client.estimate(
                    {"query": "//item/entry/name", "scope": "rollup"}
                )
                unknown = await client.estimate(
                    {"query": "//note", "doc": "doc-999"}
                )
                bad_scope = await client.estimate(
                    {"query": "//note", "scope": "galaxy"}
                )
                await client.close()
            return routed, total, rollup, unknown, bad_scope

        routed, total, rollup, unknown, bad_scope = asyncio.run(main())
        store = CollectionStore(root)
        assert routed == (
            200,
            {"estimate": store.estimate("doc-001", QUERIES[0])},
        )
        assert total[0] == 200
        assert total[1]["estimate"] == pytest.approx(
            store.estimate_collection(QUERIES[0])
        )
        assert rollup[0] == 200
        assert unknown[0] == 404
        assert bad_scope[0] == 400

    def test_single_synopsis_engine_rejects_doc_routing(self):
        from repro.serve import ServeClient, ServeEngine
        from repro.serve.http import SynopsisServer

        doc = ingest_string(TEMPLATES[0], text_word_threshold=2)
        engine = ServeEngine(
            build_reference_synopsis(doc, doc.value_paths())
        )

        async def main():
            async with SynopsisServer(engine) as server:
                client = ServeClient(server.host, server.port)
                status, body = await client.estimate(
                    {"query": "//note", "doc": "doc-001"}
                )
                await client.close()
            return status, body

        status, body = asyncio.run(main())
        assert status == 400
        assert "--collection" in body["error"]

    def test_only_collection_wide_requests_use_the_estimate_memo(
        self, exact_collection
    ):
        from repro.serve import ServeClient
        from repro.serve.http import SynopsisServer

        root, _, _ = exact_collection
        engine = self._engine(root)
        text = "//item/entry/name"

        async def main():
            async with SynopsisServer(engine) as server:
                client = ServeClient(server.host, server.port)
                answers = {}
                for name, body in (
                    ("doc", {"query": text, "doc": "doc-001"}),
                    ("rollup", {"query": text, "scope": "rollup"}),
                    ("total", {"query": text}),
                ):
                    for _ in range(3):
                        status, response = await client.estimate(body)
                        assert status == 200, response
                        answers.setdefault(name, []).append(
                            response["estimate"]
                        )
                    answers[name + "-memo"] = (await client.stats())["memo"]
                await client.close()
            return answers

        answers = asyncio.run(main())
        store = CollectionStore(root)
        assert answers["doc"] == [store.estimate("doc-001", QUERIES[0])] * 3
        assert answers["rollup"] == [store.estimate_rollup(QUERIES[0])] * 3
        assert answers["total"] == [store.estimate_collection(QUERIES[0])] * 3
        untouched = {
            "requests": {"hits": 0, "entries": 0, "bytes": 0},
            "estimates": {"hits": 0, "entries": 0},
        }
        assert answers["doc-memo"] == untouched
        assert answers["rollup-memo"] == untouched
        total = answers["total-memo"]
        assert total["requests"]["hits"] == 2
        assert total["requests"]["entries"] == 1
        assert total["estimates"] == {"hits": 2, "entries": 1}


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def _write_corpus(self, directory):
        os.makedirs(directory, exist_ok=True)
        for doc_id, xml in DOCUMENTS[:8]:
            with open(
                os.path.join(directory, f"{doc_id}.xml"), "w", encoding="utf-8"
            ) as handle:
                handle.write(xml)

    def test_build_stats_rebalance_export_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main

        docs = str(tmp_path / "docs")
        root = str(tmp_path / "coll")
        self._write_corpus(docs)
        assert (
            main(
                [
                    "collection",
                    "build",
                    root,
                    "--input",
                    docs,
                    "--shards",
                    "2",
                    "--budget",
                    "100000",
                ]
            )
            == 0
        )
        assert "deduplicated" in capsys.readouterr().out
        assert main(["collection", "stats", root, "--verify"]) == 0
        assert "8 documents" in capsys.readouterr().out

        log_path = str(tmp_path / "log.jsonl")
        with open(log_path, "w", encoding="utf-8") as handle:
            for _ in range(30):
                handle.write(
                    json.dumps(
                        {"doc": "doc-000.xml", "query": "//item/entry/name"}
                    )
                    + "\n"
                )
        assert main(["collection", "rebalance", root, "--log", log_path]) == 0
        assert "multipliers" in capsys.readouterr().out

        out_dir = str(tmp_path / "csv")
        assert main(["collection", "export", root, "--edge-model", out_dir]) == 0
        assert os.path.isfile(os.path.join(out_dir, "edges.csv"))

    def test_stats_json_is_valid_json(self, tmp_path, capsys):
        from repro.__main__ import main

        docs = str(tmp_path / "docs")
        root = str(tmp_path / "coll")
        self._write_corpus(docs)
        main(["collection", "build", root, "--input", docs, "--shards", "2"])
        capsys.readouterr()
        assert main(["collection", "stats", root, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["documents"] == 8

    def test_check_collection_flag_runs_green(self, capsys):
        from repro.__main__ import main

        assert main(["check", "--collection", "--rounds", "1"]) == 0
        assert "all checks passed" in capsys.readouterr().out
