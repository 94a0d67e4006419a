"""Collection store — dedup build throughput + workload-driven budgets.

Three measurements, one report (``BENCH_collection.json``):

**Build.**  A Zipf-distributed corpus (many documents drawn from few
distinct templates — the shape real document collections have) is built
two ways at each sweep point: the naive baseline runs the full
single-document pipeline (ingest → reference synopsis → budgeted
compression → snapshot encode) once *per document*, serially; the
collection build deduplicates by content hash and runs each distinct
structure once through the same pipeline.  At every asserting sweep
point with at least :data:`ASSERT_MIN_DOCUMENTS` documents the dedup
build must be :data:`SPEEDUP_FLOOR` x faster — with zero parity drift:
a shard-routed
estimate must be bit-identical to an estimate from a synopsis built
directly from the same document at the same budgets, and the
collection-wide sum must match per-document exact interval counts in
uncompressed mode.

**Serve.**  The built store is driven with a Zipfian document-popularity
workload (skew :data:`ZIPF_SKEW`) through the shard router and the LRU
of open containers; the report records routed-estimate p50/p99 latency.

**Budgets.**  The same Zipfian log is fed to
:func:`repro.collection.rebalance_collection`, which clusters it and
waterfills synopsis bytes toward the hot shards under the
bytes-conserving multiplier scheme.  The report records the workload's
frequency-weighted relative estimation error before (uniform budgets)
and after (workload budgets) at equal total bytes — the reallocation
must not lose accuracy, and on asserting runs must strictly reduce it.
"""

import copy
import gc
import os
import random
import tempfile
from time import perf_counter

import common
from repro.collection import (
    CollectionConfig,
    CollectionStore,
    build_collection,
    rebalance_collection,
)
from repro.collection.build import _split_budget
from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.estimation import CompiledEstimator
from repro.core.reference import build_reference_synopsis
from repro.core.snapshot import snapshot_to_bytes, synopsis_from_snapshot
from repro.query.interval import IntervalEvaluator
from repro.query.xpath import parse_twig
from repro.xmltree.columnar import ingest_string

#: The dedup build must beat the naive per-document serial build by at
#: least this factor at every asserting sweep point.
SPEEDUP_FLOOR = 3.0

#: Floors are only asserted at or above this bench scale.
SPEEDUP_ASSERT_MIN_SCALE = 0.3

#: ... and only at sweep points with at least this many documents (the
#: dedup advantage is a function of corpus size, not bench scale).
ASSERT_MIN_DOCUMENTS = 1000

#: Corpus size at bench scale 1.0; sweep points take fractions of it.
DOCUMENTS_AT_FULL_SCALE = 3000

SWEEP_FRACTIONS = (0.25, 0.5, 1.0)

#: Distinct document structures the Zipf corpus draws from.
TEMPLATES = 20

#: Zipf skew for both template popularity and the serve workload.
ZIPF_SKEW = 1.1

SHARD_COUNT = 8

#: Total synopsis bytes for the compressed store — tight enough that
#: per-payload compression is lossy, so budget placement matters.
TOTAL_BUDGET = 96 * 1024

STRUCTURAL_SHARE = 0.3

#: Routed-estimate requests in the latency/error workload.
SERVE_REQUESTS = 600


def _template_xml(variant: int, items: int) -> str:
    """One distinct document structure: varied labels, varied fanout."""
    parts = []
    for i in range(items):
        label = f"f{(variant + i) % 11}"
        parts.append(
            f"<item><{label}><name>v{variant % 4}-{i % 6}</name>"
            f"<val>{(i * 13 + variant) % 29}</val></{label}>"
            f"<tag{i % 3}>t{(variant * 5 + i) % 17}</tag{i % 3}></item>"
        )
    return (
        f"<root><meta><id>tpl{variant}</id></meta>{''.join(parts)}</root>"
    )


def _zipf_weights(n: int, skew: float):
    return [1.0 / (rank**skew) for rank in range(1, n + 1)]


def _corpus(documents: int, seed: int):
    """``(doc_id, xml)`` pairs: Zipf draws over distinct templates."""
    rng = random.Random(seed)
    templates = [
        _template_xml(variant, 18 + 3 * (variant % 5))
        for variant in range(TEMPLATES)
    ]
    picks = rng.choices(
        range(TEMPLATES), weights=_zipf_weights(TEMPLATES, ZIPF_SKEW),
        k=documents,
    )
    return [(f"doc-{i:05d}", templates[picks[i]]) for i in range(documents)]


#: The workload mixes structural twigs (exactly additive, used for the
#: sum-parity check) with numeric range predicates — value-summary
#: estimates are the budget-sensitive ones, so these are what the
#: uniform-vs-workload budget comparison measures.
QUERY_TEXTS = (
    "//item/f0/name",
    "//item//val",
    "/root/meta/id",
    "//item//val[. >= 15]",
    "//item//val[. <= 7]",
    "//item/f3/val[. >= 10]",
    "//val[. in [5, 20]]",
)


def _queries():
    return [parse_twig(text) for text in QUERY_TEXTS]


def _naive_serial_build(docs, total_budget, compress):
    """The baseline: the full pipeline once per document, no sharing."""
    ingested = {}
    total_elements = 0
    for _doc_id, xml in docs:
        if xml not in ingested:
            ingested[xml] = len(ingest_string(xml, text_word_threshold=2))
        total_elements += ingested[xml]
    rate = total_budget / max(1, total_elements)
    blobs = []
    for _doc_id, xml in docs:
        doc = ingest_string(xml, text_word_threshold=2)
        reference = build_reference_synopsis(doc, doc.value_paths())
        synopsis = reference
        if compress:
            budget = max(512, int(round(rate * len(doc))))
            b_str, b_val = _split_budget(budget, STRUCTURAL_SHARE)
            XClusterBuilder(
                BuildConfig(structural_budget=b_str, value_budget=b_val)
            ).compress(synopsis)
        blobs.append(snapshot_to_bytes(synopsis))
    return blobs


def _timed(fn):
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        result = fn()
        return perf_counter() - started, result
    finally:
        if gc_was_enabled:
            gc.enable()


def _direct_estimates(xml, b_str, b_val, compress, queries):
    """The single-document pipeline at the store's exact budgets.

    Mirrors a standalone deployment of the same document end to end —
    compress a copy of the reference, encode to a snapshot, serve from
    the decode — so parity against the routed path is bit-exact, not
    merely close: in-place compression of a never-snapshotted synopsis
    differs by float ulps.
    """
    doc = ingest_string(xml, text_word_threshold=2)
    synopsis = build_reference_synopsis(doc, doc.value_paths())
    if compress:
        synopsis = copy.deepcopy(synopsis)
        XClusterBuilder(
            BuildConfig(structural_budget=b_str, value_budget=b_val)
        ).compress(synopsis)
    estimator = CompiledEstimator(synopsis_from_snapshot(snapshot_to_bytes(synopsis)))
    return [estimator.estimate(query) for query in queries]


def _parity_drift(store, docs, compress, queries):
    """Routed vs direct single-synopsis estimates, bit-for-bit."""
    drift = 0
    checked = set()
    for doc_id, xml in docs:
        if xml in checked:
            continue
        checked.add(xml)
        shard_id, index = store.payload_of(doc_id)
        info = store.reader(shard_id).payloads[index]
        direct = _direct_estimates(
            xml, info.structural_budget, info.value_budget, compress, queries
        )
        routed = [store.estimate(doc_id, query) for query in queries]
        drift += sum(1 for r, d in zip(routed, direct) if r != d)
    return drift, len(checked)


def _exact_sum_drift(store, docs, queries):
    """Collection-wide sums vs exact interval counts (exact mode only)."""
    drift = 0
    exact_cache = {}
    for query in queries:
        if not query.is_structural:
            continue
        exact = 0.0
        for _doc_id, xml in docs:
            key = (id(query), xml)
            if key not in exact_cache:
                exact_cache[key] = IntervalEvaluator(
                    ingest_string(xml, text_word_threshold=2)
                ).selectivity(query)
            exact += exact_cache[key]
        if abs(store.estimate_collection(query) - exact) > 1e-6 * max(
            1.0, exact
        ):
            drift += 1
    return drift


def _sweep_point(documents, seed, asserting):
    """Time naive-vs-dedup at one corpus size; parity is bit-exact."""
    docs = _corpus(documents, seed)
    queries = _queries()

    naive_seconds, _ = _timed(
        lambda: _naive_serial_build(docs, TOTAL_BUDGET, compress=True)
    )

    with tempfile.TemporaryDirectory() as tmpdir:
        root = os.path.join(tmpdir, "coll")
        config = CollectionConfig(
            shard_count=SHARD_COUNT,
            total_budget=TOTAL_BUDGET,
            structural_share=STRUCTURAL_SHARE,
            compress=True,
        )
        dedup_seconds, (manifest, report) = _timed(
            lambda: build_collection(root, docs, config)
        )
        store = CollectionStore(root)
        drift, structures = _parity_drift(store, docs, True, queries)

        # Exact-mode additivity on a slice of the corpus (uncompressed
        # payloads sum exactly; the compressed store's sums are
        # estimates and are exercised by the budget phase instead).
        exact_root = os.path.join(tmpdir, "exact")
        exact_docs = docs[: min(len(docs), 120)]
        build_collection(
            exact_root,
            exact_docs,
            CollectionConfig(shard_count=SHARD_COUNT, compress=False),
        )
        drift += _exact_sum_drift(
            CollectionStore(exact_root), exact_docs, queries
        )

    speedup = naive_seconds / dedup_seconds if dedup_seconds > 0 else 0.0
    return {
        "documents": documents,
        "distinct_structures": report.distinct_structures,
        "dedup_rate": round(report.dedup_rate, 4),
        "naive_seconds": round(naive_seconds, 4),
        "dedup_seconds": round(dedup_seconds, 4),
        "speedup": round(speedup, 3),
        "drift": drift,
        "structures_checked": structures,
        "equivalent": drift == 0,
        "asserted": asserting and documents >= ASSERT_MIN_DOCUMENTS,
    }


def _zipf_log(docs, queries, requests, seed):
    """A Zipfian routed workload: hot documents, skewed query mix."""
    rng = random.Random(seed)
    doc_ids = [doc_id for doc_id, _xml in docs]
    doc_picks = rng.choices(
        doc_ids, weights=_zipf_weights(len(doc_ids), ZIPF_SKEW), k=requests
    )
    query_picks = rng.choices(
        queries, weights=_zipf_weights(len(queries), ZIPF_SKEW), k=requests
    )
    return list(zip(doc_picks, query_picks))


def _routed_latencies(store, log):
    latencies = []
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for doc_id, query in log:
            started = perf_counter()
            store.estimate(doc_id, query)
            latencies.append(perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    latencies.sort()
    return latencies


def _percentile(sorted_values, fraction):
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def _weighted_error(store, docs, log):
    """Frequency-weighted relative error of routed estimates."""
    xml_of = dict(docs)
    exact_cache = {}
    total = 0.0
    for doc_id, query in log:
        key = (doc_id, id(query))
        if key not in exact_cache:
            exact_cache[key] = IntervalEvaluator(
                ingest_string(xml_of[doc_id], text_word_threshold=2)
            ).selectivity(query)
        exact = exact_cache[key]
        estimate = store.estimate(doc_id, query)
        total += abs(estimate - exact) / max(1.0, exact)
    return total / len(log)


def test_collection_stack(experiment_context):
    """Dedup build + Zipf serving + rebalance → BENCH_collection.json."""
    context = experiment_context
    bench_scale = context.config.scale
    asserting = bench_scale >= SPEEDUP_ASSERT_MIN_SCALE
    seed = context.config.xmark_seed
    total_documents = max(40, int(round(DOCUMENTS_AT_FULL_SCALE * bench_scale)))

    points = [
        _sweep_point(
            max(20, int(round(total_documents * fraction))), seed, asserting
        )
        for fraction in SWEEP_FRACTIONS
    ]
    headline = points[-1]

    # Serve + budget phases run on a fresh full-size compressed store.
    docs = _corpus(total_documents, seed)
    queries = _queries()
    with tempfile.TemporaryDirectory() as tmpdir:
        root = os.path.join(tmpdir, "coll")
        build_collection(
            root,
            docs,
            CollectionConfig(
                shard_count=SHARD_COUNT,
                total_budget=TOTAL_BUDGET,
                structural_share=STRUCTURAL_SHARE,
                compress=True,
            ),
        )
        log = _zipf_log(docs, queries, SERVE_REQUESTS, seed)

        uniform_store = CollectionStore(root)
        latencies = _routed_latencies(uniform_store, log)
        uniform_error = _weighted_error(uniform_store, docs, log)
        uniform_budget = sum(uniform_store.manifest.budgets)

        rebalanced_manifest, _rebalance_report = rebalance_collection(
            root, log
        )
        workload_store = CollectionStore(root)
        workload_error = _weighted_error(workload_store, docs, log)
        workload_budget = sum(rebalanced_manifest.budgets)
        budget_distribution = list(rebalanced_manifest.budgets)
        lru = {
            "hits": uniform_store.lru_hits,
            "misses": uniform_store.lru_misses,
            "evictions": uniform_store.lru_evictions,
        }

    p50_ms = round(_percentile(latencies, 0.50) * 1000, 4)
    p99_ms = round(_percentile(latencies, 0.99) * 1000, 4)
    equivalent = all(point["equivalent"] for point in points)
    error_reduction = uniform_error - workload_error

    report = {
        "dataset": "zipf-templates",
        "scale": bench_scale,
        "sweep": points,
        "speedup": headline["speedup"],
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": any(point["asserted"] for point in points),
        "equivalent": equivalent,
        "shard_count": SHARD_COUNT,
        "zipf_skew": ZIPF_SKEW,
        "budget_distribution": budget_distribution,
        "p50_ms": p50_ms,
        "p99_ms": p99_ms,
        "budgets": {
            "total_bytes": TOTAL_BUDGET,
            "uniform_payload_bytes": uniform_budget,
            "workload_payload_bytes": workload_budget,
            "uniform_error": round(uniform_error, 6),
            "workload_error": round(workload_error, 6),
            "error_reduction": round(error_reduction, 6),
        },
        "serving": {
            "requests": len(log),
            "documents": total_documents,
            "lru": lru,
        },
    }
    out_path = common.write_report(
        "collection", report, "BENCH_collection.json"
    )
    print(
        f"\nBENCH_collection: dedup build {headline['speedup']:.1f}x over "
        f"naive serial at {headline['documents']} docs "
        f"({headline['naive_seconds']:.2f}s -> "
        f"{headline['dedup_seconds']:.2f}s, dedup rate "
        f"{headline['dedup_rate']:.2f}), routed p50 {p50_ms:.3f}ms / "
        f"p99 {p99_ms:.3f}ms over {len(log)} Zipf requests, workload "
        f"budgets cut weighted error {uniform_error:.4f} -> "
        f"{workload_error:.4f} at equal bytes ({out_path})"
    )

    assert equivalent, "shard-routed estimates drifted from direct builds"
    # Same-cost comparison: the rebalance conserves total payload bytes
    # up to per-payload rounding and minimum-budget floors.
    assert abs(workload_budget - uniform_budget) <= 0.05 * uniform_budget, (
        f"rebalance changed total bytes: {uniform_budget} -> "
        f"{workload_budget}"
    )
    assert workload_error <= uniform_error + 1e-9, (
        f"workload budgets lost accuracy: {uniform_error:.6f} -> "
        f"{workload_error:.6f}"
    )
    for point in points:
        if point["asserted"]:
            assert point["speedup"] >= SPEEDUP_FLOOR, (
                f"dedup build fell below the {SPEEDUP_FLOOR}x floor at "
                f"{point['documents']} documents: {point['speedup']:.2f}x"
            )
    if asserting:
        assert error_reduction > 0, (
            "workload-driven budgets produced no error reduction over "
            "uniform at equal total bytes"
        )
