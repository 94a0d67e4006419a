"""Synopsis serving — snapshot cold start + daemon throughput.

Two measurements, one report (``BENCH_serving.json``):

**Cold start.**  At each sweep scale a budgeted synopsis is saved as
interchange JSON and as the binary mmap snapshot
(:mod:`repro.core.snapshot`), and both loads are timed best-of-N.  The
snapshot loader decodes the flat node/edge tables and defers every
value-summary payload, so it must beat the full JSON decode by
:data:`SPEEDUP_FLOOR` x at every asserting sweep point — with
bit-exact estimate parity between the two loaded synopses across the
point's workload.

**Serving.**  The bench then stands up the real daemon
(:class:`repro.serve.SynopsisServer` over localhost) and drives it with
a redbench-style repetition-banded user mix: users are sampled from ten
query-repetition-rate bands ([0.0, 0.1) up to [0.9, 1.0)), and each
request either repeats a query from that user's own history (with the
user's band probability) or draws fresh from the shared workload pool.
That repetition structure is exactly what the *cross-user* plan cache
exploits — the report records sustained QPS, p50/p99 latency from the
daemon's own ``/stats``, the plan-cache hit rate, and coalescing batch
occupancy.  A final parity pass re-asks every distinct pool query over
HTTP and demands bit-identical floats against an in-process
``CompiledEstimator`` on the same loaded synopsis.
"""

import asyncio
import gc
import os
import random
import tempfile
from time import perf_counter

import common
from repro.core.builder import build_xcluster
from repro.core.estimation import CompiledEstimator
from repro.core.serialization import load_synopsis, save_synopsis
from repro.core.sizing import total_size_bytes
from repro.core.snapshot import load_snapshot, save_snapshot, snapshot_sections
from repro.datasets import generate_xmark
from repro.query.jsonast import twig_to_dict
from repro.serve import ServeClient, ServeEngine, SynopsisServer
from repro.workload.generator import generate_workload

#: Cold-start floor: loading the snapshot must be at least this many
#: times faster than loading the equivalent JSON at every sweep point.
SPEEDUP_FLOOR = 5.0

#: Floors are only asserted at or above this bench scale (smoke-scale
#: runs only check parity and the report plumbing).
SPEEDUP_ASSERT_MIN_SCALE = 0.3

#: Fractions of the bench scale that are measured.
SWEEP_FRACTIONS = (0.25, 0.5, 1.0)

#: Timed loads per format and sweep point; the minimum is reported.
TIMING_RUNS = 7

#: Extra measurements of a sweep point whose speedup lands below the
#: asserted floor; transient load retries away, a real regression fails
#: every retry.
POINT_RETRIES = 2

#: Budgets for the served synopsis: generous enough that the saved file
#: carries hundreds of clusters and every value-summary family.
STRUCTURAL_BUDGET = 16384
VALUE_BUDGET = 65536

#: The user mix: ten repetition-rate bands ([0.0,0.1) ... [0.9,1.0)),
#: redbench-style, with this many users per band and requests per user.
REPETITION_BANDS = [
    ((high - 10) / 100.0, high / 100.0) for high in range(10, 101, 10)
]
USERS_PER_BAND = 2
REQUESTS_PER_USER = 40


def _timed_loads(json_path, snapshot_path):
    """Best-of-N wall clock for both loaders, runs interleaved."""
    json_times, snapshot_times = [], []
    load_synopsis(json_path)  # warmup: page cache + code paths
    load_snapshot(snapshot_path)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(TIMING_RUNS):
            started = perf_counter()
            load_synopsis(json_path)
            json_times.append(perf_counter() - started)
            started = perf_counter()
            load_snapshot(snapshot_path)
            snapshot_times.append(perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return min(json_times), min(snapshot_times)


def _estimate_all(synopsis, queries):
    estimator = CompiledEstimator(synopsis)
    return [estimator.estimate(query) for query in queries]


def _sweep_point(scale, xmark_seed, queries_per_class, floor=None):
    """Save/load both formats at one scale; parity is bit-exact."""
    dataset = generate_xmark(scale, xmark_seed)
    synopsis = build_xcluster(
        dataset.tree,
        STRUCTURAL_BUDGET,
        VALUE_BUDGET,
        value_paths=dataset.value_paths,
    )
    workload = generate_workload(
        dataset, queries_per_class=queries_per_class, seed=xmark_seed
    )
    queries = [wq.query for wq in workload.queries]

    with tempfile.TemporaryDirectory() as tmpdir:
        json_path = os.path.join(tmpdir, "synopsis.json")
        snapshot_path = os.path.join(tmpdir, "synopsis.snap")
        save_synopsis(synopsis, json_path)
        save_snapshot(synopsis, snapshot_path)
        json_bytes = os.path.getsize(json_path)
        snapshot_bytes = os.path.getsize(snapshot_path)
        with open(snapshot_path, "rb") as handle:
            sections = snapshot_sections(handle.read())

        json_seconds, snapshot_seconds = _timed_loads(json_path, snapshot_path)
        retries = POINT_RETRIES if floor is not None else 0
        for _ in range(retries):
            if snapshot_seconds > 0 and json_seconds / snapshot_seconds >= floor:
                break
            retry_json, retry_snapshot = _timed_loads(json_path, snapshot_path)
            if retry_json / retry_snapshot > json_seconds / snapshot_seconds:
                json_seconds, snapshot_seconds = retry_json, retry_snapshot

        json_loaded = load_synopsis(json_path)
        snapshot_loaded = load_snapshot(snapshot_path)

    expected = _estimate_all(json_loaded, queries)
    actual = _estimate_all(snapshot_loaded, queries)
    drift = sum(1 for e, a in zip(expected, actual) if e != a)
    return {
        "scale": scale,
        "clusters": len(synopsis),
        "queries": len(queries),
        "json_bytes": json_bytes,
        "snapshot_bytes": snapshot_bytes,
        "model_bytes": total_size_bytes(synopsis),
        "vocabulary_bytes": sections["vocabulary"],
        "snapshot_sections": sections,
        "json_load_seconds": round(json_seconds, 6),
        "snapshot_load_seconds": round(snapshot_seconds, 6),
        "speedup": round(
            json_seconds / snapshot_seconds if snapshot_seconds > 0 else 0.0, 3
        ),
        "drift": drift,
        "equivalent": drift == 0,
    }, synopsis, queries


def _user_streams(queries, seed):
    """Per-user request streams under the repetition-banded mix.

    Each user belongs to one band and repeats a query from their own
    history with a rate drawn uniformly from the band; otherwise they
    draw fresh from the shared pool.  Streams are fully materialized up
    front so the timed region is pure serving.
    """
    rng = random.Random(seed)
    streams = []
    for band_low, band_high in REPETITION_BANDS:
        for _ in range(USERS_PER_BAND):
            rate = rng.uniform(band_low, band_high)
            history = []
            stream = []
            for _ in range(REQUESTS_PER_USER):
                if history and rng.random() < rate:
                    query = rng.choice(history)
                else:
                    query = rng.choice(queries)
                    history.append(query)
                stream.append(query)
            streams.append((rate, stream))
    return streams


async def _drive_daemon(synopsis, queries, seed):
    """Run the banded user mix against the real daemon over localhost."""
    engine = ServeEngine(synopsis)
    streams = _user_streams(queries, seed)
    total_requests = sum(len(stream) for _rate, stream in streams)

    async with SynopsisServer(engine) as server:

        async def run_user(user_index, stream):
            client = ServeClient(server.host, server.port)
            await client.connect()
            try:
                for request_index, query in enumerate(stream):
                    # Alternate wire formats so both front doors serve
                    # production traffic, not just the tests.
                    if (user_index + request_index) % 2:
                        body = {"ast": twig_to_dict(query)}
                    else:
                        body = {"query": query.to_xpath()}
                    status, payload = await client.estimate(body)
                    assert status == 200, payload
            finally:
                await client.close()

        started = perf_counter()
        await asyncio.gather(
            *(
                run_user(index, stream)
                for index, (_rate, stream) in enumerate(streams)
            )
        )
        wall_seconds = perf_counter() - started

        stats_client = ServeClient(server.host, server.port)
        stats = await stats_client.stats()

        # Parity: every distinct pool query over HTTP must equal the
        # in-process compiled estimate bit for bit.
        estimator = CompiledEstimator(synopsis)
        parity_drift = 0
        for query in queries:
            status, payload = await stats_client.estimate(
                {"query": query.to_xpath()}
            )
            assert status == 200, payload
            if payload["estimate"] != estimator.estimate(query):
                parity_drift += 1
        await stats_client.close()

    return {
        "users": len(streams),
        "bands": len(REPETITION_BANDS),
        "requests": total_requests,
        "wall_seconds": round(wall_seconds, 4),
        "qps": round(total_requests / wall_seconds, 1),
        "p50_ms": round(stats["latency"]["p50_ms"], 4),
        "p99_ms": round(stats["latency"]["p99_ms"], 4),
        "cache_hit_rate": round(
            stats["estimator"]["plan_cache_hit_rate"], 4
        ),
        "coalesce_rate": round(stats["coalescing"]["coalesce_rate"], 4),
        "mean_batch_occupancy": round(
            stats["coalescing"]["mean_batch_occupancy"], 3
        ),
        "batches_dispatched": stats["coalescing"]["batches_dispatched"],
        "parity_drift": parity_drift,
        "equivalent": parity_drift == 0,
    }


def test_serving_stack(experiment_context):
    """Snapshot cold start + daemon QPS → BENCH_serving.json.

    At asserting bench scales the snapshot load must clear the
    :data:`SPEEDUP_FLOOR` x floor at *every* sweep point; estimate
    parity (JSON-loaded vs snapshot-loaded, and HTTP vs in-process)
    must be bit-exact everywhere and at every scale.
    """
    context = experiment_context
    bench_scale = context.config.scale
    queries_per_class = context.config.queries_per_class
    asserting = bench_scale >= SPEEDUP_ASSERT_MIN_SCALE

    points = []
    synopsis = queries = None
    for fraction in SWEEP_FRACTIONS:
        point, synopsis, queries = _sweep_point(
            round(bench_scale * fraction, 6),
            context.config.xmark_seed,
            queries_per_class,
            floor=SPEEDUP_FLOOR if asserting else None,
        )
        points.append(point)

    # The serving phase runs on the bench-scale synopsis (last point).
    serving = asyncio.run(
        _drive_daemon(synopsis, queries, context.config.xmark_seed)
    )

    headline = points[-1]
    equivalent = (
        all(point["equivalent"] for point in points) and serving["equivalent"]
    )
    report = {
        "dataset": "xmark",
        "scale": bench_scale,
        "sweep": points,
        "speedup": headline["speedup"],
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": asserting,
        "equivalent": equivalent,
        "qps": serving["qps"],
        "p50_ms": serving["p50_ms"],
        "p99_ms": serving["p99_ms"],
        "cache_hit_rate": serving["cache_hit_rate"],
        "serving": serving,
    }
    out_path = common.write_report("serving", report, "BENCH_serving.json")
    print(
        f"\nBENCH_serving: snapshot load {headline['speedup']:.1f}x faster "
        f"than JSON ({headline['json_load_seconds'] * 1000:.2f}ms -> "
        f"{headline['snapshot_load_seconds'] * 1000:.2f}ms), daemon "
        f"{serving['qps']:.0f} qps, p50 {serving['p50_ms']:.2f}ms / "
        f"p99 {serving['p99_ms']:.2f}ms, plan-cache hit rate "
        f"{serving['cache_hit_rate']:.2f} over {serving['requests']} "
        f"requests from {serving['users']} users ({out_path})"
    )

    assert equivalent, "serving stack drifted from in-process estimates"
    assert serving["cache_hit_rate"] > 0.0, (
        "repetition-banded mix produced no cross-user plan-cache reuse"
    )
    if asserting:
        for point in points:
            assert point["speedup"] >= SPEEDUP_FLOOR, (
                f"snapshot load fell below the {SPEEDUP_FLOOR}x floor at "
                f"scale {point['scale']}: {point['speedup']:.2f}x"
            )
