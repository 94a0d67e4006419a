"""Incremental synopsis maintenance vs. per-update rebuild.

The static pipeline answers a document update by rebuilding the
reference synopsis from scratch; :mod:`repro.update` instead mutates
the columnar document in place and maintains the live synopsis through
the :class:`~repro.update.maintainer.IncrementalMaintainer` — localized
refinement, cached value summaries, and a version bump that keeps the
serving caches honest.  This bench streams :data:`UPDATES_PER_POINT`
seeded random ops (the differential harness's generator, heavy on
structural inserts/deletes — the maintainer's worst case) into XMark
documents across a scale sweep and, after **every** op, rebuilds the
synopsis from the same mutated document:

* parity: the maintained synopsis must equal the rebuild bit-exactly
  (``synopsis_to_dict``) at every step — zero drift over the stream;
* performance: summing per-op wall-clock, maintenance (columnar
  mutation + synopsis upkeep, both timed) must beat the rebuild
  baseline (rebuild only — the mutation it would also need is *not*
  charged to it) by :data:`SPEEDUP_FLOOR` x at every asserted sweep
  point.  Each point also reports the median maintenance latency per
  op kind and how many ops took the localized path.

Results land in ``BENCH_updates.json``.
"""

import gc
import random
import statistics
from time import perf_counter

import common
from repro.check.diffharness import DifferentialHarness, HarnessConfig
from repro.core.reference import build_reference_synopsis
from repro.core.serialization import synopsis_to_dict
from repro.datasets import generate_xmark
from repro.update import IncrementalMaintainer, validate_update
from repro.values.summary import SummaryConfig
from repro.xmltree import serialize
from repro.xmltree.columnar import ingest_string

#: Maintenance must beat per-update rebuild by at least this factor at
#: every asserted sweep point.
SPEEDUP_FLOOR = 5.0

#: Floors are only asserted at or above this bench scale (smoke-scale
#: runs only check parity and the report plumbing).
SPEEDUP_ASSERT_MIN_SCALE = 0.3

#: Fractions of the bench scale that are measured.
SWEEP_FRACTIONS = (0.25, 0.5, 1.0)

#: Random update ops streamed into each sweep point's document.
UPDATES_PER_POINT = 40

#: Seed for the op stream (the harness's generator is deterministic).
OP_SEED = 0x0BDA7E5

#: Extra measurements of a sweep point whose speedup lands below the
#: asserted floor.  Transient machine load can depress one measurement;
#: a genuinely slow maintainer fails every retry, so the floor still
#: gates.  The best measurement is reported.
POINT_RETRIES = 2


def _sweep_point(scale, seed, op_source):
    """Stream one op sequence into one XMark document, timing both paths.

    Returns the point dict for the report.  Every applied op is parity
    checked: a single step of drift fails the bench outright rather
    than surfacing as a performance number.
    """
    dataset = generate_xmark(scale, seed)
    doc = ingest_string(serialize(dataset.tree))
    maintainer = IncrementalMaintainer(doc)
    rng = random.Random(OP_SEED)

    applied = 0
    maintain_seconds = 0.0
    latency = {"insert": [], "delete": [], "set_value": []}
    rebuild_seconds = 0.0
    drift = 0
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(UPDATES_PER_POINT):
            op = op_source(doc, rng)
            if validate_update(doc, op) is not None:
                continue
            started = perf_counter()
            maintainer.apply(op)
            seconds = perf_counter() - started
            maintain_seconds += seconds
            latency[op.op].append(seconds)
            started = perf_counter()
            rebuilt = build_reference_synopsis(doc, None, SummaryConfig())
            rebuild_seconds += perf_counter() - started
            applied += 1
            if synopsis_to_dict(maintainer.synopsis) != synopsis_to_dict(
                rebuilt
            ):
                drift += 1
    finally:
        if gc_was_enabled:
            gc.enable()

    speedup = (
        rebuild_seconds / maintain_seconds if maintain_seconds > 0 else 0.0
    )
    stats = maintainer.stats
    return {
        "scale": scale,
        "elements": len(doc),
        "updates_applied": applied,
        "maintain_seconds": round(maintain_seconds, 4),
        "rebuild_seconds": round(rebuild_seconds, 4),
        "updates_per_sec": round(
            applied / maintain_seconds if maintain_seconds > 0 else 0.0, 2
        ),
        "speedup": round(speedup, 3),
        "drift_steps": drift,
        "equivalent": drift == 0,
        "latency_ms": {
            kind: round(1000 * statistics.median(samples), 3) if samples else None
            for kind, samples in latency.items()
        },
        "full_recomputes": stats.full_recomputes,
        "localized_updates": stats.localized_updates,
        "fast_path_updates": stats.fast_path_updates,
        "summaries_reused": stats.summaries_reused,
    }


def test_incremental_maintenance_speedup(experiment_context):
    """Maintainer vs per-update rebuild on XMark → BENCH_updates.json.

    Zero parity drift is required at every scale; at asserting bench
    scales the maintainer must beat the rebuild baseline
    :data:`SPEEDUP_FLOOR` x on summed per-op wall-clock at every sweep
    point.
    """
    context = experiment_context
    bench_scale = context.config.scale
    asserting = bench_scale >= SPEEDUP_ASSERT_MIN_SCALE
    op_source = DifferentialHarness(HarnessConfig())._random_update

    points = []
    for fraction in SWEEP_FRACTIONS:
        scale = round(bench_scale * fraction, 6)
        point = _sweep_point(scale, context.config.xmark_seed, op_source)
        # The op stream is deterministic, so a retry re-measures the
        # identical work; only scheduling noise can change the outcome.
        for _ in range(POINT_RETRIES if asserting else 0):
            if point["speedup"] >= SPEEDUP_FLOOR:
                break
            retry = _sweep_point(scale, context.config.xmark_seed, op_source)
            if retry["speedup"] > point["speedup"]:
                point = retry
        points.append(point)

    headline = points[-1]
    equivalent = all(point["equivalent"] for point in points)
    report = {
        "dataset": "xmark",
        "scale": bench_scale,
        "updates_per_point": UPDATES_PER_POINT,
        "sweep": points,
        "speedup": headline["speedup"],
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": asserting,
        "equivalent": equivalent,
    }
    out_path = common.write_report("updates", report, "BENCH_updates.json")
    print(
        f"\nBENCH_updates: {headline['updates_applied']} ops on "
        f"{headline['elements']} elements -> maintain "
        f"{headline['maintain_seconds']:.3f}s "
        f"({headline['updates_per_sec']:.1f} ops/s), rebuild "
        f"{headline['rebuild_seconds']:.3f}s, speedup "
        f"{headline['speedup']:.2f}x, median ms per op {headline['latency_ms']} "
        f"({out_path})"
    )

    assert equivalent, "maintained synopsis drifted from rebuild-from-scratch"
    if asserting:
        for point in points:
            assert point["speedup"] >= SPEEDUP_FLOOR, (
                f"incremental maintenance fell below the {SPEEDUP_FLOOR}x "
                f"speedup floor at scale {point['scale']}: "
                f"{point['speedup']:.2f}x"
            )
