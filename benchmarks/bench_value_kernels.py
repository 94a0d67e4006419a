"""Phase-2 value compression — reference oracles vs. the kernel engine.

Phase 2 of XCLUSTERBUILD repeatedly picks the valued node whose next
compression step (``hist_cmprs`` / ``st_cmprs`` / ``tv_cmprs``) loses the
least accuracy per byte saved.  The reference summary classes recompute
each step from scratch (:class:`~repro.check.oracles.ReferenceBuilder`,
which also scores with the scalar Δ); the production builder's kernel
engine (:mod:`repro.values.kernels`) drives the same greedy sequences
through incremental priority queues and persistent per-node steppers.

This bench isolates phase 2 on XMark: the structural budget is set to
the full reference size (so phase 1 applies no merges and both runs
start from identical summaries) while the value budget forces a deep
compression pass.  The same build runs once per builder; the kernel run
must reproduce the reference run *exactly* — same step count, same
per-node summary sizes, estimates within 1e-9 — and at full bench scale
must deliver at least a 2x speedup on the combined ``st_cmprs`` +
``hist_cmprs`` compression time.  Results land in
``BENCH_value_kernels.json`` (same report shape as
``BENCH_estimation.json``).
"""

import common
from repro.check.oracles import ReferenceBuilder, XClusterEstimator
from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.sizing import (
    structural_size_bytes,
    value_size_bytes,
    value_size_breakdown,
)

#: Speedup the kernel engine must deliver on the combined st_cmprs +
#: hist_cmprs compression time at full bench scale; smoke-scale runs
#: only check parity and the report plumbing.
SPEEDUP_FLOOR = 2.0
SPEEDUP_ASSERT_MIN_SCALE = 0.3

#: Value budget as a fraction of the reference value size — low enough
#: that every summary family compresses through many greedy steps.
VALUE_FRACTION = 0.25

#: Per-query parity bound between the two engines' estimates.
PARITY = 1e-9


def _relative_difference(expected, actual):
    scale = max(abs(expected), abs(actual), 1.0)
    return abs(expected - actual) / scale


def _run_build(
    context, dataset_name, builder_class, structural_budget, value_budget
):
    synopsis = context.fresh_reference(dataset_name)
    builder = builder_class(
        BuildConfig(
            structural_budget=structural_budget,
            value_budget=value_budget,
            pool_max=context.config.pool_max,
            pool_min=context.config.pool_min,
        )
    )
    builder.compress(synopsis)
    return synopsis, builder.stats


def _summary_sizes(synopsis):
    """Per-node (family, size) fingerprint of every value summary."""
    return {
        node.node_id: (node.value_type.name, node.vsumm.size_bytes())
        for node in synopsis.valued_nodes()
    }


def _stats_record(stats, engine):
    compression_seconds = (
        stats.hist_cmprs_seconds
        + stats.st_cmprs_seconds
        + stats.tv_cmprs_seconds
        + stats.other_cmprs_seconds
    )
    return {
        "value_phase_seconds": round(stats.value_phase_seconds, 4),
        "compression_seconds": round(compression_seconds, 4),
        "hist_cmprs_seconds": round(stats.hist_cmprs_seconds, 4),
        "st_cmprs_seconds": round(stats.st_cmprs_seconds, 4),
        "tv_cmprs_seconds": round(stats.tv_cmprs_seconds, 4),
        "other_cmprs_seconds": round(stats.other_cmprs_seconds, 4),
        "value_delta_seconds": round(stats.value_delta_seconds, 4),
        "value_steps_applied": stats.value_steps_applied,
        "value_stale_pops": stats.value_stale_pops,
        "final_value_bytes": stats.final_value_bytes,
        "value_budget_met": stats.value_budget_met,
        "engine": engine,
    }


def test_value_kernel_engine_speedup(experiment_context):
    """Reference vs kernel phase-2 XMark build → BENCH_value_kernels.json.

    The kernel engine must replay the reference engine's greedy
    compression sequence exactly (zero parity drift) and at full bench
    scale must run the st_cmprs + hist_cmprs work at least 2x faster.
    """
    context = experiment_context
    dataset_name = "xmark"
    reference = context.reference(dataset_name)
    structural_budget = structural_size_bytes(reference)
    value_budget = int(value_size_bytes(reference) * VALUE_FRACTION)
    queries = [wq.query for wq in context.workload(dataset_name).queries]

    reference_synopsis, reference_stats = _run_build(
        context, dataset_name, ReferenceBuilder, structural_budget, value_budget
    )
    kernel_synopsis, kernel_stats = _run_build(
        context, dataset_name, XClusterBuilder, structural_budget, value_budget
    )

    # Parity: the kernel engine must make the identical greedy decisions,
    # leaving every node's summary at the same family and size ...
    reference_sizes = _summary_sizes(reference_synopsis)
    kernel_sizes = _summary_sizes(kernel_synopsis)
    drift_nodes = sorted(
        node_id
        for node_id in set(reference_sizes) | set(kernel_sizes)
        if reference_sizes.get(node_id) != kernel_sizes.get(node_id)
    )
    parity_drift = len(drift_nodes)
    steps_match = (
        reference_stats.value_steps_applied == kernel_stats.value_steps_applied
    )

    # ... and the compressed synopses must estimate alike.
    reference_estimator = XClusterEstimator(reference_synopsis)
    kernel_estimator = XClusterEstimator(kernel_synopsis)
    parity_max = max(
        (
            _relative_difference(
                reference_estimator.estimate(query),
                kernel_estimator.estimate(query),
            )
            for query in queries
        ),
        default=0.0,
    )
    equivalent = parity_drift == 0 and steps_match and parity_max <= PARITY

    reference_hist_st = (
        reference_stats.hist_cmprs_seconds + reference_stats.st_cmprs_seconds
    )
    kernel_hist_st = (
        kernel_stats.hist_cmprs_seconds + kernel_stats.st_cmprs_seconds
    )
    speedup = reference_hist_st / kernel_hist_st if kernel_hist_st > 0 else 0.0
    phase_speedup = (
        reference_stats.value_phase_seconds / kernel_stats.value_phase_seconds
        if kernel_stats.value_phase_seconds > 0
        else 0.0
    )

    report = {
        "dataset": dataset_name,
        "scale": context.config.scale,
        "reference_nodes": len(reference),
        "valued_nodes": len(reference_sizes),
        "structural_budget": structural_budget,
        "value_budget": value_budget,
        "reference_value_bytes": value_size_bytes(reference),
        "value_size_breakdown": value_size_breakdown(kernel_synopsis),
        "queries": len(queries),
        "reference": _stats_record(reference_stats, "reference"),
        "kernel": _stats_record(kernel_stats, "kernel"),
        "speedup": round(speedup, 3),
        "value_phase_speedup": round(phase_speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": context.config.scale >= SPEEDUP_ASSERT_MIN_SCALE,
        "parity_drift": parity_drift,
        "drift_nodes": drift_nodes[:20],
        "steps_match": steps_match,
        "parity_max_rel_diff": parity_max,
        "equivalent": equivalent,
    }
    out_path = common.write_report(
        "value_kernels", report, "BENCH_value_kernels.json"
    )
    print(
        f"\nBENCH_value_kernels: reference st+hist {reference_hist_st:.3f}s, "
        f"kernel {kernel_hist_st:.3f}s -> speedup {speedup:.2f}x "
        f"(phase {phase_speedup:.2f}x, drift {parity_drift}, {out_path})"
    )

    assert steps_match, (
        f"kernel engine applied {kernel_stats.value_steps_applied} steps, "
        f"reference applied {reference_stats.value_steps_applied}"
    )
    assert parity_drift == 0, (
        f"{parity_drift} nodes diverged between engines "
        f"(first: {drift_nodes[:5]})"
    )
    assert equivalent, (
        f"kernel estimates diverged from the reference engine "
        f"(max rel diff {parity_max:.2e})"
    )
    if context.config.scale >= SPEEDUP_ASSERT_MIN_SCALE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"kernel speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
        )
