"""XCLUSTERBUILD: two-phase synopsis construction (paper Section 4.3).

Phase 1 — **structure-value merge** — compresses the reference synopsis'
graph down to the structural budget ``B_str`` by repeatedly applying the
candidate merge with the smallest *marginal loss* (Δ per byte saved),
using the level-bounded candidate pool of :mod:`repro.core.pool`:
merges start among leaves (level 0/1) and the level bound grows as
merged nodes make their parents' merges attractive.

Phase 2 — **value-summary compression** — compresses the per-node value
summaries down to the value budget ``B_val`` by repeatedly applying the
cheapest ``hist_cmprs`` / ``st_cmprs`` / ``tv_cmprs`` step, ranked by the
same marginal-loss rule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.distance import (
    SelectivityCache,
    compression_baseline,
    compression_delta,
)
from repro.core.pool import CandidatePool, build_pool
from repro.core.scoring import ScoringEngine
from repro.core.reference import Document, LabelPath, build_reference_synopsis
from repro.core.sizing import structural_size_bytes, value_size_bytes
from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.values.kernels.queue import SummaryStepper, make_stepper
from repro.values.summary import (
    HistogramSummary,
    StringSummary,
    SummaryConfig,
    TextSummary,
    ValueSummary,
)
#: Stepper family -> the BuildStats timer its advances accumulate into.
def _profile_violation(message: str):
    """Wrap a scoring-engine staleness finding as a check Violation."""
    from repro.check.invariants import Violation

    return Violation("scoring-profile", message)


_FAMILY_TIMERS = {
    "hist_cmprs": "hist_cmprs_seconds",
    "st_cmprs": "st_cmprs_seconds",
    "tv_cmprs": "tv_cmprs_seconds",
    "value_cmprs": "other_cmprs_seconds",
}


@dataclass
class BuildConfig:
    """Parameters of XCLUSTERBUILD.

    Attributes:
        structural_budget: ``B_str`` in bytes (graph nodes + edges).
        value_budget: ``B_val`` in bytes (all value summaries).
        pool_max: ``H_m``, the maximum candidate-pool size.
        pool_min: ``H_l``, the pool size at which it is replenished.
        predicate_limit: atomic predicates per summary in the Δ metric.
        neighbors: similarity neighbors per node during pool generation.
        histogram_step: buckets removed per ``hist_cmprs`` step.
        string_step: PST leaves pruned per ``st_cmprs`` step.
        text_step: terms demoted per ``tv_cmprs`` step.
        scoring: candidate-scoring implementation — ``"vectorized"``
            (the profile-backed engine, default) or ``"scalar"`` (the
            reference Δ implementation, kept for parity testing and
            benchmarking against the pre-optimization path).
        value_engine: phase-2 compression execution — ``"kernel"``
            (incremental per-node steppers backed by
            :mod:`repro.values.kernels`, default) or ``"reference"``
            (the scalar oracles re-run from scratch per step; same
            decisions bit-for-bit, kept for parity and benchmarking).
        workers: processes for parallel pool construction; 1 (default)
            keeps pool builds serial.  Only the vectorized engine fans
            out; scalar scoring ignores this knob.
        audit: run the :mod:`repro.check` invariant auditor on the
            compressed synopsis; violations land in
            :attr:`BuildStats.audit_violations`.  Off by default (it
            adds a full synopsis walk per build).
        summary: construction knobs for the detailed reference summaries.
    """

    structural_budget: int = 4096
    value_budget: int = 16384
    pool_max: int = 10000
    pool_min: int = 5000
    predicate_limit: int = 32
    neighbors: int = 8
    histogram_step: int = 1
    string_step: int = 8
    text_step: int = 4
    scoring: str = "vectorized"
    value_engine: str = "kernel"
    workers: int = 1
    audit: bool = False
    summary: SummaryConfig = field(default_factory=SummaryConfig)


@dataclass
class BuildStats:
    """Diagnostics of one construction run.

    Beyond the outcome counters, the stats carry the construction
    profiling layer: per-phase wall-clock timers, Δ-evaluation counts,
    selectivity-cache and profile hit rates (vectorized scoring only),
    and the candidate-pool trim churn.
    """

    merges_applied: int = 0
    value_steps_applied: int = 0
    pool_rebuilds: int = 0
    final_structural_bytes: int = 0
    final_value_bytes: int = 0
    structural_budget_met: bool = False
    value_budget_met: bool = False
    reference_nodes: int = 0
    final_nodes: int = 0
    #: Wall-clock seconds spent inside ``build_pool`` calls.
    pool_build_seconds: float = 0.0
    #: Wall-clock seconds of phase 1 (structure-value merge).
    merge_phase_seconds: float = 0.0
    #: Wall-clock seconds of phase 2 (value-summary compression).
    value_phase_seconds: float = 0.0
    #: Δ evaluations: merge scoring (pool + rescoring) and value steps.
    scoring_calls: int = 0
    #: Selectivity resolutions served from / missing the shared cache.
    selectivity_cache_hits: int = 0
    selectivity_cache_misses: int = 0
    #: Selectivity-profile reuse across candidates and pool rebuilds.
    profile_hits: int = 0
    profile_misses: int = 0
    #: Candidate-pool capacity trims and candidates evicted by them.
    pool_trims: int = 0
    candidates_trimmed: int = 0
    #: Processes used for pool construction (1 = serial).
    workers_used: int = 1
    #: Phase-2 compression engine actually used ("kernel"/"reference").
    value_engine_used: str = "kernel"
    #: Phase-2 wall-clock split: seconds inside compression advances,
    #: per summary family, plus Δ evaluation of the resulting candidates
    #: (including the σ_old baseline/profile taken before each advance).
    hist_cmprs_seconds: float = 0.0
    st_cmprs_seconds: float = 0.0
    tv_cmprs_seconds: float = 0.0
    other_cmprs_seconds: float = 0.0
    value_delta_seconds: float = 0.0
    #: Phase-2 heap pops discarded by lazy revalidation.
    value_stale_pops: int = 0
    #: Invariant violations found by the post-build audit (only
    #: populated when :attr:`BuildConfig.audit` is on; each entry is a
    #: ``repro.check.invariants.Violation``).
    audit_violations: list = field(default_factory=list)

    @property
    def selectivity_cache_hit_rate(self) -> float:
        """Fraction of cache-eligible selectivity lookups served cached."""
        total = self.selectivity_cache_hits + self.selectivity_cache_misses
        return self.selectivity_cache_hits / total if total else 0.0

    @property
    def profile_hit_rate(self) -> float:
        """Fraction of profile requests served without a rebuild."""
        total = self.profile_hits + self.profile_misses
        return self.profile_hits / total if total else 0.0


@dataclass(order=True)
class _ValueCandidate:
    """One entry of the phase-2 lazy-revalidation priority queue.

    Ordered by ``(marginal_loss, node_id)`` — the node id makes equal
    losses pop in a canonical order, independent of heap history (and
    therefore identical between the kernel and reference engines).
    """

    marginal_loss: float
    node_id: int
    #: The summary this candidate was computed against; the candidate is
    #: stale once the node carries a different object.
    source_summary: ValueSummary = field(compare=False)
    compressed: ValueSummary = field(compare=False)
    delta: float = field(compare=False)
    saving: int = field(compare=False)


class XClusterBuilder:
    """Builds an XCluster synopsis for a storage budget (paper Figure 5)."""

    def __init__(self, config: Optional[BuildConfig] = None) -> None:
        self.config = config if config is not None else BuildConfig()
        if self.config.scoring not in ("vectorized", "scalar"):
            raise ValueError(
                f"unknown scoring mode {self.config.scoring!r}; "
                "expected 'vectorized' or 'scalar'"
            )
        if self.config.value_engine not in ("kernel", "reference"):
            raise ValueError(
                f"unknown value engine {self.config.value_engine!r}; "
                "expected 'kernel' or 'reference'"
            )
        self.stats = BuildStats()
        self._cache: SelectivityCache = {}
        self._engine: Optional[ScoringEngine] = None

    # -- public API -----------------------------------------------------------

    def build(
        self,
        document: Document,
        value_paths: Optional[Sequence[LabelPath]] = None,
    ) -> XClusterSynopsis:
        """Construct a budgeted synopsis directly from a document.

        ``document`` is either an object :class:`XMLTree` or a
        :class:`~repro.xmltree.columnar.ColumnarDocument`; the two
        substrates produce bit-identical synopses.
        """
        reference = build_reference_synopsis(
            document, value_paths, self.config.summary
        )
        return self.compress(reference)

    def compress(self, synopsis: XClusterSynopsis) -> XClusterSynopsis:
        """Compress an existing (reference) synopsis in place to budget.

        Returns the same synopsis object for convenience.
        """
        self.stats = BuildStats(reference_nodes=len(synopsis))
        self.stats.workers_used = max(1, self.config.workers)
        self.stats.value_engine_used = self.config.value_engine
        self._cache = {}
        self._engine = (
            ScoringEngine(synopsis, self.config.predicate_limit, self._cache)
            if self.config.scoring == "vectorized"
            else None
        )
        started = perf_counter()
        self._merge_phase(synopsis)
        self.stats.merge_phase_seconds = perf_counter() - started
        started = perf_counter()
        self._value_phase(synopsis)
        self.stats.value_phase_seconds = perf_counter() - started
        if self._engine is not None:
            self.stats.selectivity_cache_hits = self._engine.cache_hits
            self.stats.selectivity_cache_misses = self._engine.cache_misses
            self.stats.profile_hits = self._engine.profile_hits
            self.stats.profile_misses = self._engine.profile_misses
        self.stats.final_structural_bytes = structural_size_bytes(synopsis)
        self.stats.final_value_bytes = value_size_bytes(synopsis)
        self.stats.structural_budget_met = (
            self.stats.final_structural_bytes <= self.config.structural_budget
        )
        self.stats.value_budget_met = (
            self.stats.final_value_bytes <= self.config.value_budget
        )
        self.stats.final_nodes = len(synopsis)
        if self.config.audit:
            # Imported lazily: repro.check depends on this module.
            from repro.check.invariants import InvariantAuditor

            auditor = InvariantAuditor(
                predicate_limit=self.config.predicate_limit
            )
            self.stats.audit_violations = auditor.audit(synopsis)
            if self._engine is not None:
                self.stats.audit_violations.extend(
                    _profile_violation(message)
                    for message in self._engine.audit_profiles()
                )
        return synopsis

    # -- phase 1: structure-value merge ------------------------------------------

    def _build_pool(
        self,
        synopsis: XClusterSynopsis,
        level_limit: int,
        levels: Dict[int, int],
    ) -> CandidatePool:
        """One timed ``build_pool`` call with the configured scoring path."""
        config = self.config
        started = perf_counter()
        pool = build_pool(
            synopsis,
            config.pool_max,
            level_limit,
            levels,
            config.predicate_limit,
            config.neighbors,
            self._cache,
            engine=self._engine,
            workers=config.workers if self._engine is not None else 1,
        )
        self.stats.pool_build_seconds += perf_counter() - started
        self.stats.pool_rebuilds += 1
        return pool

    def _collect_pool_stats(self, pool: CandidatePool) -> None:
        """Fold a retiring pool's counters into the build stats."""
        self.stats.scoring_calls += pool.scoring_calls
        self.stats.pool_trims += pool.trims
        self.stats.candidates_trimmed += pool.candidates_trimmed

    def _merge_phase(self, synopsis: XClusterSynopsis) -> None:
        config = self.config
        structural = structural_size_bytes(synopsis)
        if structural <= config.structural_budget:
            return

        levels = synopsis.levels()
        max_level_cap = max(levels.values(), default=0) + 1
        level_limit = 1
        pool = self._build_pool(synopsis, level_limit, levels)
        group_index = self._group_index(synopsis)

        while structural > config.structural_budget:
            drain_floor = (
                0
                if level_limit >= max_level_cap
                else min(config.pool_min, len(pool) // 2)
            )
            stage_max_new_level = 0
            progressed = False
            while len(pool) > drain_floor and structural > config.structural_budget:
                candidate = pool.pop_best()
                if candidate is None:
                    break
                u_id, v_id = candidate.u_id, candidate.v_id
                new_level = min(levels.get(u_id, 0), levels.get(v_id, 0))
                merged = synopsis.merge_nodes(u_id, v_id)
                structural -= candidate.size_saving
                progressed = True
                self.stats.merges_applied += 1
                levels[merged.node_id] = new_level
                stage_max_new_level = max(stage_max_new_level, new_level)
                self._update_group_index(group_index, merged, u_id, v_id)
                pool.bump_versions(
                    [merged.node_id, *merged.parents, *merged.children]
                )
                self._add_local_candidates(
                    pool, group_index, merged, levels, level_limit
                )
            if structural <= config.structural_budget:
                break
            next_limit = max(level_limit + 1, stage_max_new_level + 1)
            if not progressed and len(pool) == 0 and level_limit >= max_level_cap:
                break  # no compatible merges remain anywhere
            level_limit = min(next_limit, max_level_cap)
            levels = synopsis.levels()
            max_level_cap = max(levels.values(), default=0) + 1
            self._collect_pool_stats(pool)
            pool = self._build_pool(synopsis, level_limit, levels)
            if len(pool) == 0 and level_limit >= max_level_cap:
                break
        self._collect_pool_stats(pool)

    @staticmethod
    def _group_index(synopsis: XClusterSynopsis) -> Dict[Tuple, List[int]]:
        groups: Dict[Tuple, List[int]] = {}
        for node in synopsis:
            groups.setdefault(node.merge_key(), []).append(node.node_id)
        return groups

    @staticmethod
    def _update_group_index(
        groups: Dict[Tuple, List[int]],
        merged: SynopsisNode,
        u_id: int,
        v_id: int,
    ) -> None:
        members = groups.setdefault(merged.merge_key(), [])
        members[:] = [m for m in members if m not in (u_id, v_id)]
        members.append(merged.node_id)

    def _add_local_candidates(
        self,
        pool: CandidatePool,
        groups: Dict[Tuple, List[int]],
        merged: SynopsisNode,
        levels: Dict[int, int],
        level_limit: int,
    ) -> None:
        """Pair a freshly merged node with a few compatible peers.

        Full similarity-sorted generation happens at pool replenish time;
        here a bounded number of peers keeps per-merge cost constant.
        """
        members = groups.get(merged.merge_key(), [])
        budget = self.config.neighbors * 2
        added = 0
        for peer_id in reversed(members):
            if peer_id == merged.node_id:
                continue
            if levels.get(peer_id, 0) > level_limit:
                continue
            pool.push_pair(merged.node_id, peer_id)
            added += 1
            if added >= budget:
                break
        pool.enforce_capacity()

    # -- phase 2: value-summary compression -----------------------------------------

    def _compression_step(self, summary: ValueSummary) -> int:
        if isinstance(summary, HistogramSummary):
            return self.config.histogram_step
        if isinstance(summary, StringSummary):
            return self.config.string_step
        if isinstance(summary, TextSummary):
            return self.config.text_step
        return 1

    def _advance_stepper(
        self, node: SynopsisNode, steppers: Dict[int, SummaryStepper]
    ) -> Optional[ValueSummary]:
        """One timed compression advance on the node's persistent stepper.

        The stepper is lazily revalidated: if the node's summary is no
        longer the one the stepper's state continues from (first visit,
        or the summary was replaced outside the stepper's own chain), a
        fresh stepper is created from the current summary.
        """
        summary = node.vsumm
        stepper = steppers.get(node.node_id)
        if stepper is None or stepper.expected is not summary:
            stepper = make_stepper(summary, self.config.value_engine)
            steppers[node.node_id] = stepper
        started = perf_counter()
        compressed = stepper.advance(self._compression_step(summary))
        elapsed = perf_counter() - started
        timer = _FAMILY_TIMERS.get(stepper.family, "other_cmprs_seconds")
        setattr(self.stats, timer, getattr(self.stats, timer) + elapsed)
        return compressed

    def _value_candidate(
        self, node: SynopsisNode, steppers: Dict[int, SummaryStepper]
    ) -> Optional[_ValueCandidate]:
        summary = node.vsumm
        if summary is None or not summary.can_compress:
            return None
        # The kernel PST stepper prunes the trie the node's summary may
        # share, so the committed size and the Δ baseline (σ_old) are
        # taken before the advance.
        size = summary.size_bytes()
        started = perf_counter()
        if self._engine is not None:
            baseline = self._engine.profile_for(node)
        else:
            baseline = compression_baseline(
                node, self.config.predicate_limit, self._cache
            )
        self.stats.value_delta_seconds += perf_counter() - started
        compressed = self._advance_stepper(node, steppers)
        if compressed is None:
            return None
        saving = size - compressed.size_bytes()
        if saving <= 0:
            return None
        self.stats.scoring_calls += 1
        started = perf_counter()
        if self._engine is not None:
            delta = self._engine.compression_delta(node, compressed, baseline)
        else:
            delta = compression_delta(node, compressed, baseline=baseline)
        self.stats.value_delta_seconds += perf_counter() - started
        return _ValueCandidate(
            marginal_loss=delta / saving,
            node_id=node.node_id,
            source_summary=summary,
            compressed=compressed,
            delta=delta,
            saving=saving,
        )

    def _value_phase(self, synopsis: XClusterSynopsis) -> None:
        config = self.config
        value_size = value_size_bytes(synopsis)
        if value_size <= config.value_budget:
            return
        #: node id -> the persistent compression stepper for its summary
        #: chain (kernel engine: incremental heaps/orders carried across
        #: successive steps on the same node).
        steppers: Dict[int, SummaryStepper] = {}
        heap: List[_ValueCandidate] = []
        for node in synopsis.valued_nodes():
            candidate = self._value_candidate(node, steppers)
            if candidate is not None:
                heap.append(candidate)
        heapq.heapify(heap)
        while heap and value_size > config.value_budget:
            candidate = heapq.heappop(heap)
            node = synopsis.nodes.get(candidate.node_id)
            if node is None or node.vsumm is not candidate.source_summary:
                self.stats.value_stale_pops += 1
                continue  # stale: node merged away or summary replaced
            node.vsumm = candidate.compressed
            value_size -= candidate.saving
            self.stats.value_steps_applied += 1
            follow_up = self._value_candidate(node, steppers)
            if follow_up is not None:
                heapq.heappush(heap, follow_up)
        # Candidates left unapplied may have advanced a working trie the
        # node's committed summary shares: undo them.
        for node_id, stepper in steppers.items():
            node = synopsis.nodes.get(node_id)
            if node is not None and stepper.expected is not node.vsumm:
                stepper.rollback()


def build_xcluster(
    document: Document,
    structural_budget: int,
    value_budget: int,
    value_paths: Optional[Sequence[LabelPath]] = None,
    config: Optional[BuildConfig] = None,
) -> XClusterSynopsis:
    """One-call construction of a budgeted XCluster synopsis.

    Args:
        document: the document to summarize — an object
            :class:`XMLTree` or a columnar document.
        structural_budget: ``B_str`` in bytes.
        value_budget: ``B_val`` in bytes.
        value_paths: label paths under which value summaries are kept.
        config: overrides for the remaining knobs; the caller's object
            is never mutated — the budgets are applied to a copy.

    Returns:
        The compressed synopsis.
    """
    if config is None:
        config = BuildConfig(
            structural_budget=structural_budget, value_budget=value_budget
        )
    else:
        config = replace(
            config,
            structural_budget=structural_budget,
            value_budget=value_budget,
        )
    builder = XClusterBuilder(config)
    return builder.build(document, value_paths)
