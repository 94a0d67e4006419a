"""Vectorized candidate-scoring engine for XCLUSTERBUILD (Section 4.3).

The scalar Δ metric in :mod:`repro.core.distance` re-resolves every
per-predicate selectivity through a dict cache inside a predicates ×
children double loop, and re-enumerates each summary's atomic-predicate
set *per candidate pair*.  During phase 1 the builder scores thousands
of candidates per pool build, so that cost dominates construction time.

This module makes candidate scoring incremental and batched:

* A :class:`SelectivityProfile` per synopsis node — a flat
  ``array``-backed vector of selectivities over the node's canonical
  atomic-predicate set (``TruePredicate`` first), plus the cached
  child-count second moment ``Σ_c count(u, c)²`` — computed once per
  node and invalidated only when a merge or compression touches it.
* :meth:`ScoringEngine.merge_delta` evaluates Δ(S, merge(S, u, v)) as a
  tight aligned-vector loop.  The inner sum over children collapses
  algebraically: with ``A = Σ cu²``, ``B = Σ cv²`` and ``C = Σ cu·cv``,

      Σ_c (σ_u·cu − σ_w·cw)² = x²A − 2xyC + y²B,

  where ``x = σ_u − a·σ_w`` and ``y = b·σ_w`` (``a``/``b`` the extent
  shares), so each predicate costs O(1) instead of O(children).
* Profiles persist across pool rebuilds (the engine outlives any one
  :class:`~repro.core.pool.CandidatePool`) and share the existing
  ``SelectivityCache`` with the scalar path, so selectivities computed
  in one rebuild are reused by the next.
* :func:`score_pairs_parallel` fans chunks of candidate pairs out over a
  ``multiprocessing`` pool for opt-in parallel pool construction
  (``BuildConfig.workers``); scoring is a pure function of the synopsis,
  so worker results are bit-identical to serial vectorized scoring.

The engine is numerically equivalent to the scalar implementation (the
summation over predicates runs in the same order; only the inner child
sum is factored), which the parity tests in ``tests/test_scoring.py``
pin down.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.distance import SelectivityCache
from repro.core.parallel import pool_context
from repro.core.sizing import merge_size_saving
from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.query.predicates import Predicate, TruePredicate

_TRUE = TruePredicate()

#: Below this many pairs the pool-start/IPC overhead exceeds the scoring work.
MIN_PARALLEL_PAIRS = 256


class SelectivityProfile:
    """Per-node selectivity vector over the canonical atomic-predicate set.

    Attributes:
        vsumm: the value summary the profile was computed against; the
            profile is stale once the node carries a different object.
        predicates: the canonical predicate tuple, ``TruePredicate``
            first, then the summary's canonical atomic predicates in
            their stable order.
        index: predicate -> *first* position in ``predicates`` (used for
            aligned union iteration and duplicate suppression).
        sigmas: ``array('d')`` of selectivities aligned with
            ``predicates``.
        child_sq: the child-count second moment ``Σ_c count(u, c)²``
            (0.0 for leaves; the leaf degenerate case is handled at
            scoring time).
    """

    __slots__ = ("vsumm", "predicates", "index", "sigmas", "child_sq")

    def __init__(
        self,
        vsumm,
        predicates: Tuple[Predicate, ...],
        index: Dict[Predicate, int],
        sigmas: array,
        child_sq: float,
    ) -> None:
        self.vsumm = vsumm
        self.predicates = predicates
        self.index = index
        self.sigmas = sigmas
        self.child_sq = child_sq


class ScoringEngine:
    """Profile-backed vectorized Δ evaluation over one synopsis.

    The engine owns the per-node profiles and shares a
    ``SelectivityCache`` with whatever else scores against the same
    synopsis.  Callers must :meth:`invalidate` every node whose local
    neighborhood changed (``CandidatePool.bump_versions`` does this for
    the builder's merge loop); value-summary replacement is detected
    automatically by object identity.
    """

    def __init__(
        self,
        synopsis: XClusterSynopsis,
        predicate_limit: int = 48,
        cache: Optional[SelectivityCache] = None,
    ) -> None:
        self.synopsis = synopsis
        self.predicate_limit = predicate_limit
        self.cache: SelectivityCache = cache if cache is not None else {}
        self.profiles: Dict[int, SelectivityProfile] = {}
        self.profile_hits = 0
        self.profile_misses = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # -- selectivity resolution ------------------------------------------------

    def _resolve(self, node: SynopsisNode, predicate: Predicate) -> float:
        """σ_p(u) with the exact semantics of ``node_selectivity``."""
        if isinstance(predicate, TruePredicate):
            return 1.0
        vsumm = node.vsumm
        if vsumm is None:
            return 1.0
        if predicate.value_type is not node.value_type:
            return 0.0
        key = (vsumm, predicate)
        value = self.cache.get(key)
        if value is None:
            value = vsumm.fast_selectivity(predicate)
            self.cache[key] = value
            self.cache_misses += 1
        else:
            self.cache_hits += 1
        return value

    # -- profile lifecycle -----------------------------------------------------

    def profile_for(self, node: SynopsisNode) -> SelectivityProfile:
        """The (cached) profile of ``node``, rebuilt when stale."""
        profile = self.profiles.get(node.node_id)
        if profile is not None and profile.vsumm is node.vsumm:
            self.profile_hits += 1
            return profile
        self.profile_misses += 1
        profile = self._build_profile(node)
        self.profiles[node.node_id] = profile
        return profile

    def _build_profile(self, node: SynopsisNode) -> SelectivityProfile:
        vsumm = node.vsumm
        if vsumm is None:
            predicates: Tuple[Predicate, ...] = (_TRUE,)
        else:
            predicates = (_TRUE,) + tuple(
                vsumm.canonical_atomic_predicates(self.predicate_limit)
            )
        sigmas = array(
            "d", [self._resolve(node, predicate) for predicate in predicates]
        )
        index: Dict[Predicate, int] = {}
        for position, predicate in enumerate(predicates):
            if predicate not in index:
                index[predicate] = position
        child_sq = 0.0
        for count in node.children.values():
            child_sq += count * count
        return SelectivityProfile(vsumm, predicates, index, sigmas, child_sq)

    def invalidate(self, node_ids: Iterable[int]) -> None:
        """Drop profiles of nodes whose neighborhood (or extent) changed."""
        for node_id in node_ids:
            self.profiles.pop(node_id, None)

    def audit_profiles(self) -> List[str]:
        """Issues with cached profiles (empty = healthy).

        The engine relies on callers invalidating nodes whose local
        neighborhood changed; a missed invalidation silently serves a
        stale ``child_sq`` moment (value-summary staleness is caught by
        object identity, but edge churn is not).  This hook re-derives
        every cached moment from the live synopsis so the differential
        harness can assert the lazy-invalidation protocol held after a
        build.
        """
        issues: List[str] = []
        for node_id, profile in self.profiles.items():
            node = self.synopsis.nodes.get(node_id)
            if node is None:
                continue  # merged away; served never, reaped lazily
            if profile.vsumm is not node.vsumm:
                continue  # identity-stale; profile_for would rebuild it
            actual = 0.0
            for count in node.children.values():
                actual += count * count
            if actual != profile.child_sq:
                issues.append(
                    f"profile of node {node_id} caches child moment "
                    f"{profile.child_sq!r} but the synopsis has {actual!r} "
                    "(missed invalidation)"
                )
        return issues

    # -- the Δ metric, vectorized ----------------------------------------------

    def merge_delta(self, u: SynopsisNode, v: SynopsisNode) -> float:
        """Δ(S, merge(S, u, v)); equals the scalar ``merge_delta``."""
        pu = self.profile_for(u)
        pv = self.profile_for(v)

        if not u.children and not v.children:
            # Leaf merge: the child sum degenerates to one virtual unit
            # count.  The factored form would cancel (x − y)² through
            # three nearly-equal products, turning exact-zero deltas into
            # ±1-ulp noise — enough to reorder zero-loss candidates
            # against the scalar engine — so leaves evaluate the scalar
            # expression verbatim (it is O(1) per predicate anyway).
            return self._leaf_merge_delta(u, v, pu, pv)

        second_u = pu.child_sq
        second_v = pv.child_sq
        smaller, larger = u.children, v.children
        if len(smaller) > len(larger):
            smaller, larger = larger, smaller
        cross = 0.0
        for child_id, count in smaller.items():
            other = larger.get(child_id)
            if other is not None:
                cross += count * other

        total = u.count + v.count
        u_share = u.count / total
        v_share = v.count / total
        u_count = float(u.count)
        v_count = float(v.count)
        sigmas_u = pu.sigmas
        sigmas_v = pv.sigmas
        index_u = pu.index
        index_v = pv.index

        delta = 0.0
        for position, predicate in enumerate(pu.predicates):
            sigma_u = sigmas_u[position]
            other = index_v.get(predicate)
            sigma_v = (
                sigmas_v[other] if other is not None else self._resolve(v, predicate)
            )
            sigma_w = u_share * sigma_u + v_share * sigma_v
            x = sigma_u - u_share * sigma_w
            y = v_share * sigma_w
            s = sigma_v - v_share * sigma_w
            t = u_share * sigma_w
            delta += u_count * (
                x * x * second_u - 2.0 * x * y * cross + y * y * second_v
            ) + v_count * (
                s * s * second_v - 2.0 * s * t * cross + t * t * second_u
            )
        for position, predicate in enumerate(pv.predicates):
            if predicate in index_u:
                continue  # already covered by u's side of the union
            if index_v[predicate] != position:
                continue  # duplicate within v's own predicate set
            sigma_v = sigmas_v[position]
            sigma_u = self._resolve(u, predicate)
            sigma_w = u_share * sigma_u + v_share * sigma_v
            x = sigma_u - u_share * sigma_w
            y = v_share * sigma_w
            s = sigma_v - v_share * sigma_w
            t = u_share * sigma_w
            delta += u_count * (
                x * x * second_u - 2.0 * x * y * cross + y * y * second_v
            ) + v_count * (
                s * s * second_v - 2.0 * s * t * cross + t * t * second_u
            )
        # Δ is a non-negative quadratic form; the factored evaluation can
        # round a few ulps below zero, which would outrank true zeros.
        return delta if delta > 0.0 else 0.0

    def _leaf_merge_delta(
        self,
        u: SynopsisNode,
        v: SynopsisNode,
        pu: SelectivityProfile,
        pv: SelectivityProfile,
    ) -> float:
        """The scalar Δ expression, bit-for-bit, for a leaf merge."""
        total = u.count + v.count
        u_share = u.count / total
        v_share = v.count / total
        sigmas_u = pu.sigmas
        sigmas_v = pv.sigmas
        index_u = pu.index
        index_v = pv.index
        delta = 0.0
        for position, predicate in enumerate(pu.predicates):
            sigma_u = sigmas_u[position]
            other = index_v.get(predicate)
            sigma_v = (
                sigmas_v[other] if other is not None else self._resolve(v, predicate)
            )
            sigma_w = u_share * sigma_u + v_share * sigma_v
            count_w = u_share * 1.0 + v_share * 1.0
            estimate_w = sigma_w * count_w
            error_u = sigma_u * 1.0 - estimate_w
            error_v = sigma_v * 1.0 - estimate_w
            delta += u.count * error_u * error_u + v.count * error_v * error_v
        for position, predicate in enumerate(pv.predicates):
            if predicate in index_u:
                continue  # already covered by u's side of the union
            if index_v[predicate] != position:
                continue  # duplicate within v's own predicate set
            sigma_v = sigmas_v[position]
            sigma_u = self._resolve(u, predicate)
            sigma_w = u_share * sigma_u + v_share * sigma_v
            count_w = u_share * 1.0 + v_share * 1.0
            estimate_w = sigma_w * count_w
            error_u = sigma_u * 1.0 - estimate_w
            error_v = sigma_v * 1.0 - estimate_w
            delta += u.count * error_u * error_u + v.count * error_v * error_v
        return delta

    def compression_delta(
        self,
        node: SynopsisNode,
        compressed,
        profile: Optional[SelectivityProfile] = None,
    ) -> float:
        """Δ(S, S′) for a value-compression step (vectorized σ_old).

        ``profile`` is ``profile_for(node)`` taken before a compression
        step that mutates the node's summary in place; by default it is
        looked up now.
        """
        if node.vsumm is None:
            raise ValueError("compression_delta needs a node with a value summary")
        if profile is None:
            profile = self.profile_for(node)
        squared_counts = profile.child_sq if node.children else 1.0
        sigmas = profile.sigmas
        predicates = profile.predicates
        accumulated = 0.0
        for position in range(1, len(predicates)):
            difference = sigmas[position] - compressed.fast_selectivity(
                predicates[position]
            )
            accumulated += difference * difference
        return node.count * squared_counts * accumulated


# -- parallel pool construction -------------------------------------------------

#: Per-worker state set by the pool initializer (inherited through the
#: fork, or pickled as initargs under spawn — see repro.core.parallel).
_WORKER_ENGINE: Optional[ScoringEngine] = None


def _init_scoring_worker(synopsis: XClusterSynopsis, predicate_limit: int) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = ScoringEngine(synopsis, predicate_limit)


def _score_chunk(
    pairs: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int, float, int]]:
    """Score one chunk of candidate pairs inside a worker process."""
    engine = _WORKER_ENGINE
    synopsis = engine.synopsis
    nodes = synopsis.nodes
    scored: List[Tuple[int, int, float, int]] = []
    for u_id, v_id in pairs:
        u = nodes.get(u_id)
        v = nodes.get(v_id)
        if u is None or v is None or u.merge_key() != v.merge_key():
            continue
        delta = engine.merge_delta(u, v)
        saving = max(1, merge_size_saving(synopsis, u_id, v_id))
        scored.append((u_id, v_id, delta, saving))
    return scored


def score_pairs_parallel(
    synopsis: XClusterSynopsis,
    pairs: Sequence[Tuple[int, int]],
    predicate_limit: int,
    workers: int,
) -> Optional[List[Tuple[int, int, float, int]]]:
    """Score candidate pairs on ``workers`` processes.

    Returns ``(u_id, v_id, delta, size_saving)`` tuples, or ``None``
    when parallel execution is unavailable or not worthwhile (too few
    pairs, no usable pool start method, or a sandbox that refuses
    process pools) — callers fall back to the serial path.  Scoring is a pure
    function of the synopsis, so the result set is identical to serial
    vectorized scoring regardless of chunking.
    """
    if workers <= 1 or len(pairs) < MIN_PARALLEL_PAIRS:
        return None
    context = pool_context()
    if context is None:
        return None
    chunk_count = min(len(pairs), workers * 4)
    chunks = [list(pairs[offset::chunk_count]) for offset in range(chunk_count)]
    try:
        with context.Pool(
            processes=workers,
            initializer=_init_scoring_worker,
            initargs=(synopsis, predicate_limit),
        ) as pool:
            chunk_results = pool.map(_score_chunk, chunks)
    except (OSError, PermissionError, RuntimeError):
        return None
    return [scored for chunk in chunk_results for scored in chunk]
