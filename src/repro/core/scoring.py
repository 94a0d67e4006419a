"""Vectorized candidate-scoring engine for XCLUSTERBUILD (Section 4.3).

The scalar Δ metric in :mod:`repro.core.distance` re-resolves every
per-predicate selectivity through a dict cache inside a predicates ×
children double loop, and re-enumerates each summary's atomic-predicate
set *per candidate pair*.  During phase 1 the builder scores thousands
of candidates per pool build, so that cost dominates construction time.

This module makes candidate scoring incremental and batched:

* A :class:`SelectivityProfile` per synopsis node — a flat
  ``array``-backed vector of selectivities over the node's canonical
  atomic-predicate set (``TruePredicate`` first), indexed by plain
  builtin keys (:func:`predicate_key`), plus the cached child-count
  second moment ``Σ_c count(u, c)²`` — computed once per node and
  invalidated only when a merge or compression touches it.  A PST's
  atomic predicates are indexed substrings, so their σ are read off the
  counts that ranked them, with no trie walk.
* :meth:`ScoringEngine.merge_delta` evaluates Δ(S, merge(S, u, v)) as a
  tight aligned-vector loop.  The inner sum over children collapses
  algebraically: with ``A = Σ cu²``, ``B = Σ cv²`` and ``C = Σ cu·cv``,

      Σ_c (σ_u·cu − σ_w·cw)² = x²A − 2xyC + y²B,

  where ``x = σ_u − a·σ_w`` and ``y = b·σ_w`` (``a``/``b`` the extent
  shares), so each predicate costs O(1) instead of O(children).
* Profiles persist across pool rebuilds (the engine outlives any one
  :class:`~repro.core.pool.CandidatePool`); a summary's atomic table
  and the cross-summary selectivities evaluated against it are memoized
  on the summary itself, so they are reused by later rebuilds and die
  with the summary.
* :meth:`ScoringEngine.compression_delta` re-scores only the substrings
  a kernel ``st_cmprs`` step pruned; every other term is exactly zero.

The engine is numerically equivalent to the scalar implementation (the
summation over predicates runs in the same order; only the inner child
sum is factored), which the parity tests in ``tests/test_scoring.py``
pin down against :class:`repro.check.oracles.ReferenceBuilder`.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.query.predicates import (
    KeywordPredicate,
    Predicate,
    RangePredicate,
    SubstringPredicate,
    TruePredicate,
)
from repro.values.summary import StringSummary, ValueSummary

_TRUE = TruePredicate()

#: One summary's atomic set: ``(predicates, keys, index, sigmas)``.
AtomicTable = Tuple[Tuple[Predicate, ...], Tuple[Hashable, ...], Dict, array]

#: The atomic set of a node without a value summary: ``TruePredicate`` only.
_NO_SUMMARY: AtomicTable = ((_TRUE,), (None,), {None: 0}, array("d", [1.0]))


def predicate_key(predicate: Predicate) -> Hashable:
    """A builtin stand-in for ``predicate`` among predicates of one type.

    The needle, the ``(low, high)`` bounds or the term set — equal
    exactly when the predicates are — so profile lookups hash a ``str``,
    ``tuple`` or ``frozenset`` instead of calling ``Predicate.__hash__``.
    ``TruePredicate`` maps to ``None``.
    """
    if isinstance(predicate, SubstringPredicate):
        return predicate.needle
    if isinstance(predicate, RangePredicate):
        return (predicate.low, predicate.high)
    if isinstance(predicate, KeywordPredicate):
        return predicate.terms
    if isinstance(predicate, TruePredicate):
        return None
    return predicate


def _memo(vsumm: ValueSummary, name: str) -> dict:
    """A dict memo stored on the (immutable) summary itself.

    It lives and dies with the summary, so a memo never pins a summary
    the synopsis has let go of.
    """
    memo = vsumm.__dict__.get(name)
    if memo is None:
        memo = vsumm.__dict__[name] = {}
    return memo


class SelectivityProfile:
    """Per-node selectivity vector over the canonical atomic-predicate set.

    Attributes:
        vsumm: the value summary the profile was computed against; the
            profile is stale once the node carries a different object.
        predicates: the canonical predicate tuple, ``TruePredicate``
            first, then the summary's canonical atomic predicates in
            their stable order.
        keys: :func:`predicate_key` of each predicate.
        index: key -> *first* position in ``predicates`` (used for
            aligned union iteration and duplicate suppression).
        sigmas: ``array('d')`` of selectivities aligned with
            ``predicates``.
        memo: key -> σ of predicates outside ``predicates`` (the dict
            memoized on the summary; a private one without a summary).
        child_sq: the child-count second moment ``Σ_c count(u, c)²``
            (0.0 for leaves; the leaf degenerate case is handled at
            scoring time).
    """

    __slots__ = (
        "vsumm", "predicates", "keys", "index", "sigmas", "memo", "child_sq"
    )

    def __init__(
        self, vsumm, table: AtomicTable, memo: dict, child_sq: float
    ) -> None:
        self.vsumm = vsumm
        self.predicates, self.keys, self.index, self.sigmas = table
        self.memo = memo
        self.child_sq = child_sq


class ScoringEngine:
    """Profile-backed vectorized Δ evaluation over one synopsis.

    The engine owns the per-node profiles.  Everything in a profile
    except the child moment is a pure function of the summary, so it is
    memoized on the summary (:meth:`atomic_table`), as is every
    cross-summary selectivity :meth:`_resolve` evaluates.  Callers must
    :meth:`invalidate` every node whose local neighborhood changed
    (``CandidatePool.bump_versions`` does this for the builder's merge
    loop); value-summary replacement is detected automatically by object
    identity.

    ``cache_hits`` / ``cache_misses`` count the selectivities the engine
    needed: a miss is one ``fast_selectivity`` evaluation; a hit is a
    value read off a PST count, served from a memo, or known unchanged
    by a compression step.
    """

    def __init__(self, synopsis: XClusterSynopsis, predicate_limit: int = 48) -> None:
        self.synopsis = synopsis
        self.predicate_limit = predicate_limit
        self.profiles: Dict[int, SelectivityProfile] = {}
        self.profile_hits = 0
        self.profile_misses = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # -- selectivity resolution ------------------------------------------------

    def _resolve(
        self, node: SynopsisNode, predicate: Predicate, key: Hashable, memo: dict
    ) -> float:
        """σ_p(u) with the exact semantics of ``node_selectivity``.

        ``key`` is ``predicate_key(predicate)``; the value is stored in
        ``memo`` (the profile's) under it.
        """
        vsumm = node.vsumm
        if isinstance(predicate, TruePredicate) or vsumm is None:
            value = 1.0
        elif predicate.value_type is not node.value_type:
            value = 0.0
        else:
            value = vsumm.fast_selectivity(predicate)
            self.cache_misses += 1
        memo[key] = value
        return value

    def atomic_table(self, vsumm: Optional[ValueSummary]) -> AtomicTable:
        """``(predicates, keys, index, sigmas)`` of one summary, memoized.

        A PST's atomic predicates are indexed substrings, so their σ come
        from the counts the same enumeration returns
        (:meth:`~repro.values.pst.PrunedSuffixTree.indexed_selectivity`,
        the exact float ``selectivity`` would compute); other summaries
        evaluate ``fast_selectivity`` once per predicate.
        """
        if vsumm is None:
            return _NO_SUMMARY
        limit = self.predicate_limit
        tables = _memo(vsumm, "_atomic_tables")
        table = tables.get(limit)
        if table is not None:
            self.cache_hits += len(table[0]) - 1
            return table
        if isinstance(vsumm, StringSummary):
            counts = vsumm.atomic_counts(limit)
            keys = (None,) + tuple(substring for substring, _ in counts)
            predicates = (_TRUE,) + tuple(
                SubstringPredicate(substring) for substring in keys[1:]
            )
            sigma_of = vsumm.pst.indexed_selectivity
            sigmas = array("d", [1.0] + [sigma_of(count) for _, count in counts])
            self.cache_hits += len(counts)
        else:
            predicates = (_TRUE,) + tuple(vsumm.canonical_atomic_predicates(limit))
            keys = tuple(map(predicate_key, predicates))
            sigma_of = vsumm.fast_selectivity
            sigmas = array("d", [1.0] + [sigma_of(p) for p in predicates[1:]])
            self.cache_misses += len(predicates) - 1
        index: Dict[Hashable, int] = {}
        for position, key in enumerate(keys):
            index.setdefault(key, position)
        table = tables[limit] = (predicates, keys, index, sigmas)
        return table

    # -- profile lifecycle -----------------------------------------------------

    def profile_for(self, node: SynopsisNode) -> SelectivityProfile:
        """The (cached) profile of ``node``, rebuilt when stale."""
        profile = self.profiles.get(node.node_id)
        if profile is not None and profile.vsumm is node.vsumm:
            self.profile_hits += 1
            return profile
        self.profile_misses += 1
        child_sq = 0.0
        for count in node.children.values():
            child_sq += count * count
        vsumm = node.vsumm
        memo = {} if vsumm is None else _memo(vsumm, "_selectivity_memo")
        profile = SelectivityProfile(
            vsumm, self.atomic_table(vsumm), memo, child_sq
        )
        self.profiles[node.node_id] = profile
        return profile

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
        every cached moment from the live synopsis, and every cached σ
        through ``fast_selectivity`` (which catches a wrong count-backed
        σ), so the differential harness can assert the protocol held
        after a build.
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
            if node.vsumm is None:
                continue
            for predicate, sigma in zip(profile.predicates[1:], profile.sigmas[1:]):
                expected = node.vsumm.fast_selectivity(predicate)
                if sigma != expected:
                    issues.append(
                        f"profile of node {node_id} caches σ {sigma!r} for "
                        f"{predicate!r} but the summary gives {expected!r}"
                    )
        return issues

    # -- the Δ metric, vectorized ----------------------------------------------

    def _union_sigmas(
        self,
        u: SynopsisNode,
        v: SynopsisNode,
        pu: SelectivityProfile,
        pv: SelectivityProfile,
    ) -> Tuple[List[float], List[float]]:
        """``(σ_u, σ_v)`` over the union of both atomic sets, in the scalar
        order: all of u's predicates, then v's first occurrences that u
        lacks.  A σ the other profile does not hold comes from that
        summary's memo, or is evaluated once into it (:meth:`_resolve`).
        """
        index_u = pu.index
        index_v = pv.index
        sigmas_v = pv.sigmas
        memo_u = pu.memo
        memo_v = pv.memo
        union_u = list(pu.sigmas)
        union_v: List[float] = []
        hits = 0
        for position, key in enumerate(pu.keys):
            other = index_v.get(key)
            if other is not None:
                union_v.append(sigmas_v[other])
                continue
            sigma = memo_v.get(key)
            if sigma is None:
                sigma = self._resolve(v, pu.predicates[position], key, memo_v)
            else:
                hits += 1
            union_v.append(sigma)
        for position, key in enumerate(pv.keys):
            if key in index_u or index_v[key] != position:
                continue  # covered by u's side, or a duplicate within v's set
            union_v.append(sigmas_v[position])
            sigma = memo_u.get(key)
            if sigma is None:
                sigma = self._resolve(u, pv.predicates[position], key, memo_u)
            else:
                hits += 1
            union_u.append(sigma)
        self.cache_hits += hits
        return union_u, union_v

    def merge_delta(self, u: SynopsisNode, v: SynopsisNode) -> float:
        """Δ(S, merge(S, u, v)); equals the scalar ``merge_delta``."""
        pu = self.profile_for(u)
        pv = self.profile_for(v)
        union_u, union_v = self._union_sigmas(u, v, pu, pv)
        total = u.count + v.count
        u_share = u.count / total
        v_share = v.count / total

        if not u.children and not v.children:
            # Leaf merge: the child sum degenerates to one virtual unit
            # count.  The factored form would cancel (x − y)² through
            # three nearly-equal products, turning exact-zero deltas into
            # ±1-ulp noise — enough to reorder zero-loss candidates
            # against the scalar engine — so leaves evaluate the scalar
            # expression verbatim (it is O(1) per predicate anyway).
            delta = 0.0
            for sigma_u, sigma_v in zip(union_u, union_v):
                sigma_w = u_share * sigma_u + v_share * sigma_v
                count_w = u_share * 1.0 + v_share * 1.0
                estimate_w = sigma_w * count_w
                error_u = sigma_u * 1.0 - estimate_w
                error_v = sigma_v * 1.0 - estimate_w
                delta += u.count * error_u * error_u + v.count * error_v * error_v
            return delta

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

        u_count = float(u.count)
        v_count = float(v.count)
        delta = 0.0
        for sigma_u, sigma_v in zip(union_u, union_v):
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

    def compression_delta(
        self,
        node: SynopsisNode,
        compressed,
        profile: Optional[SelectivityProfile] = None,
    ) -> float:
        """Δ(S, S′) for a value-compression step (vectorized σ_old).

        ``profile`` is ``profile_for(node)`` taken before a compression
        step that mutates the node's summary in place; by default it is
        looked up now.  When ``compressed`` is a kernel ``st_cmprs`` step
        from that summary, every substring the step did not prune keeps
        its count and thus its σ, so its term is exactly ``0.0``: only
        the pruned ones (``StringSummary.pruned``) are evaluated, in
        predicate order, which leaves the float sum bit-identical.
        """
        if node.vsumm is None:
            raise ValueError("compression_delta needs a node with a value summary")
        if profile is None:
            profile = self.profile_for(node)
        squared_counts = profile.child_sq if node.children else 1.0
        sigmas = profile.sigmas
        predicates = profile.predicates
        pruned = compressed.pruned if isinstance(compressed, StringSummary) else None
        if pruned is None:
            positions: Sequence[int] = range(1, len(predicates))
        else:
            index = profile.index
            positions = sorted(index[key] for key in pruned if key in index)
        self.cache_misses += len(positions)
        self.cache_hits += len(predicates) - 1 - len(positions)
        accumulated = 0.0
        for position in positions:
            difference = sigmas[position] - compressed.fast_selectivity(
                predicates[position]
            )
            accumulated += difference * difference
        return node.count * squared_counts * accumulated

