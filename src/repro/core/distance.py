"""The localized Δ(S, S′) clustering-error metric (paper Section 4.1).

The impact of a compression step is measured as the change in estimates
for a set of *atomic queries* ``u[p]/c`` localized around the affected
nodes: ``p`` ranges over atomic value predicates of the node's value
summary (prefix ranges / indexed substrings / individual terms, plus the
trivial structural predicate) and ``c`` over the affected children.  With
Path-Value Independence, the estimate of ``u[p]/c`` per element of ``u``
is ``e_S(u, p, c) = σ_p(u) · count(u, c)``, and

    Δ(S, S′) = |u| Σ_p Σ_c (e_S(u,p,c) − e_S′(w,p,c))²
             + |v| Σ_p Σ_c (e_S(v,p,c) − e_S′(w,p,c))².

For *leaf* nodes (no outgoing edges) the sum over children degenerates to
a single virtual unit-count child, so value-only error remains visible.

The fused node's predicate selectivities are computed with the closed
form ``σ_p(w) = (|u| σ_p(u) + |v| σ_p(v)) / |w|`` — exact for histogram
alignment-fusion and term-centroid weighting, and the direct analogue for
PST fusion — which keeps candidate scoring cheap: no summary is actually
fused until a merge is applied.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.query.predicates import Predicate, TruePredicate
from repro.values.summary import ValueSummary

#: Cache type: (value summary, predicate) -> selectivity.  The summary
#: object itself is the key (not its id): holding the reference pins the
#: object so recycled ids cannot alias cache entries across merges.
SelectivityCache = Dict[Tuple["ValueSummary", Predicate], float]


def node_selectivity(
    node: SynopsisNode,
    predicate: Predicate,
    cache: Optional[SelectivityCache] = None,
) -> float:
    """σ_p(u): the fraction of ``node``'s elements satisfying ``predicate``.

    The trivial predicate always has selectivity 1.  Nodes without a value
    summary cannot evaluate value predicates and conservatively report 1
    (the workloads only place predicates on summarized nodes); a predicate
    of the wrong type matches nothing.
    """
    if isinstance(predicate, TruePredicate):
        return 1.0
    if node.vsumm is None:
        return 1.0
    if predicate.value_type is not node.value_type:
        return 0.0
    if cache is None:
        return node.vsumm.selectivity(predicate)
    key = (node.vsumm, predicate)
    value = cache.get(key)
    if value is None:
        value = node.vsumm.selectivity(predicate)
        cache[key] = value
    return value


def atomic_predicates_for(node: SynopsisNode, limit: int) -> List[Predicate]:
    """The atomic predicates contributed by one node (paper Section 4.1).

    Served from the summary's canonical memo: summaries are immutable, so
    repeated Δ evaluations against the same summary (every candidate the
    node participates in) reuse one enumerated predicate set.
    """
    predicates: List[Predicate] = [TruePredicate()]
    if node.vsumm is not None:
        predicates.extend(node.vsumm.canonical_atomic_predicates(limit))
    return predicates


def merge_delta(
    synopsis: XClusterSynopsis,
    u: SynopsisNode,
    v: SynopsisNode,
    predicate_limit: int = 48,
    cache: Optional[SelectivityCache] = None,
) -> float:
    """Δ(S, merge(S, u, v)) over the localized atomic-query set."""
    del synopsis  # the metric is purely local to u and v
    predicates = atomic_predicates_for(u, predicate_limit)
    seen = set(predicates)
    for predicate in atomic_predicates_for(v, predicate_limit):
        if predicate not in seen:
            seen.add(predicate)
            predicates.append(predicate)

    child_ids = set(u.children) | set(v.children)
    if child_ids:
        child_counts = [
            (u.children.get(child_id, 0.0), v.children.get(child_id, 0.0))
            for child_id in child_ids
        ]
    else:
        # Leaf merge: atomic queries degenerate to u[p] with unit count.
        child_counts = [(1.0, 1.0)]

    total = u.count + v.count
    u_share = u.count / total
    v_share = v.count / total
    delta = 0.0
    for predicate in predicates:
        sigma_u = node_selectivity(u, predicate, cache)
        sigma_v = node_selectivity(v, predicate, cache)
        sigma_w = u_share * sigma_u + v_share * sigma_v
        for count_u, count_v in child_counts:
            count_w = u_share * count_u + v_share * count_v
            estimate_w = sigma_w * count_w
            error_u = sigma_u * count_u - estimate_w
            error_v = sigma_v * count_v - estimate_w
            delta += u.count * error_u * error_u + v.count * error_v * error_v
    return delta


def compression_baseline(
    node: SynopsisNode,
    predicate_limit: int = 48,
    cache: Optional[SelectivityCache] = None,
) -> List[Tuple[Predicate, float]]:
    """``(p, σ_p(u))`` over the atomic predicates of ``node``'s summary.

    The "before" half of :func:`compression_delta`, split out so a caller
    whose compression step mutates the node's summary in place can take
    it before the step.
    """
    if node.vsumm is None:
        raise ValueError("compression_delta needs a node with a value summary")
    return [
        (predicate, node_selectivity(node, predicate, cache))
        for predicate in node.vsumm.canonical_atomic_predicates(predicate_limit)
    ]


def compression_delta(
    node: SynopsisNode,
    compressed: ValueSummary,
    predicate_limit: int = 48,
    cache: Optional[SelectivityCache] = None,
    baseline: Optional[List[Tuple[Predicate, float]]] = None,
) -> float:
    """Δ(S, S′) for a value-compression step on ``node``.

    The synopsis structure is unchanged, so only the first summand of the
    merge formula applies (with ``w = u``): the estimation-error change of
    the atomic queries ``u[p]/c`` under the coarser summary.  ``baseline``
    is a :func:`compression_baseline` taken earlier; by default it is
    taken now.
    """
    if baseline is None:
        baseline = compression_baseline(node, predicate_limit, cache)
    if node.children:
        squared_counts = sum(avg * avg for avg in node.children.values())
    else:
        squared_counts = 1.0
    delta = 0.0
    for predicate, sigma_old in baseline:
        sigma_new = compressed.selectivity(predicate)
        difference = sigma_old - sigma_new
        delta += node.count * difference * difference * squared_counts
    return delta
