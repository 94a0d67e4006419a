"""Baseline summaries and naive policies for the ablation benchmarks.

* :func:`compress_with_policy` — structural compression driven by a
  *naive* merge-selection policy (random, or smallest-count-first)
  instead of the localized Δ marginal-loss metric; used by the
  metric-ablation bench to show the metric earns its keep.
* :func:`build_structure_only_synopsis` — a TreeSketch-style synopsis
  (no value summaries), the comparison anchor for the paper's ``Struct``
  series.
* :func:`naive_prune_pst` — count-based PST leaf pruning (smallest count
  first), the baseline for the ``st_cmprs`` pruning-error scheme.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.reference import LabelPath, build_reference_synopsis
from repro.core.sizing import structural_size_bytes
from repro.core.synopsis import XClusterSynopsis
from repro.values.pst import PrunedSuffixTree
from repro.xmltree.columnar import Document

#: A policy receives the merge-compatible groups and returns a pair of
#: node ids to merge, or ``None`` when it declines.
MergePolicy = Callable[[Dict[Tuple, List[int]], random.Random], Optional[Tuple[int, int]]]


def random_policy(
    groups: Dict[Tuple, List[int]], rng: random.Random
) -> Optional[Tuple[int, int]]:
    """Pick a uniformly random merge-compatible pair."""
    eligible = [members for members in groups.values() if len(members) >= 2]
    if not eligible:
        return None
    members = rng.choice(eligible)
    u_id, v_id = rng.sample(members, 2)
    return (u_id, v_id)


def make_smallest_count_policy(synopsis: XClusterSynopsis) -> MergePolicy:
    """A policy merging the two smallest-extent compatible clusters.

    This mimics a size-greedy heuristic that ignores structure/value
    similarity entirely.
    """

    def policy(
        groups: Dict[Tuple, List[int]], rng: random.Random
    ) -> Optional[Tuple[int, int]]:
        del rng
        best: Optional[Tuple[int, int]] = None
        best_size = None
        for members in groups.values():
            if len(members) < 2:
                continue
            ranked = sorted(members, key=lambda m: synopsis.node(m).count)
            size = synopsis.node(ranked[0]).count + synopsis.node(ranked[1]).count
            if best_size is None or size < best_size:
                best_size = size
                best = (ranked[0], ranked[1])
        return best

    return policy


def compress_with_policy(
    synopsis: XClusterSynopsis,
    structural_budget: int,
    policy: MergePolicy,
    seed: int = 0,
) -> XClusterSynopsis:
    """Compress ``synopsis`` structurally using a naive merge policy.

    Applies policy-chosen merges until the structural budget is met or no
    merge-compatible pair remains.  Value summaries still fuse correctly;
    only the *choice* of merges differs from XCLUSTERBUILD.
    """
    rng = random.Random(seed)
    while structural_size_bytes(synopsis) > structural_budget:
        groups: Dict[Tuple, List[int]] = {}
        for node in synopsis:
            if node.node_id == synopsis.root_id:
                continue
            groups.setdefault(node.merge_key(), []).append(node.node_id)
        pair = policy(groups, rng)
        if pair is None:
            break
        synopsis.merge_nodes(*pair)
    return synopsis


def build_structure_only_synopsis(
    document: Document,
    value_paths: Optional[Sequence[LabelPath]] = None,
) -> XClusterSynopsis:
    """A TreeSketch-style reference synopsis without value summaries."""
    return build_reference_synopsis(document, value_paths, with_summaries=False)


def naive_prune_pst(pst: PrunedSuffixTree, count: int) -> int:
    """Prune ``count`` PST leaves smallest-count-first (no error model).

    Returns the number of leaves actually pruned.  The ablation bench
    contrasts this with the pruning-error scheme of
    :meth:`~repro.values.pst.PrunedSuffixTree.prune_leaves`.
    """
    counts = pst.counts
    pruned = 0
    while pruned < count:
        leaves = pst._prunable_leaves()
        if not leaves:
            break
        leaves.sort(key=lambda leaf: (counts[leaf], leaf[-1]))
        for leaf in leaves:
            if pruned >= count:
                break
            del counts[leaf]
            pruned += 1
    return pruned
