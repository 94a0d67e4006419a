"""Slow, obviously-correct oracles the fast production paths are checked against.

:func:`fixpoint_reference_classes` is the partition oracle for
:func:`repro.core.reference.reference_classes`: the paper-literal
both-ways refinement, iterated until the class count stops growing.
:func:`greedy_estimate_count` is the PST estimation oracle for
:meth:`repro.values.pst.PrunedSuffixTree.estimate_count`: the greedy
maximal-overlap chaining, re-walking and re-looking-up every piece.
:class:`ReferenceBuilder` is the construction oracle for
:class:`repro.core.builder.XClusterBuilder`: the same greedy loop, scored
by the scalar Δ of :mod:`repro.core.distance` and compressed by the
scalar ``compress`` methods re-run from scratch per step.
Only the differential harness, the tests and the layer benchmarks
import this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.builder import XClusterBuilder
from repro.core.distance import (
    SelectivityCache,
    compression_baseline,
    compression_delta,
    merge_delta,
)
from repro.core.reference import (
    Document,
    _document_order,
    _intern_column,
    _object_initial_keys,
    columnar_initial_keys,
)
from repro.core.scoring import ScoringEngine
from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.values.kernels.pst import prune_leaves_reference
from repro.values.kernels.queue import GenericStepper, SummaryStepper
from repro.values.pst import PrunedSuffixTree
from repro.values.summary import (
    HistogramSummary,
    StringSummary,
    TextSummary,
    ValueSummary,
)
from repro.xmltree.columnar import ColumnarDocument

#: Safety cap on refinement iterations (convergence is far faster).
MAX_REFINEMENT_ROUNDS = 200


def refine_to_fixpoint(
    size: int,
    parents: Sequence[int],
    initial: List[int],
) -> List[int]:
    """Iterate both-ways refinement to the coarsest stable fixpoint.

    Each round re-keys every element by ``(own class, parent class,
    sorted child classes)`` and interns the keys in preorder.  Classes
    only ever split, so an unchanged class count means stability.
    ``initial`` must be numbered densely in first-occurrence order.
    """
    classes = initial
    class_count = len(set(classes))
    children_of: List[List[int]] = [[] for _ in range(size)]
    for index, parent_index in enumerate(parents):
        if parent_index >= 0:
            children_of[parent_index].append(index)

    for _ in range(MAX_REFINEMENT_ROUNDS):
        parent_classes = list(map(classes.__getitem__, parents))
        if size:
            parent_classes[0] = -1  # the root's parent index is -1
        lookup = classes.__getitem__
        interned: Dict[Tuple, int] = {}
        setdefault = interned.setdefault
        refined = [
            setdefault(
                (own, parent_class, tuple(sorted(map(lookup, kids)))),
                len(interned),
            )
            for own, parent_class, kids in zip(
                classes, parent_classes, children_of
            )
        ]
        refined_count = len(interned)
        if refined_count == class_count:
            return classes
        classes = refined
        class_count = refined_count
    return classes


def fixpoint_reference_classes(document: Document) -> List[int]:
    """The reference partition of ``document`` by fixpoint iteration."""
    if isinstance(document, ColumnarDocument):
        parents: Sequence[int] = document.parent
        initial = _intern_column(columnar_initial_keys(document))
    else:
        elements, parents, paths = _document_order(document)
        initial = _object_initial_keys(elements, paths)
    return refine_to_fixpoint(len(initial), parents, initial)


def _longest_match(tree: PrunedSuffixTree, text: str, start: int) -> int:
    """Length of the longest indexed substring of ``text`` at ``start``,
    grown one symbol at a time (the trie walk over the flat layout)."""
    length = 0
    while start + length < len(text):
        if text[start : start + length + 1] not in tree.counts:
            break
        length += 1
    return length


def greedy_estimate_count(tree: PrunedSuffixTree, query: str) -> float:
    """PST substring-count estimate by greedy maximal-overlap chaining.

    ``P(q) = P(s1) * Π P(si | overlap(si-1, si))``: the first piece is
    the longest indexed prefix; each continuation at ``position`` takes
    the smallest overlap start (within ``max_depth``) whose longest
    indexed match extends past ``position``, and multiplies in
    ``count(overlap + extension) / count(overlap)``.
    """
    total = tree.string_count
    if total == 0:
        return 0.0
    if not query:
        return float(total)
    prefix_len = _longest_match(tree, query, 0)
    if prefix_len == 0:
        return 0.0
    probability = tree.lookup(query[:prefix_len]) / total
    position = prefix_len
    while position < len(query):
        piece = None
        for overlap_start in range(max(0, position - tree.max_depth + 1), position + 1):
            matched = _longest_match(tree, query, overlap_start)
            if overlap_start + matched > position:
                piece = (overlap_start, overlap_start + matched - position)
                break
        if piece is None:
            return 0.0
        overlap_start, extension = piece
        joint = tree.lookup(query[overlap_start : position + extension])
        conditioning = (
            tree.lookup(query[overlap_start:position])
            if overlap_start < position
            else total
        )
        if not conditioning:
            return 0.0
        probability *= joint / conditioning
        position += extension
    return probability * total


class ScalarScoringEngine(ScoringEngine):
    """The :class:`ScoringEngine` interface over the scalar Δ metric.

    Every selectivity goes through :func:`repro.core.distance.
    node_selectivity` and one dict cache shared by the whole run.  The
    σ_old baseline :meth:`profile_for` returns is the scalar
    :func:`~repro.core.distance.compression_baseline` list, which is what
    this engine's :meth:`compression_delta` takes.  No profiles are kept,
    so the hit counters stay zero.
    """

    def __init__(
        self, synopsis: XClusterSynopsis, predicate_limit: int = 48
    ) -> None:
        super().__init__(synopsis, predicate_limit)
        self.cache: SelectivityCache = {}

    def merge_delta(self, u: SynopsisNode, v: SynopsisNode) -> float:
        return merge_delta(self.synopsis, u, v, self.predicate_limit, self.cache)

    def profile_for(self, node: SynopsisNode):
        return compression_baseline(node, self.predicate_limit, self.cache)

    def compression_delta(self, node, compressed, profile=None) -> float:
        return compression_delta(
            node, compressed, self.predicate_limit, self.cache, baseline=profile
        )


class ReferenceHistogramStepper(SummaryStepper):
    """``hist_cmprs`` by ``Histogram.compress`` from the current summary."""

    family = "hist_cmprs"

    def advance(self, amount: int) -> Optional[ValueSummary]:
        current = self.expected
        if not current.can_compress:
            return None
        compressed = HistogramSummary(current.histogram.compress(amount))
        self.expected = compressed
        return compressed


class ReferencePSTStepper(SummaryStepper):
    """``st_cmprs`` by :func:`prune_leaves_reference` on a fresh clone."""

    family = "st_cmprs"

    def advance(self, amount: int) -> Optional[ValueSummary]:
        clone = self.expected.pst.copy()
        if prune_leaves_reference(clone, amount) == 0:
            return None
        compressed = StringSummary(clone)
        self.expected = compressed
        return compressed


class ReferenceEBTHStepper(SummaryStepper):
    """``tv_cmprs`` by ``EndBiasedTermHistogram.compress``."""

    family = "tv_cmprs"

    def advance(self, amount: int) -> Optional[ValueSummary]:
        current = self.expected
        if not current.can_compress:
            return None
        compressed = TextSummary(current.ebth.compress(amount))
        self.expected = compressed
        return compressed


def reference_stepper(summary: ValueSummary) -> SummaryStepper:
    """The scalar-oracle stepper for one summary's family."""
    if isinstance(summary, HistogramSummary):
        return ReferenceHistogramStepper(summary)
    if isinstance(summary, StringSummary):
        return ReferencePSTStepper(summary)
    if isinstance(summary, TextSummary):
        return ReferenceEBTHStepper(summary)
    return GenericStepper(summary)


class ReferenceBuilder(XClusterBuilder):
    """XCLUSTERBUILD on the scalar oracles.

    Scores with :class:`ScalarScoringEngine` and compresses with the
    ``Reference*Stepper`` classes; every merge and compression decision
    equals the production builder's, so the two build byte-identical
    synopses.
    """

    def _new_engine(self, synopsis: XClusterSynopsis) -> ScoringEngine:
        return ScalarScoringEngine(synopsis, self.config.predicate_limit)

    def _new_stepper(self, summary: ValueSummary) -> SummaryStepper:
        return reference_stepper(summary)


__all__ = [
    "MAX_REFINEMENT_ROUNDS",
    "ReferenceBuilder",
    "ReferenceEBTHStepper",
    "ReferenceHistogramStepper",
    "ReferencePSTStepper",
    "ScalarScoringEngine",
    "fixpoint_reference_classes",
    "greedy_estimate_count",
    "reference_stepper",
    "refine_to_fixpoint",
]
