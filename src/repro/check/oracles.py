"""Slow, obviously-correct oracles the fast production paths are checked against.

:func:`fixpoint_reference_classes` is the partition oracle for
:func:`repro.core.reference.reference_classes`: the paper-literal
both-ways refinement, iterated until the class count stops growing.
:func:`greedy_estimate_count` is the PST estimation oracle for
:meth:`repro.values.pst.PrunedSuffixTree.estimate_count`: the greedy
maximal-overlap chaining, re-walking and re-looking-up every piece.
Only the differential harness and the tests import this module.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.reference import (
    Document,
    _document_order,
    _intern_column,
    _object_initial_keys,
    columnar_initial_keys,
)
from repro.values.pst import PrunedSuffixTree
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


__all__ = [
    "MAX_REFINEMENT_ROUNDS",
    "fixpoint_reference_classes",
    "greedy_estimate_count",
    "refine_to_fixpoint",
]
