"""Interval-join exact twig evaluation over a columnar document.

This is the optimized twin of the tree-walk evaluator
(:mod:`repro.query.evaluator`): it computes the same binding-tuple
count ``s(Q)`` (paper Section 2) without touching a single
``XMLElement``.  The document is a :class:`ColumnarDocument`, whose
implicit preorder index plus ``post``/``level`` (``post`` derived from
the stored subtree sizes) form an XPath accelerator-style pre/post/level
encoding: ``d`` is a descendant of
``a`` iff ``a < d`` and ``post[d] < post[a]``, and the subtree of
``a`` is the contiguous preorder interval ``[a, ends[a])``.

Evaluation is one forward/backward sweep per query variable:

* **forward** — advance a sorted ``array('i')`` frontier of candidate
  elements through each axis step of the variable's edge.  Child steps
  bisect a per-label sorted preorder index into the contexts' window
  and filter by the ``parent`` column; descendant steps are classic
  stack-based structural-join merges over the same index (or interval
  unions for wildcards).  No node objects, no per-element dicts.
* **backward** — seed each final-frontier element that passes the
  variable's predicate with the binding-tuple count of its own query
  subtree (a product over child variables, computed by recursing this
  same sweep), then push the weights back through the per-step
  frontiers: child steps accumulate onto ``parent``, descendant steps
  take prefix-sum differences over bisected subtree windows.

The backward pass counts, for every context element, the number of
distinct step-paths to every weighted match — which is exactly the
tree walk's "once per path" multiplicity rule, so counts are bit-equal
by construction.  Weights are carried as plain Python ints: binding
tuple counts are products over branches and can exceed 64 bits, which
the oracle's unbounded ints would represent exactly while an
``array('q')`` column would overflow.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import List, Sequence

from repro.query.ast import EdgePath, QueryNode, TwigQuery, WILDCARD
from repro.query.predicates import (
    AtLeastKPredicate,
    KeywordPredicate,
    RangePredicate,
    SubstringPredicate,
    TruePredicate,
)
from repro.xmltree.columnar import (
    KIND_NUMERIC,
    KIND_STRING,
    KIND_TEXT,
    ColumnarDocument,
)

#: Preorder index of the virtual document root (paper Section 2): the
#: node above the root element, one level above preorder 0.
VIRTUAL_ROOT = -1


class IntervalEvaluator:
    """Counts binding tuples of twig queries over one columnar document.

    The per-label preorder indexes and the subtree-end column are built
    lazily by the document and shared across queries, so evaluating a
    whole workload against one document pays the indexing cost once.
    """

    def __init__(self, doc: ColumnarDocument) -> None:
        self.doc = doc
        self._count = len(doc)
        self._ends = doc.subtree_ends()
        self._positions = doc.label_positions()

    # -- public API --------------------------------------------------------

    def selectivity(self, query: TwigQuery) -> int:
        """The exact number of binding tuples of ``query``."""
        total = 1
        for child in query.root.children:
            branch = self._branch_totals(child, (VIRTUAL_ROOT,))[0]
            if branch == 0:
                return 0
            total *= branch
        return total

    def matches(self, query: TwigQuery) -> bool:
        """Whether the query has at least one binding tuple."""
        return self.selectivity(query) > 0

    # -- helpers -----------------------------------------------------------

    def _end(self, index: int) -> int:
        """Exclusive preorder end of ``index``'s subtree interval."""
        return self._count if index < 0 else self._ends[index]

    def _branch_totals(
        self, variable: QueryNode, contexts: Sequence[int]
    ) -> List[int]:
        """Per-context branch totals for one query variable.

        For each context element ``e`` this returns ``B[variable][e]``:
        the sum over elements ``m`` reached from ``e`` via the
        variable's edge of (number of distinct step-paths ``e -> m``)
        times the binding-tuple count of ``variable``'s own query
        subtree with ``variable`` bound to ``m`` — the tree walk's
        ``branch_total`` term, for all contexts in one sweep.
        """
        frontiers: List[Sequence[int]] = [contexts]
        frontier: Sequence[int] = contexts
        for step in variable.edge.steps:
            frontier = self._forward_step(frontier, step)
            if not frontier:
                return [0] * len(contexts)
            frontiers.append(frontier)

        matched, weights = self._subtree_weights(variable, frontiers[-1])
        for depth in range(len(variable.edge.steps) - 1, -1, -1):
            step = variable.edge.steps[depth]
            matched, weights = self._backward_step(
                frontiers[depth], step.axis, matched, weights
            )
        return weights

    def _subtree_weights(self, variable, frontier):
        """Weight each final-frontier element by its own subtree count.

        Predicate failures are dropped here (weight would be zero);
        the surviving elements recurse into ``variable``'s children,
        mirroring the oracle's ``multiplicity * _tuples(child, m)``
        with the multiplicity left to the backward pass.
        """
        matched = self._predicate_filter(variable.predicate, frontier)
        weights = [1] * len(matched)
        if matched:
            for child in variable.children:
                branch = self._branch_totals(child, matched)
                for i, factor in enumerate(branch):
                    weights[i] *= factor
        return matched, weights

    def _predicate_filter(self, predicate, frontier):
        """Frontier elements passing ``predicate``, straight off columns.

        The three concrete predicate families are evaluated against the
        typed value columns without materializing per-element values
        (TEXT values in particular would rebuild a frozenset per probe).
        Semantics mirror ``Predicate.matches`` bit for bit: a kind
        mismatch is simply ``False``.  Unknown predicate types fall back
        to materializing values.
        """
        kind = type(predicate)
        if kind is TruePredicate:
            return list(frontier)
        doc = self.doc
        value_kind = doc.value_kind
        value_ref = doc.value_ref
        if kind is RangePredicate:
            low, high = predicate.low, predicate.high
            numeric = doc.numeric_values
            overflow = doc.numeric_overflow
            if overflow:
                return [
                    e
                    for e in frontier
                    if value_kind[e] == KIND_NUMERIC
                    and low
                    <= overflow.get(value_ref[e], numeric[value_ref[e]])
                    <= high
                ]
            return [
                e
                for e in frontier
                if value_kind[e] == KIND_NUMERIC
                and low <= numeric[value_ref[e]] <= high
            ]
        if kind is SubstringPredicate:
            needle = predicate.needle
            strings = doc.string_values
            return [
                e
                for e in frontier
                if value_kind[e] == KIND_STRING and needle in strings[value_ref[e]]
            ]
        if kind is KeywordPredicate or kind is AtLeastKPredicate:
            return self._text_filter(predicate, frontier)
        value = doc.value
        pred_matches = predicate.matches
        return [e for e in frontier if pred_matches(value(e))]

    def _text_filter(self, predicate, frontier):
        """TEXT predicates over interned term-id tuples.

        Streamed documents store each TEXT value as a tuple of term ids;
        interning the probe terms once turns every per-element check
        into small-int membership tests.  A probe term absent from the
        document-wide term table can never match.  Frozen documents
        keep original frozensets — those few fall back to
        ``Predicate.matches``.
        """
        term_index = self.doc.term_index
        probe_ids = set()
        missing = 0
        for term in predicate.terms:
            term_id = term_index.get(term)
            if term_id is None:
                missing += 1
            else:
                probe_ids.add(term_id)
        if type(predicate) is KeywordPredicate:
            required = len(predicate.terms)
        else:
            required = predicate.threshold
        if len(probe_ids) < required:
            # Enough probe terms are absent from the whole document
            # that the threshold is unreachable through the id path —
            # but frozenset-stored values must still be probed exactly.
            probe_ids = None
        value_kind = self.doc.value_kind
        value_ref = self.doc.value_ref
        texts = self.doc.text_values
        pred_matches = predicate.matches
        value = self.doc.value
        out = []
        for e in frontier:
            if value_kind[e] != KIND_TEXT:
                continue
            stored = texts[value_ref[e]]
            if type(stored) is not tuple:
                if pred_matches(stored):
                    out.append(e)
            elif probe_ids is not None and (
                sum(1 for term_id in stored if term_id in probe_ids)
                >= required
            ):
                out.append(e)
        return out

    # -- forward sweep -----------------------------------------------------

    def _forward_step(self, contexts, step):
        """All elements reachable from any context via one axis step.

        Returns a sorted, duplicate-free sequence of preorder indexes.
        Contexts are laminar (tree nodes: their subtree intervals nest
        or are disjoint), which every merge below relies on.
        """
        if step.axis == "child":
            if step.label == WILDCARD:
                return self._children_of(contexts)
            return self._labeled_children(contexts, step.label)
        if step.label == WILDCARD:
            return self._descendant_union(contexts)
        return self._labeled_descendants(contexts, step.label)

    def _label_window(self, contexts, label):
        """The per-label index sliced to the contexts' covering window."""
        label_id = self.doc.label_index.get(label)
        if label_id is None:
            return None
        positions = self._positions[label_id]
        if len(contexts) == 1:
            limit = self._end(contexts[0])
        else:
            limit = max(self._end(e) for e in contexts)
        low = bisect_right(positions, contexts[0])
        high = bisect_left(positions, limit, low)
        return positions[low:high]

    def _labeled_children(self, contexts, label):
        window = self._label_window(contexts, label)
        if not window:
            return ()
        parent = self.doc.parent
        if len(contexts) == 1:
            context = contexts[0]
            return [x for x in window if parent[x] == context]
        context_set = set(contexts)
        return [x for x in window if parent[x] in context_set]

    def _children_of(self, contexts):
        """Wildcard child step: step over the subtree sizes per context.

        Children of nested contexts interleave in preorder, so the
        concatenation is re-sorted; distinct parents cannot share a
        child, so no dedup is needed.
        """
        children = self.doc.children
        out: List[int] = []
        for context in contexts:
            if context >= 0:
                out.extend(children(context))
            elif self._count:
                out.append(0)  # the virtual document node's one child
        out.sort()
        return out

    def _labeled_descendants(self, contexts, label):
        """Structural join: label occurrences inside any context subtree.

        The classic stack merge — walk the label's preorder index once,
        pushing context subtree-ends as they start and popping them as
        they close; an occurrence is emitted while any context interval
        is open.  Laminar contexts keep the stack nested.
        """
        window = self._label_window(contexts, label)
        if not window:
            return ()
        if len(contexts) == 1:
            # The window is already exactly the context's strict
            # subtree: every occurrence in it is a descendant.
            return window
        out: List[int] = []
        ends_stack: List[int] = []
        pending = iter(contexts)
        next_context = next(pending)
        for x in window:
            while next_context is not None and next_context < x:
                ends_stack.append(self._end(next_context))
                next_context = next(pending, None)
            while ends_stack and ends_stack[-1] <= x:
                ends_stack.pop()
            if ends_stack:
                out.append(x)
        return out

    def _descendant_union(self, contexts):
        """Wildcard descendant step: the union of strict-subtree intervals."""
        if len(contexts) == 1:
            return range(contexts[0] + 1, self._end(contexts[0]))
        out: List[int] = []
        covered = 0
        for context in contexts:
            start, stop = context + 1, self._end(context)
            if stop <= covered:
                continue
            out.extend(range(max(start, covered), stop))
            covered = stop
        return out

    # -- backward sweep ----------------------------------------------------

    def _backward_step(self, contexts, axis, targets, weights):
        """Pull target weights one step back onto the context frontier.

        A single axis step reaches each target at most once from a
        given context, so summing target weights per context counts
        step-paths exactly.
        """
        if axis == "child":
            by_parent: dict = {}
            parent = self.doc.parent
            for x, w in zip(targets, weights):
                if w:
                    p = parent[x]
                    by_parent[p] = by_parent.get(p, 0) + w
            return contexts, [by_parent.get(e, 0) for e in contexts]
        # Descendant: each context sums the weights inside its strict
        # subtree window — a prefix-sum difference over the sorted
        # target frontier.
        prefix = [0]
        acc = 0
        for w in weights:
            acc += w
            prefix.append(acc)
        pulled = []
        ends = self._ends
        count = self._count
        for e in contexts:
            low = bisect_right(targets, e)
            high = bisect_left(targets, count if e < 0 else ends[e], low)
            pulled.append(prefix[high] - prefix[low])
        return contexts, pulled


def evaluate_columnar(doc: ColumnarDocument, query: TwigQuery) -> int:
    """One-shot exact selectivity over a columnar document."""
    return IntervalEvaluator(doc).selectivity(query)
