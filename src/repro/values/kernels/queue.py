"""Per-node compression steppers for the builder's phase-2 queue.

Phase 2 of XCLUSTERBUILD repeatedly applies the cheapest
``hist_cmprs`` / ``st_cmprs`` / ``tv_cmprs`` step.  Ranking candidates
requires *materializing* each node's next compressed summary, and after
a step is applied the node needs a fresh follow-up candidate — which the
pre-kernel builder produced by re-running the whole compression from the
node's current summary (for PSTs: a full clone plus a from-scratch
re-rank of every prunable leaf, per step).

A :class:`SummaryStepper` owns the incremental kernel state for one
node's summary chain, so the follow-up candidate costs one incremental
advance (heap pops for PSTs and histograms, an order-slice for EBTHs)
plus a snapshot — or, for PSTs, no snapshot at all: the candidate is a
view of the stepper's working trie, undone by
:meth:`SummaryStepper.rollback` if it is never applied.  Both engines
are provided behind the same interface:

* ``make_stepper(summary, "kernel")`` — the incremental kernels;
* ``make_stepper(summary, "reference")`` — the scalar oracles
  (``Histogram.compress``, :func:`prune_leaves_reference`,
  ``EndBiasedTermHistogram.compress``), used for parity testing and as
  the benchmark baseline.

Every stepper records the summary object its state continues from in
``expected``; the builder recreates the stepper whenever the node's
summary was replaced by something else (lazy revalidation, the same
stamp-and-check pattern as the candidate pool and the synopsis
indexes).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Optional

from repro.values.kernels.ebth import EBTHCompressionKernel
from repro.values.kernels.histogram import HistogramCompressionKernel
from repro.values.kernels.pst import (
    PruneJournal,
    PSTPruneKernel,
    prune_leaves_reference,
)
from repro.values.summary import (
    HistogramSummary,
    StringSummary,
    TextSummary,
    ValueSummary,
    _copy_pst,
)


class SummaryStepper:
    """One node's compression chain: successive ``compress`` snapshots."""

    #: Timer family the builder attributes this stepper's work to.
    family = "value_cmprs"

    def __init__(self, summary: ValueSummary) -> None:
        #: The summary the next ``advance`` continues from.
        self.expected: ValueSummary = summary

    def advance(self, amount: int) -> Optional[ValueSummary]:
        """The next summary ``amount`` steps smaller, or ``None``."""
        raise NotImplementedError

    def rollback(self) -> None:
        """Undo the last advance's effect on summaries it shares state with.

        Only steppers whose results are views of a shared working
        structure need this; the default (independent snapshots) is a
        no-op.
        """


class GenericStepper(SummaryStepper):
    """Fallback driving ``ValueSummary.compress`` (wavelets, extensions)."""

    def advance(self, amount: int) -> Optional[ValueSummary]:
        current = self.expected
        if not current.can_compress:
            return None
        compressed = current.compress(amount)
        if compressed is None:
            return None
        self.expected = compressed
        return compressed


class KernelHistogramStepper(SummaryStepper):
    family = "hist_cmprs"

    def __init__(self, summary: HistogramSummary) -> None:
        super().__init__(summary)
        self._kernel = HistogramCompressionKernel(summary.histogram)

    def advance(self, amount: int) -> Optional[ValueSummary]:
        if self._kernel.merge(amount) == 0:
            return None
        compressed = HistogramSummary(self._kernel.snapshot())
        self.expected = compressed
        return compressed


class KernelPSTStepper(SummaryStepper):
    """Copy-free ``st_cmprs`` chain over one working trie.

    The stepper copies the node's trie once and prunes that copy in
    place; every summary ``advance`` returns is a view of the same
    working trie, so it describes the trie only until the next advance
    or rollback.  Alongside the trie the stepper keeps the sorted
    ``(-count, substring)`` list of its substrings (deletions are
    ``bisect``-located), and each returned summary gets a snapshot of it
    for its atomic predicates.  The last advance is journaled so that an
    unapplied candidate can be undone with :meth:`rollback`.
    """

    family = "st_cmprs"

    def __init__(self, summary: StringSummary) -> None:
        super().__init__(summary)
        self._working = _copy_pst(summary.pst)
        self._kernel: Optional[PSTPruneKernel] = PSTPruneKernel(self._working)
        self._ranked = sorted(
            (-count, substring) for substring, count in self._working.substrings()
        )
        #: Undo log of the last advance, and the summary it continued from.
        self._journal: Optional[PruneJournal] = None
        self._previous: ValueSummary = summary

    def advance(self, amount: int) -> Optional[ValueSummary]:
        # Advancing accepts the previous step: it can no longer be undone.
        self._journal = None
        if self._kernel is None:
            self._kernel = PSTPruneKernel(self._working)
        journal = PruneJournal()
        if self._kernel.prune(amount, journal) == 0:
            return None
        ranked = self._ranked
        for key in journal.removed:
            del ranked[bisect_left(ranked, key)]
        self._journal = journal
        self._previous = self.expected
        compressed = StringSummary(self._working, list(ranked))
        self.expected = compressed
        return compressed

    def rollback(self) -> None:
        """Undo the last advance: the working trie (dict order included),
        the ranked list and ``expected`` return to their prior state.

        The prune queue has moved past the restored trie, so it is
        reseeded on the next advance; the greedy prune sequence is a
        fixed point of the trie, so the chain continues unchanged.
        """
        journal = self._journal
        if journal is None:
            return
        journal.undo(self._working)
        for key in journal.removed:
            insort(self._ranked, key)
        self._journal = None
        self._kernel = None
        self.expected = self._previous


class KernelEBTHStepper(SummaryStepper):
    family = "tv_cmprs"

    def __init__(self, summary: TextSummary) -> None:
        super().__init__(summary)
        self._kernel = EBTHCompressionKernel(summary.ebth)

    def advance(self, amount: int) -> Optional[ValueSummary]:
        if self._kernel.demote(amount) == 0:
            return None
        compressed = TextSummary(self._kernel.snapshot())
        self.expected = compressed
        return compressed


class ReferenceHistogramStepper(SummaryStepper):
    family = "hist_cmprs"

    def advance(self, amount: int) -> Optional[ValueSummary]:
        current = self.expected
        if not current.can_compress:
            return None
        compressed = HistogramSummary(current.histogram.compress(amount))
        self.expected = compressed
        return compressed


class ReferencePSTStepper(SummaryStepper):
    family = "st_cmprs"

    def advance(self, amount: int) -> Optional[ValueSummary]:
        current = self.expected
        clone = _copy_pst(current.pst)
        if prune_leaves_reference(clone, amount) == 0:
            return None
        compressed = StringSummary(clone)
        self.expected = compressed
        return compressed


class ReferenceEBTHStepper(SummaryStepper):
    family = "tv_cmprs"

    def advance(self, amount: int) -> Optional[ValueSummary]:
        current = self.expected
        if not current.can_compress:
            return None
        compressed = TextSummary(current.ebth.compress(amount))
        self.expected = compressed
        return compressed


def make_stepper(summary: ValueSummary, engine: str = "kernel") -> SummaryStepper:
    """The stepper for one summary under the requested engine."""
    if engine not in ("kernel", "reference"):
        raise ValueError(
            f"unknown value engine {engine!r}; expected 'kernel' or 'reference'"
        )
    if isinstance(summary, HistogramSummary):
        return (
            KernelHistogramStepper(summary)
            if engine == "kernel"
            else ReferenceHistogramStepper(summary)
        )
    if isinstance(summary, StringSummary):
        return (
            KernelPSTStepper(summary)
            if engine == "kernel"
            else ReferencePSTStepper(summary)
        )
    if isinstance(summary, TextSummary):
        return (
            KernelEBTHStepper(summary)
            if engine == "kernel"
            else ReferenceEBTHStepper(summary)
        )
    return GenericStepper(summary)
