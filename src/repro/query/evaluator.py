"""Exact twig-query evaluation: the ground truth of every error figure.

This module computes the true selectivity ``s(Q)`` of a twig query — the
number of binding tuples (paper Section 2).  It is the ground truth
against which all XCluster estimates are scored, and it shares the
paper's path-counting semantics: an element reachable from its context
through several distinct axis paths contributes once per path.

The query root ``q0`` binds the *virtual document root*, whose single
child is the document's root element.  Counting runs as pre/post/level
interval joins over a :class:`~repro.xmltree.columnar.ColumnarDocument`
(:class:`repro.query.interval.IntervalEvaluator`); an object tree is
frozen once at the entry.  The tree-walk oracle it is checked against
lives in :mod:`repro.check.oracles`.
"""

from __future__ import annotations

from repro.query.ast import TwigQuery
from repro.query.interval import IntervalEvaluator
from repro.xmltree.columnar import Document, as_columnar


class ExactEvaluator(IntervalEvaluator):
    """Exact evaluator over either document substrate.

    The columnar form is derived once up front, so evaluating a whole
    workload amortizes the conversion and the per-label indexes.
    """

    def __init__(self, source: Document) -> None:
        super().__init__(as_columnar(source))


def evaluate_selectivity(source: Document, query: TwigQuery) -> int:
    """One-shot exact selectivity (see :class:`ExactEvaluator`)."""
    return ExactEvaluator(source).selectivity(query)
