"""Negative (zero-selectivity) workloads (paper Section 6.1).

The paper reports — without a figure — that XClusters "consistently
yield close to zero estimates" on negative workloads at all budgets.
This module derives a negative workload from a positive one by mutating
queries into certifiably unsatisfiable variants:

* NUMERIC ranges pushed entirely outside the value domain;
* substring needles containing a symbol absent from the data;
* keyword predicates using a term outside the vocabulary;
* structural branches requiring a child label that never occurs.

Every mutated query is re-checked against the exact evaluator.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.datasets.dataset import Dataset
from repro.query.ast import AxisStep, EdgePath, QueryNode, TwigQuery
from repro.query.evaluator import ExactEvaluator
from repro.query.predicates import (
    KeywordPredicate,
    RangePredicate,
    SubstringPredicate,
    TruePredicate,
)
from repro.workload.generator import QueryClass, Workload, WorkloadQuery
from repro.xmltree.stats import collect_statistics

#: A substring character guaranteed absent from generated datasets.
_IMPOSSIBLE_CHAR = "§"  # section sign
_IMPOSSIBLE_TERM = "zzzzunusedterm"
_IMPOSSIBLE_LABEL = "no_such_element"


def _copy_twig(query: TwigQuery) -> TwigQuery:
    """Deep-copy a twig (query nodes are mutable)."""

    def copy_node(node: QueryNode) -> QueryNode:
        duplicate = QueryNode(node.name, node.edge, node.predicate)
        for child in node.children:
            duplicate.children.append(copy_node(child))
        return duplicate

    return TwigQuery(copy_node(query.root))


def _negate_predicates(twig: TwigQuery, domain_hi: int, rng: random.Random) -> bool:
    """Replace one value predicate with an unsatisfiable one."""
    candidates = [node for node in twig.nodes() if node.has_value_predicate]
    if not candidates:
        return False
    node = rng.choice(candidates)
    predicate = node.predicate
    if isinstance(predicate, RangePredicate):
        node.predicate = RangePredicate(domain_hi + 10, domain_hi + 20)
    elif isinstance(predicate, SubstringPredicate):
        node.predicate = SubstringPredicate(_IMPOSSIBLE_CHAR + predicate.needle)
    elif isinstance(predicate, KeywordPredicate):
        node.predicate = KeywordPredicate(
            list(predicate.terms) + [_IMPOSSIBLE_TERM]
        )
    else:
        return False
    return True


def _negate_structure(twig: TwigQuery, rng: random.Random) -> bool:
    """Attach a branch requiring a label that never occurs."""
    nodes = twig.nodes()
    owner = rng.choice(nodes[1:]) if len(nodes) > 1 else nodes[0]
    branch = QueryNode(
        "impossible",
        EdgePath((AxisStep("child", _IMPOSSIBLE_LABEL),)),
        TruePredicate(),
    )
    owner.add_child(branch)
    return True


def make_negative_workload(
    dataset: Dataset,
    positive: Workload,
    seed: int = 99,
    limit: Optional[int] = None,
    evaluator: Optional[ExactEvaluator] = None,
) -> Workload:
    """Derive a verified zero-selectivity workload from ``positive``.

    Every mutated query is re-graded to certify it really is zero;
    pass a shared ``evaluator`` the same way as
    :class:`TwigWorkloadGenerator`.
    """
    rng = random.Random(seed)
    if evaluator is None:
        evaluator = ExactEvaluator(dataset.tree)
    stats = collect_statistics(evaluator.doc)
    domain_hi = stats.numeric_domain[1] if stats.numeric_domain else 1

    negatives: List[WorkloadQuery] = []
    for workload_query in positive.queries:
        if limit is not None and len(negatives) >= limit:
            break
        mutated = _copy_twig(workload_query.query)
        if workload_query.query_class is QueryClass.STRUCT:
            changed = _negate_structure(mutated, rng)
        else:
            changed = _negate_predicates(mutated, domain_hi, rng)
            if not changed:
                changed = _negate_structure(mutated, rng)
        if not changed:
            continue
        if evaluator.selectivity(mutated) != 0:
            continue  # mutation accidentally stayed satisfiable
        negatives.append(
            WorkloadQuery(mutated, 0, workload_query.query_class)
        )
    return Workload(f"{positive.name}-negative", negatives)
