"""Ablation A3 — error-driven PST pruning vs. naive count-based pruning.

``st_cmprs`` (paper Section 4.2) ranks prunable leaves by *pruning
error* — how far the post-prune Markovian estimate drifts from the exact
count.  The naive baseline prunes smallest-count leaves first.  Both
prune the same tree to the same size; estimation error over a substring
workload decides the winner.
"""

import copy

from repro.core.baselines import naive_prune_pst
from repro.experiments import format_table
from repro.values.pst import PrunedSuffixTree
from repro.xmltree.types import ValueType


def collect_strings(context):
    dataset = context.dataset("imdb")
    return [
        element.value
        for element in dataset.tree
        if element.label == "name" and element.value_type is ValueType.STRING
    ]


def substring_workload(strings, limit=300):
    needles = set()
    for index, string in enumerate(strings):
        for length in (2, 3, 4):
            for start in range(0, max(1, len(string) - length), 3):
                needles.add(string[start : start + length])
        if len(needles) > limit * 3:
            break
    return sorted(needles)[:limit]


def test_pruning_error_vs_naive(experiment_context, benchmark, capsys):
    strings = collect_strings(experiment_context)
    full = PrunedSuffixTree.from_strings(strings, max_depth=5)
    needles = substring_workload(strings)
    truth = {needle: sum(1 for s in strings if needle in s) for needle in needles}
    prune_count = int(full.node_count * 0.7)

    def run():
        guided = full.copy()
        guided.prune_leaves(prune_count)
        naive = full.copy()
        naive_prune_pst(naive, prune_count)

        def mean_absolute_error(tree):
            return sum(
                abs(tree.estimate_count(needle) - truth[needle])
                for needle in needles
            ) / len(needles)

        return {
            "nodes": guided.node_count,
            "error-driven": mean_absolute_error(guided),
            "naive-count": mean_absolute_error(naive),
            "unpruned": mean_absolute_error(full),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = format_table(
        ["PST variant", "MAE (strings)"],
        [
            ["unpruned", f"{results['unpruned']:.3f}"],
            ["error-driven pruning", f"{results['error-driven']:.3f}"],
            ["naive count pruning", f"{results['naive-count']:.3f}"],
        ],
    )
    with capsys.disabled():
        print(
            f"\n== Ablation A3: PST pruning at {results['nodes']} nodes "
            f"(from {full.node_count}) =="
        )
        print(rendered)

    assert results["error-driven"] <= results["naive-count"] * 1.05
    assert results["unpruned"] <= results["error-driven"] + 1e-9
