"""Estimation explanations: per-embedding breakdowns of an estimate.

``estimate_selectivity`` returns one number; optimizers and library
users debugging an estimate need to see *where* it came from — which
synopsis clusters each query variable embedded into, the structural
path counts, and the predicate selectivities applied under Path-Value
Independence.  :func:`explain` reruns the estimation sum-product while
recording one :class:`BranchContribution` per (variable, target cluster)
pair, and renders a readable report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.estimation import (
    VIRTUAL_ROOT,
    CompiledEstimator,
    edge_key_of,
    variable_order,
)
from repro.core.synopsis import XClusterSynopsis
from repro.query.ast import QueryNode, TwigQuery


@dataclass
class BranchContribution:
    """One embedding target of one query variable.

    Attributes:
        variable: the query variable name.
        edge: the edge path leading to the variable.
        node_id: the synopsis cluster the variable embeds into.
        label: that cluster's tag.
        reach: average number of elements (paths) reached per context
            element.
        sigma: the predicate selectivity σ_p at the cluster.
        subtree: expected binding tuples of the variable's subtree per
            reached element.
        contribution: ``reach * sigma * subtree``.
    """

    variable: str
    edge: str
    node_id: int
    label: str
    reach: float
    sigma: float
    subtree: float

    @property
    def contribution(self) -> float:
        return self.reach * self.sigma * self.subtree


@dataclass
class EstimateExplanation:
    """The full breakdown of one estimate."""

    query: str
    estimate: float
    branches: List[BranchContribution] = field(default_factory=list)

    def render(self) -> str:
        """A readable multi-line report."""
        lines = [f"query: {self.query}", f"estimate: {self.estimate:.3f}"]
        for branch in self.branches:
            lines.append(
                f"  {branch.variable:<6} {branch.edge:<14} -> "
                f"cluster #{branch.node_id} <{branch.label}>  "
                f"reach={branch.reach:.3f} sigma={branch.sigma:.3f} "
                f"subtree={branch.subtree:.3f} "
                f"contribution={branch.contribution:.3f}"
            )
        return "\n".join(lines)


def explain(
    synopsis: XClusterSynopsis,
    query: TwigQuery,
    max_path_length: int = 40,
) -> EstimateExplanation:
    """Estimate ``query`` and record every embedding contribution."""
    estimator = CompiledEstimator(synopsis, max_path_length)
    estimator.index.ensure_current()
    explanation = EstimateExplanation(query.to_xpath(), 0.0)
    memo: Dict[Tuple[int, int], float] = {}
    order = variable_order(query)

    def tuples(variable: QueryNode, node_id: int) -> float:
        """As the estimator's sum-product, but recording each fresh
        (variable, embedding target) contribution once."""
        key = (order[variable], node_id)
        if key in memo:
            return memo[key]
        total = 1.0
        for child in variable.children:
            branch_sum = 0.0
            frontier = estimator._reach(node_id, edge_key_of(child.edge))
            for target_id, reach in frontier.items():
                target = synopsis.node(target_id)
                sigma = estimator._selectivity(target, child.predicate)
                subtree = tuples(child, target_id)
                explanation.branches.append(
                    BranchContribution(
                        variable=child.name,
                        edge=str(child.edge),
                        node_id=target_id,
                        label=target.label,
                        reach=reach,
                        sigma=sigma,
                        subtree=subtree,
                    )
                )
                branch_sum += reach * sigma * subtree
            total *= branch_sum
        memo[key] = total
        return total

    explanation.estimate = tuples(query.root, VIRTUAL_ROOT)
    return explanation
