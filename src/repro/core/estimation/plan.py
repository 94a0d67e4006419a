"""Twig-query plan compilation.

A :class:`CompiledPlan` is the query-side half of the estimation split:
a flat, immutable rendering of a :class:`~repro.query.ast.TwigQuery`
with stable pre-order variable indexes, canonicalized edge-path keys
(the :data:`~repro.core.estimation.indexes.EdgeKey` tuples the synopsis
-side caches are keyed by), and the value predicates.  Plans contain no
synopsis state at all, so one plan serves any synopsis — autobudget
trials retarget a compiled workload across dozens of candidate synopses
without recompiling — and plans are safely cached across queries: two
structurally identical queries share one plan via :attr:`CompiledPlan.
signature` (memo keys use the per-plan variable index, never ``id()``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.estimation.indexes import EdgeKey
from repro.query.ast import AxisStep, EdgePath, QueryNode, TwigQuery
from repro.query.predicates import Predicate

#: Canonical cross-query plan-cache key: one ``(parent index, edge key,
#: predicate)`` triple per pre-order variable.  Variable names are
#: excluded — they never affect the estimate.
PlanSignature = Tuple[Tuple[int, Optional[EdgeKey], Predicate], ...]


def variable_order(query: TwigQuery) -> Dict[QueryNode, int]:
    """Stable per-query variable indexes (pre-order, root = 0).

    The same indexes :func:`compile_query` assigns.  Memo keys use them
    instead of ``id(variable)``: indexes survive plan caching across
    queries, whereas ``id()`` keys would alias once a query object is
    garbage-collected and its addresses recycled.
    """
    return {variable: index for index, variable in enumerate(query.root.iter())}


def edge_key_of(edge: EdgePath) -> EdgeKey:
    """The canonical ``((axis, label), ...)`` key of one edge path."""
    return tuple((step.axis, step.label) for step in edge.steps)


class PlanVariable:
    """One compiled query variable.

    Attributes:
        index: stable pre-order position within the plan (root = 0).
        name: the source variable's name (observability only).
        edge_key: canonical key of the incoming edge path (``None`` for
            the root variable).
        predicate: the variable's value predicate.
        children: plan indexes of the child variables, in query order.
    """

    __slots__ = ("index", "name", "edge_key", "predicate", "children")

    def __init__(
        self,
        index: int,
        name: str,
        edge_key: Optional[EdgeKey],
        predicate: Predicate,
    ) -> None:
        self.index = index
        self.name = name
        self.edge_key = edge_key
        self.predicate = predicate
        self.children: Tuple[int, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlanVariable #{self.index} {self.name} children={self.children}>"


class CompiledPlan:
    """An executable twig plan: flat variables plus the cache signature.

    Attributes:
        signature: the canonical :data:`PlanSignature` (plan-cache key).
        variables: every :class:`PlanVariable` in pre-order; index 0 is
            the root variable bound to the virtual document root.
    """

    __slots__ = ("signature", "variables")

    def __init__(
        self, signature: PlanSignature, variables: Tuple[PlanVariable, ...]
    ) -> None:
        self.signature = signature
        self.variables = variables

    @property
    def variable_count(self) -> int:
        """Number of query variables in the plan."""
        return len(self.variables)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledPlan variables={len(self.variables)}>"


def compile_query(query: TwigQuery) -> CompiledPlan:
    """Compile ``query`` into a :class:`CompiledPlan` in one traversal."""
    variables: List[PlanVariable] = []
    signature: List[Tuple[int, Optional[EdgeKey], Predicate]] = []

    def visit(node: QueryNode, parent_index: int) -> int:
        index = len(variables)
        edge_key = edge_key_of(node.edge) if node.edge is not None else None
        variable = PlanVariable(index, node.name, edge_key, node.predicate)
        variables.append(variable)
        signature.append((parent_index, edge_key, node.predicate))
        variable.children = tuple(
            visit(child, index) for child in node.children
        )
        return index

    visit(query.root, -1)
    return CompiledPlan(tuple(signature), tuple(variables))


def twig_of(signature: PlanSignature) -> TwigQuery:
    """A twig whose compiled plan has ``signature``.

    Variables are named ``q<index>``.  Names never reach a signature, so
    ``compile_query(twig_of(s)).signature == s`` and the twig estimates
    exactly like every query that compiles to ``s``.
    """
    nodes = [QueryNode("q0", None, signature[0][2])]
    for index, (parent, edge_key, predicate) in enumerate(signature[1:], 1):
        edge = EdgePath(tuple(AxisStep(axis, label) for axis, label in edge_key))
        nodes.append(nodes[parent].add_child(QueryNode(f"q{index}", edge, predicate)))
    return TwigQuery(nodes[0])
