"""Random positive twig-query workloads (paper Section 6.1).

Queries are sampled with a bias toward high counts, mirroring the paper
("the sampling of paths and predicates is biased toward high-counts"):

* a random document *element* is drawn uniformly, so populous paths are
  proportionally more likely to anchor a query;
* its root-to-element label path becomes the query's main spine, with
  random steps compressed into descendant (``//``) axes;
* value predicates are drawn, with configurable probability, from the
  *most frequent* values on the target path — the top substrings of a
  path-wide suffix tree, the highest-document-frequency terms, wide
  numeric ranges — falling back to values of the sampled element (which
  exercises the low-count tail that Figure 9 reports on).

Two twig shapes are generated: *leaf-predicate* queries whose spine ends
at the valued element, and *branch-predicate* queries where the
predicate sits on a branch (``//movie[./year >= 2000]/cast/actor``) so
the estimate couples predicate selectivity with downstream structure —
the atomic ``u[p]/c`` pattern of the paper's Δ metric.

Each query gets a reporting class: ``STRUCT`` (no predicates), or
``NUMERIC`` / ``STRING`` / ``TEXT`` per its single predicate type (the
per-class series of Figure 8); ``MIXED`` is reserved for user-built
queries with several predicate types.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets.dataset import Dataset
from repro.query.ast import AxisStep, EdgePath, QueryNode, TwigQuery
from repro.query.evaluator import ExactEvaluator
from repro.query.predicates import (
    KeywordPredicate,
    Predicate,
    RangePredicate,
    SubstringPredicate,
)
from repro.values.pst import PrunedSuffixTree
from repro.xmltree.paths import LabelPath, matches_any
from repro.xmltree.tree import XMLElement
from repro.xmltree.types import ValueType


class QueryClass(enum.Enum):
    """Reporting class of a workload query."""

    STRUCT = "struct"
    NUMERIC = "numeric"
    STRING = "string"
    TEXT = "text"
    MIXED = "mixed"


@dataclass
class WorkloadQuery:
    """A twig query with its ground-truth selectivity."""

    query: TwigQuery
    exact: int
    query_class: QueryClass


@dataclass
class Workload:
    """A collection of classified workload queries."""

    name: str
    queries: List[WorkloadQuery] = field(default_factory=list)

    def by_class(self, query_class: QueryClass) -> List[WorkloadQuery]:
        """The queries of one reporting class."""
        return [wq for wq in self.queries if wq.query_class is query_class]

    @property
    def structural_queries(self) -> List[WorkloadQuery]:
        return self.by_class(QueryClass.STRUCT)

    @property
    def predicate_queries(self) -> List[WorkloadQuery]:
        return [wq for wq in self.queries if wq.query_class is not QueryClass.STRUCT]

    def average_result_size(
        self, queries: Optional[Sequence[WorkloadQuery]] = None
    ) -> float:
        """Mean exact selectivity (Table 2's "Avg. Result Size")."""
        chosen = list(queries) if queries is not None else self.queries
        if not chosen:
            return 0.0
        return sum(wq.exact for wq in chosen) / len(chosen)

    def __len__(self) -> int:
        return len(self.queries)


@dataclass
class WorkloadConfig:
    """Workload-shape knobs."""

    #: Queries per predicate class (and for the structural class).
    queries_per_class: int = 25
    #: Probability of converting a spine step to the descendant axis.
    descendant_probability: float = 0.3
    #: Probability of attaching an extra structural branch.
    branch_probability: float = 0.4
    #: Probability of the branch-predicate twig shape (vs leaf-predicate).
    branch_predicate_probability: float = 0.45
    #: Probability of lifting a branch-predicate anchor one level higher
    #: (multi-level branches measure cross-level correlations).
    anchor_lift_probability: float = 0.5
    #: Probability of drawing the predicate from the high-count pool.
    high_count_bias: float = 0.7
    #: Maximum attempts at generating one positive query.
    max_attempts: int = 60
    #: Range-predicate half-width as a fraction of the value domain.
    numeric_width_fraction: float = 0.15
    #: Substring needle length bounds.
    substring_length: Tuple[int, int] = (3, 6)
    #: Fallback needles are redrawn (a few times) until they occur in at
    #: least this many strings on the path (the paper's high-count bias).
    min_needle_frequency: int = 3
    #: Probability of a second keyword in TEXT predicates (multi-term
    #: queries stress the Boolean-independence assumption of the model).
    second_keyword_probability: float = 0.3
    #: Size of the per-path frequent-substring / frequent-term pools.
    pool_size: int = 48


class _PathValuePool:
    """High-count predicate material for one concrete valued label path."""

    def __init__(
        self,
        value_type: ValueType,
        elements: List[XMLElement],
        config: WorkloadConfig,
    ) -> None:
        self.value_type = value_type
        self.elements = elements
        self.frequent_substrings: List[Tuple[str, int]] = []
        self.frequent_terms: List[Tuple[str, int]] = []
        self.substring_index: PrunedSuffixTree = None
        if value_type is ValueType.STRING:
            pst = PrunedSuffixTree.from_strings(
                (element.value for element in elements), max_depth=6
            )
            self.substring_index = pst
            self.frequent_substrings = [
                (substring, count)
                for substring, count in pst.top_substrings(config.pool_size * 3)
                if len(substring) >= 2
            ][: config.pool_size]
        elif value_type is ValueType.TEXT:
            frequency: Dict[str, int] = {}
            for element in elements:
                for term in element.value:
                    frequency[term] = frequency.get(term, 0) + 1
            ranked = sorted(frequency.items(), key=lambda item: (-item[1], item[0]))
            self.frequent_terms = ranked[: config.pool_size]


def _weighted_choice(
    rng: random.Random, items: List[Tuple[str, int]]
) -> str:
    total = sum(weight for _, weight in items)
    pick = rng.uniform(0, total)
    acc = 0.0
    for value, weight in items:
        acc += weight
        if acc >= pick:
            return value
    return items[-1][0]


class TwigWorkloadGenerator:
    """Generates classified positive twig workloads over one dataset."""

    def __init__(
        self,
        dataset: Dataset,
        seed: int = 1234,
        config: Optional[WorkloadConfig] = None,
        evaluator: Optional[ExactEvaluator] = None,
    ) -> None:
        self.dataset = dataset
        self.rng = random.Random(seed)
        self.config = config if config is not None else WorkloadConfig()
        # Grading thousands of candidate twigs dominates generation; a
        # shared evaluator skips rebuilding the interval indexes.
        self.evaluator = (
            evaluator if evaluator is not None else ExactEvaluator(dataset.tree)
        )
        self._elements: List[XMLElement] = list(dataset.tree)

        self._valued_by_type: Dict[ValueType, List[XMLElement]] = {}
        # Pools are per (path, type): documents merged from several
        # sources can carry one label path with values of two types.
        by_path: Dict[Tuple[LabelPath, ValueType], List[XMLElement]] = {}
        for element in self._elements:
            if element.value_type is ValueType.NULL:
                continue
            path = element.label_path()
            if not matches_any(path, dataset.value_paths):
                continue
            self._valued_by_type.setdefault(element.value_type, []).append(element)
            by_path.setdefault((path, element.value_type), []).append(element)
        self._pools: Dict[Tuple[LabelPath, ValueType], _PathValuePool] = {
            key: _PathValuePool(key[1], members, self.config)
            for key, members in by_path.items()
        }
        self._numeric_domain = self._compute_numeric_domain()

    def _compute_numeric_domain(self) -> Tuple[int, int]:
        values = [
            element.value
            for element in self._valued_by_type.get(ValueType.NUMERIC, [])
        ]
        if not values:
            return (0, 1)
        return (min(values), max(values))

    # -- predicate construction ------------------------------------------------

    def _numeric_predicate(self, element: XMLElement) -> Predicate:
        lo, hi = self._numeric_domain
        width = max(1, round((hi - lo) * self.config.numeric_width_fraction))
        value = element.value
        if self.rng.random() < self.config.high_count_bias:
            # Wide, high-count ranges anchored at the element's value.
            width *= 2
        style = self.rng.random()
        if style < 0.4:
            return RangePredicate(
                value - self.rng.randint(0, width), value + self.rng.randint(0, width)
            )
        if style < 0.7:
            return RangePredicate(low=value - self.rng.randint(0, width))
        return RangePredicate(high=value + self.rng.randint(0, width))

    def _string_predicate(self, element: XMLElement) -> Predicate:
        pool = self._pools.get((element.label_path(), element.value_type))
        if (
            pool is not None
            and pool.frequent_substrings
            and self.rng.random() < self.config.high_count_bias
        ):
            return SubstringPredicate(
                _weighted_choice(self.rng, pool.frequent_substrings)
            )
        # Fallback: a needle cut from the sampled element's own string.
        # Per the paper's high-count bias, prefer needles that also occur
        # elsewhere on the path (a handful of retries; the last draw is
        # kept regardless, so the low-count tail stays populated).
        text = element.value
        min_len, max_len = self.config.substring_length
        needle = text
        for _ in range(5):
            length = max(1, min(len(text), self.rng.randint(min_len, max_len)))
            start = self.rng.randint(0, len(text) - length)
            needle = text[start : start + length]
            if pool is None or pool.substring_index is None:
                break
            frequency = pool.substring_index.lookup(needle)
            if frequency is None or frequency >= self.config.min_needle_frequency:
                break
        return SubstringPredicate(needle)

    def _text_predicate(self, element: XMLElement) -> Predicate:
        wanted = 1
        if self.rng.random() < self.config.second_keyword_probability:
            wanted = 2
        pool = self._pools.get((element.label_path(), element.value_type))
        if (
            pool is not None
            and pool.frequent_terms
            and self.rng.random() < self.config.high_count_bias
        ):
            terms = {
                _weighted_choice(self.rng, pool.frequent_terms)
                for _ in range(wanted)
            }
            return KeywordPredicate(terms)
        terms = sorted(element.value)
        count = min(len(terms), wanted)
        return KeywordPredicate(self.rng.sample(terms, count))

    def _predicate_for(self, element: XMLElement) -> Predicate:
        if element.value_type is ValueType.NUMERIC:
            return self._numeric_predicate(element)
        if element.value_type is ValueType.STRING:
            return self._string_predicate(element)
        if element.value_type is ValueType.TEXT:
            return self._text_predicate(element)
        raise ValueError(f"element {element.label} carries no value")

    # -- twig construction ----------------------------------------------------------

    def _spine_steps(
        self, path: LabelPath, protect_leaf: bool = False
    ) -> List[AxisStep]:
        """Convert a label path into axis steps, randomly compressing
        prefixes/infixes into descendant steps (never dropping the leaf).

        With ``protect_leaf`` the final step always uses the child axis:
        predicate-carrying variables must resolve to summarized clusters
        only (the paper's workload attaches predicates at synopsis nodes
        with values), and a trailing descendant step could also capture
        same-tag clusters outside the summarized paths.
        """
        steps: List[AxisStep] = []
        skipping = False
        for index, label in enumerate(path):
            last = index == len(path) - 1
            may_skip = not last and not (protect_leaf and index == len(path) - 2)
            if may_skip and self.rng.random() < self.config.descendant_probability:
                skipping = True
                continue
            axis = "descendant" if skipping else "child"
            steps.append(AxisStep(axis, label))
            skipping = False
        if skipping:
            steps.append(AxisStep("descendant", path[-1]))
        return steps

    def _chain(self, owner: QueryNode, steps: Sequence[AxisStep]) -> QueryNode:
        current = owner
        for step in steps:
            child = QueryNode(f"v{id(current)}", EdgePath((step,)))
            current.add_child(child)
            current = child
        return current

    def _random_descent(self, element: XMLElement) -> List[str]:
        """A random downward label walk from ``element`` (1-2 steps)."""
        labels: List[str] = []
        node = element
        for _ in range(self.rng.randint(1, 2)):
            if not node.children:
                break
            node = self.rng.choice(node.children)
            labels.append(node.label)
        return labels

    def _build_leaf_predicate_twig(
        self, target: XMLElement, predicate: Optional[Predicate]
    ) -> TwigQuery:
        """Spine ends at the valued element; predicate sits on the leaf."""
        twig = TwigQuery()
        leaf = self._chain(
            twig.root,
            self._spine_steps(target.label_path(), protect_leaf=predicate is not None),
        )
        if predicate is not None:
            leaf.predicate = predicate
        if self.rng.random() < self.config.branch_probability:
            anchor = target.parent if target.parent is not None else target
            parent_variable = self._variable_parent(twig, leaf)
            if parent_variable is not None:
                self._attach_structural_branch(parent_variable, anchor)
        return twig

    def _build_branch_predicate_twig(
        self, target: XMLElement, predicate: Predicate
    ) -> Optional[TwigQuery]:
        """Predicate on a branch; the main path continues elsewhere.

        Shape: ``//anchor[./.../valued-label pred]/sibling/...`` — the
        paper's atomic ``u[p]/c`` pattern, coupling a predicate with
        downstream structure.  The anchor is the valued element's parent
        or, with probability ``anchor_lift_probability``, a higher
        ancestor; lifted anchors yield queries like
        ``//movie[./cast/actor/name contains(X)]/plot`` whose accuracy
        hinges on path-to-value correlations across several levels.
        """
        anchor = target.parent
        if anchor is None:
            return None
        if (
            anchor.parent is not None
            and anchor.parent.parent is not None  # keep the anchor below the root
            and self.rng.random() < self.config.anchor_lift_probability
        ):
            anchor = anchor.parent
        # The label chain from the anchor down to the valued target.
        branch_labels: List[str] = []
        node = target
        while node is not anchor:
            branch_labels.append(node.label)
            node = node.parent
        branch_labels.reverse()
        siblings = [
            child for child in anchor.children if child.label != branch_labels[0]
        ]
        if not siblings:
            return None
        twig = TwigQuery()
        anchor_variable = self._chain(
            twig.root, self._spine_steps(anchor.label_path(), protect_leaf=True)
        )
        branch_leaf = self._chain(
            anchor_variable,
            [AxisStep("child", label) for label in branch_labels],
        )
        branch_leaf.predicate = predicate
        # Weight the continuation toward populous sibling subtrees: they
        # dominate the query's result size (high-count bias), and they
        # are where structure correlates with the predicate's values.
        weights = [sibling.subtree_size() for sibling in siblings]
        sibling_element = self.rng.choices(siblings, weights=weights, k=1)[0]
        continuation = [sibling_element.label]
        continuation.extend(self._random_descent(sibling_element))
        steps = [AxisStep("child", label) for label in continuation]
        self._chain(anchor_variable, steps)
        return twig

    def _attach_structural_branch(
        self, variable: QueryNode, element: XMLElement
    ) -> None:
        """Attach ``[./label]`` for a label actually under ``element``."""
        candidates = {child.label for child in element.children}
        if not candidates:
            return
        label = self.rng.choice(sorted(candidates))
        variable.add_child(
            QueryNode("branch", EdgePath((AxisStep("child", label),)))
        )

    @staticmethod
    def _variable_parent(twig: TwigQuery, leaf: QueryNode) -> Optional[QueryNode]:
        parent = None
        for node in twig.nodes():
            if leaf in node.children:
                parent = node
                break
        if parent is twig.root:
            return None
        return parent

    # -- query generation --------------------------------------------------------------

    def _generate_one(self, query_class: QueryClass) -> Optional[WorkloadQuery]:
        for _ in range(self.config.max_attempts):
            if query_class is QueryClass.STRUCT:
                target = self.rng.choice(self._elements)
                twig = self._build_leaf_predicate_twig(target, None)
            else:
                wanted = ValueType(query_class.value)
                pool = self._valued_by_type.get(wanted)
                if not pool:
                    return None
                target = self.rng.choice(pool)
                predicate = self._predicate_for(target)
                twig = None
                if self.rng.random() < self.config.branch_predicate_probability:
                    twig = self._build_branch_predicate_twig(target, predicate)
                if twig is None:
                    twig = self._build_leaf_predicate_twig(target, predicate)
            exact = self.evaluator.selectivity(twig)
            if exact > 0:
                return WorkloadQuery(twig, exact, query_class)
        return None

    def generate(self, queries_per_class: Optional[int] = None) -> Workload:
        """Generate the full stratified workload."""
        per_class = (
            queries_per_class
            if queries_per_class is not None
            else self.config.queries_per_class
        )
        workload = Workload(self.dataset.name)
        classes = [
            QueryClass.STRUCT,
            QueryClass.NUMERIC,
            QueryClass.STRING,
            QueryClass.TEXT,
        ]
        for query_class in classes:
            produced = 0
            while produced < per_class:
                generated = self._generate_one(query_class)
                if generated is None:
                    break
                workload.queries.append(generated)
                produced += 1
        return workload


def generate_workload(
    dataset: Dataset,
    queries_per_class: int = 25,
    seed: int = 1234,
) -> Workload:
    """Convenience wrapper around :class:`TwigWorkloadGenerator`."""
    config = WorkloadConfig(queries_per_class=queries_per_class)
    return TwigWorkloadGenerator(dataset, seed, config).generate()
