"""Slow, obviously-correct oracles the fast production paths are checked against.

:func:`fixpoint_reference_classes` is the partition oracle for
:func:`repro.core.reference.reference_classes`: the paper-literal
both-ways refinement, iterated until the class count stops growing.
:func:`object_reference_synopsis` is the assembly oracle for
:func:`repro.core.reference.build_reference_synopsis`: the same
two-pass partition, keyed by label-path tuples over ``XMLElement``
objects and aggregated by one per-element loop instead of column
passes.
:func:`greedy_estimate_count` is the PST estimation oracle for
:meth:`repro.values.pst.PrunedSuffixTree.estimate_count`: the greedy
maximal-overlap chaining, re-walking and re-looking-up every piece.
:class:`ReferenceBuilder` is the construction oracle for
:class:`repro.core.builder.XClusterBuilder`: the same greedy loop, scored
by the scalar Δ of :mod:`repro.core.distance` and compressed by the
scalar ``compress`` methods re-run from scratch per step.
:class:`XClusterEstimator` is the estimation oracle for
:class:`repro.core.estimation.CompiledEstimator`: a direct transcription
of the paper's sum-product with no precomputed indexes.
:class:`TreeWalkEvaluator` is the exact-evaluation oracle for
:class:`repro.query.evaluator.ExactEvaluator`: dynamic programming over
``XMLElement`` objects with per-step weighted frontiers.
:func:`apply_update_tree` applies an update op to an object-tree twin,
the substrate the update harness rebuilds its reference from.
:func:`iter_events_str` is the tokenizer oracle for
:func:`repro.xmltree.events.iter_events`: the original character
scanner over ``str`` buffers, with identical events and errors.
Only the differential harness, the tests and the layer benchmarks
import this module.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.builder import XClusterBuilder
from repro.core.distance import (
    SelectivityCache,
    compression_baseline,
    compression_delta,
    merge_delta,
    node_selectivity,
)
from repro.core.estimation import VIRTUAL_ROOT, variable_order
from repro.core.reference import (
    _intern_column,
    _summaries,
    columnar_initial_keys,
    down_pass,
    materialize_synopsis,
    up_pass,
)
from repro.core.scoring import ScoringEngine
from repro.core.synopsis import SynopsisNode, XClusterSynopsis
from repro.query.ast import AxisStep, EdgePath, QueryNode, TwigQuery
from repro.update.ops import DeleteSubtree, InsertSubtree, UpdateOp, ValueChange
from repro.values.kernels.pst import prune_leaves_reference
from repro.values.kernels.queue import SummaryStepper
from repro.values.pst import PrunedSuffixTree
from repro.values.summary import (
    HistogramSummary,
    StringSummary,
    SummaryConfig,
    TextSummary,
    ValueSummary,
)
from repro.xmltree.columnar import Document, as_columnar
from repro.xmltree.events import (
    _COMPACT_THRESHOLD,
    ATTR,
    DEFAULT_CHUNK_SIZE,
    END,
    START,
    TEXT,
    EventSource,
    XMLEvent,
    XMLParseError,
    _decode_entities,
)
from repro.xmltree.parser import parse_string
from repro.xmltree.paths import LabelPath, matches_any
from repro.xmltree.tree import XMLElement, XMLTree
from repro.xmltree.types import (
    DEFAULT_TEXT_WORD_THRESHOLD,
    ValueType,
    _typed_value,
)

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
    doc = as_columnar(document)
    initial = _intern_column(columnar_initial_keys(doc))
    return refine_to_fixpoint(len(initial), doc.parent, initial)


# -- object-tree reference assembly ------------------------------------------


def _document_order(tree: XMLTree) -> Tuple[List[XMLElement], List[int], List[LabelPath]]:
    """Pre-order element list with parallel parent-index and path arrays."""
    elements: List[XMLElement] = []
    parents: List[int] = []
    paths: List[LabelPath] = []
    stack: List[Tuple[XMLElement, int, LabelPath]] = [
        (tree.root, -1, (tree.root.label,))
    ]
    while stack:
        element, parent_index, path = stack.pop()
        index = len(elements)
        elements.append(element)
        parents.append(parent_index)
        paths.append(path)
        for child in reversed(element.children):
            stack.append((child, index, path + (child.label,)))
    return elements, parents, paths


def _object_initial_keys(
    elements: List[XMLElement], paths: List[LabelPath]
) -> List[int]:
    """Initial partition keys over the object tree, interned to ints."""
    interned: Dict[Tuple, int] = {}
    return [
        interned.setdefault((path, element.value_type), len(interned))
        for element, path in zip(elements, paths)
    ]


def _assemble_synopsis(
    elements: List[XMLElement],
    parents: Sequence[int],
    paths: Sequence[LabelPath],
    classes: List[int],
    value_paths: Optional[Sequence[LabelPath]],
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """Materialize a synopsis from a per-element class column, one
    element at a time (the column passes' order: nodes by class, edges
    by first occurrence)."""
    config = config if config is not None else SummaryConfig()
    summarize_all = value_paths is None
    exact_paths: Set[LabelPath] = {
        path for path in (value_paths or ()) if "*" not in path
    }
    wildcard_paths: List[LabelPath] = [
        path for path in (value_paths or ()) if "*" in path
    ]

    def path_wanted(path: LabelPath) -> bool:
        return (
            summarize_all
            or path in exact_paths
            or matches_any(path, wildcard_paths)
        )

    counts: Dict[int, int] = {}
    node_labels: Dict[int, str] = {}
    node_vtypes: Dict[int, ValueType] = {}
    values: Dict[int, list] = {}
    edge_totals: Dict[Tuple[int, int], int] = {}

    for index, element in enumerate(elements):
        key = classes[index]
        counts[key] = counts.get(key, 0) + 1
        node_labels[key] = element.label
        vtype = element.value_type
        node_vtypes[key] = vtype
        if (
            with_summaries
            and vtype is not ValueType.NULL
            and path_wanted(paths[index])
        ):
            values.setdefault(key, []).append(element.value)
        parent_index = parents[index]
        if parent_index >= 0:
            edge = (classes[parent_index], key)
            edge_totals[edge] = edge_totals.get(edge, 0) + 1

    aggregates = (counts, node_labels, node_vtypes, edge_totals)
    return materialize_synopsis(
        aggregates, _summaries(aggregates, values, config), classes[0]
    )


def object_reference_synopsis(
    tree: XMLTree,
    value_paths: Optional[Sequence[LabelPath]] = None,
    config: Optional[SummaryConfig] = None,
    with_summaries: bool = True,
) -> XClusterSynopsis:
    """The reference synopsis of an object tree, built without columns.

    Must equal ``build_reference_synopsis(tree, ...)`` under
    ``synopsis_to_dict``.
    """
    elements, parents, paths = _document_order(tree)
    raw = _object_initial_keys(elements, paths)
    classes = up_pass(down_pass(parents, raw), parents)
    return _assemble_synopsis(
        elements, parents, paths, classes, value_paths, config, with_summaries
    )


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
    raise TypeError(f"no compression stepper for {type(summary).__name__}")


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


# -- estimation and exact-evaluation oracles ----------------------------------


class XClusterEstimator:
    """Estimates twig selectivities over one synopsis.

    The scalar estimation oracle: a direct transcription of the paper's
    sum-product with no precomputed indexes.  The compiled engine in
    :mod:`repro.core.estimation` must match it to 1e-9 on every query.
    The estimator is read-only and caches descendant path counts and
    predicate selectivities, so reuse it across a workload; rebuild it
    after the synopsis changes.
    """

    def __init__(
        self,
        synopsis: XClusterSynopsis,
        max_path_length: int = 40,
        selectivity_cache: Optional[SelectivityCache] = None,
    ) -> None:
        if max_path_length < 1:
            raise ValueError("max_path_length must be >= 1")
        self.synopsis = synopsis
        self.max_path_length = max_path_length
        self._descendant_cache: Dict[int, Dict[int, float]] = {}
        #: (value summary, predicate) -> σ, shared across every query this
        #: estimator serves (and with any caller that passed its own).
        self.selectivity_cache: SelectivityCache = (
            selectivity_cache if selectivity_cache is not None else {}
        )

    # -- structural path counts ---------------------------------------------

    def _descendants(self, node_id: int) -> Dict[int, float]:
        """Expected number of descendant *paths* per element of ``node_id``,
        keyed by target synopsis node (all labels, length >= 1)."""
        cached = self._descendant_cache.get(node_id)
        if cached is not None:
            return cached
        totals: Dict[int, float] = {}
        frontier: Dict[int, float] = {node_id: 1.0}
        for _ in range(self.max_path_length):
            next_frontier: Dict[int, float] = {}
            for source_id, weight in frontier.items():
                for child_id, avg in self.synopsis.node(source_id).children.items():
                    next_frontier[child_id] = (
                        next_frontier.get(child_id, 0.0) + weight * avg
                    )
            if not next_frontier:
                break
            for target_id, weight in next_frontier.items():
                totals[target_id] = totals.get(target_id, 0.0) + weight
            frontier = next_frontier
        self._descendant_cache[node_id] = totals
        return totals

    def _expand_step(
        self, frontier: Dict[int, float], step: AxisStep
    ) -> Dict[int, float]:
        """Advance a weighted synopsis frontier through one axis step."""
        result: Dict[int, float] = {}
        for source_id, weight in frontier.items():
            if step.axis == "child":
                if source_id == VIRTUAL_ROOT:
                    root = self.synopsis.root
                    if step.matches_label(root.label):
                        result[root.node_id] = result.get(root.node_id, 0.0) + weight
                    continue
                for child_id, avg in self.synopsis.node(source_id).children.items():
                    if step.matches_label(self.synopsis.node(child_id).label):
                        result[child_id] = result.get(child_id, 0.0) + weight * avg
            else:  # descendant axis
                if source_id == VIRTUAL_ROOT:
                    root = self.synopsis.root
                    reachable = dict(self._descendants(root.node_id))
                    reachable[root.node_id] = reachable.get(root.node_id, 0.0) + 1.0
                else:
                    reachable = self._descendants(source_id)
                for target_id, count in reachable.items():
                    if step.matches_label(self.synopsis.node(target_id).label):
                        result[target_id] = (
                            result.get(target_id, 0.0) + weight * count
                        )
        return result

    def reach(self, source_id: int, edge) -> Dict[int, float]:
        """Average number of elements (paths) reached per source element,
        keyed by target synopsis node, for a whole edge path."""
        frontier = {source_id: 1.0}
        for step in edge.steps:
            frontier = self._expand_step(frontier, step)
            if not frontier:
                break
        return frontier

    # -- estimation --------------------------------------------------------------

    def estimate(self, query: TwigQuery) -> float:
        """The estimated number of binding tuples of ``query``."""
        memo: Dict[Tuple[int, int], float] = {}
        return self._tuples(query.root, VIRTUAL_ROOT, memo, variable_order(query))

    def _tuples(
        self,
        variable: QueryNode,
        node_id: int,
        memo: Dict[Tuple[int, int], float],
        order: Dict[QueryNode, int],
    ) -> float:
        """Expected binding tuples of the subtree at ``variable`` per
        element of synopsis node ``node_id`` bound to it."""
        key = (order[variable], node_id)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = 1.0
        for child in variable.children:
            branch = 0.0
            for target_id, count in self.reach(node_id, child.edge).items():
                target = self.synopsis.node(target_id)
                sigma = node_selectivity(
                    target, child.predicate, self.selectivity_cache
                )
                if sigma <= 0.0 or count <= 0.0:
                    continue
                branch += count * sigma * self._tuples(
                    child, target_id, memo, order
                )
            total *= branch
            if total == 0.0:
                break
        memo[key] = total
        return total


def _expand_elements(
    frontier: Dict[int, Tuple[XMLElement, int]], step: AxisStep
) -> Dict[int, Tuple[XMLElement, int]]:
    """Advance a weighted element frontier through one axis step.

    The frontier maps ``id(element) -> (element, multiplicity)`` where the
    multiplicity is the number of distinct paths that reached the element.
    """
    result: Dict[int, Tuple[XMLElement, int]] = {}
    for element, multiplicity in frontier.values():
        if step.axis == "child":
            candidates: Iterable[XMLElement] = element.children
        else:
            candidates = element.descendants()
        for candidate in candidates:
            if step.matches_label(candidate.label):
                key = id(candidate)
                if key in result:
                    result[key] = (candidate, result[key][1] + multiplicity)
                else:
                    result[key] = (candidate, multiplicity)
    return result


def match_elements(
    context: XMLElement, edge: EdgePath
) -> List[Tuple[XMLElement, int]]:
    """Elements reached from ``context`` via ``edge``, with path multiplicity."""
    frontier = {id(context): (context, 1)}
    for step in edge.steps:
        frontier = _expand_elements(frontier, step)
        if not frontier:
            return []
    return list(frontier.values())


class _VirtualRoot(XMLElement):
    """The document node sitting above the root element.

    Its only child is the document's root element, so a leading ``/site``
    step selects the root element and ``//item`` reaches any element.
    """

    def __init__(self, document_root: XMLElement) -> None:
        super().__init__("#document")
        # Bypass append_child: the document root keeps parent == None so
        # the tree itself remains valid and reusable.
        self.children = [document_root]


class TreeWalkEvaluator:
    """The exact-evaluation oracle: counts binding tuples by walking objects.

    The evaluator memoizes per (query-variable, element) sub-results, so
    evaluating many queries against the same tree is efficient.
    """

    def __init__(self, tree: XMLTree) -> None:
        self.tree = tree
        self._virtual_root = _VirtualRoot(tree.root)

    def selectivity(self, query: TwigQuery) -> int:
        """The exact number of binding tuples of ``query``."""
        memo: Dict[Tuple[int, int], int] = {}
        return self._tuples(query.root, self._virtual_root, memo)

    def _tuples(
        self,
        variable: QueryNode,
        element: XMLElement,
        memo: Dict[Tuple[int, int], int],
    ) -> int:
        """Binding tuples of the subtree rooted at ``variable`` given that
        ``variable`` is bound to ``element``."""
        key = (id(variable), id(element))
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = 1
        for child in variable.children:
            branch_total = 0
            for matched, multiplicity in match_elements(element, child.edge):
                if not child.predicate.matches(matched.value):
                    continue
                branch_total += multiplicity * self._tuples(child, matched, memo)
            if branch_total == 0:
                total = 0
                break
            total *= branch_total
        memo[key] = total
        return total

    def matches(self, query: TwigQuery) -> bool:
        """Whether the query has at least one binding tuple."""
        return self.selectivity(query) > 0


# -- object-tree update twin ---------------------------------------------------


def tree_preorder(tree: XMLTree) -> List[XMLElement]:
    """The preorder element list of an object tree.

    Matches the columnar preorder index for the frozen equivalent, so
    ``tree_preorder(tree)[i]`` is the twin of columnar element ``i``.
    """
    elements: List[XMLElement] = []
    stack = [tree.root]
    while stack:
        element = stack.pop()
        elements.append(element)
        stack.extend(reversed(element.children))
    return elements


def _detach_child(parent: XMLElement, child: XMLElement) -> None:
    parent.children.remove(child)
    child.parent = None


def apply_update_tree(
    tree: XMLTree,
    op: UpdateOp,
    text_word_threshold: int = DEFAULT_TEXT_WORD_THRESHOLD,
) -> None:
    """Apply one op to an object :class:`XMLTree`, in place.

    This is the rebuild oracle's substrate: the differential harness
    mutates an object twin in lockstep with the columnar document and
    rebuilds the reference synopsis from it after every step.  Raises
    ``ValueError`` (via the shared validation messages) when the op
    does not apply.
    """
    elements = tree_preorder(tree)
    if isinstance(op, InsertSubtree):
        if not 0 <= op.parent < len(elements):
            raise ValueError(f"insert parent {op.parent} out of range")
        parent = elements[op.parent]
        if not 0 <= op.position <= len(parent.children):
            raise ValueError(
                f"insert position {op.position} out of range "
                f"(parent has {len(parent.children)} children)"
            )
        fragment = parse_string(op.xml, None, text_word_threshold)
        child = fragment.root
        child.parent = parent
        parent.children.insert(op.position, child)
        return
    if isinstance(op, DeleteSubtree):
        if op.index == 0:
            raise ValueError("cannot delete the document root")
        if not 0 < op.index < len(elements):
            raise ValueError(f"delete index {op.index} out of range")
        target = elements[op.index]
        _detach_child(target.parent, target)
        return
    if isinstance(op, ValueChange):
        if not 0 <= op.index < len(elements):
            raise ValueError(f"set_value index {op.index} out of range")
        target = elements[op.index]
        target.set_value(
            _typed_value(op.text, (target.label,), {}, text_word_threshold)
        )
        return
    raise ValueError(f"unknown update op {op!r}")


# -- the character-scan tokenizer oracle --------------------------------------


class _StreamCursor:
    """Scan state over a chunked string input with on-demand refill.

    The same surface as the tree parser's ``_Cursor`` (``peek`` /
    ``startswith`` / ``expect`` / ``read_until`` / ``read_name``), but
    every lookahead that runs off the buffered suffix pulls the next
    chunk first.  ``offset`` converts buffer positions to absolute
    document offsets so errors match the whole-string parser.

    This cursor backs :func:`iter_events_str`, the character-level
    parity oracle of the production byte tokenizer
    (:func:`repro.xmltree.events.iter_events`).
    """

    __slots__ = ("buffer", "pos", "offset", "_chunks", "_exhausted")

    def __init__(self, chunks: Iterator[str]) -> None:
        self.buffer = ""
        self.pos = 0
        #: Absolute document offset of ``buffer[0]``.
        self.offset = 0
        self._chunks = chunks
        self._exhausted = False

    # -- buffer management -------------------------------------------------

    def _pull(self) -> bool:
        """Append the next chunk; False once the source is exhausted."""
        if self._exhausted:
            return False
        for chunk in self._chunks:
            if chunk:
                self.buffer += chunk
                return True
        self._exhausted = True
        return False

    def _ensure(self, length: int) -> None:
        """Buffer at least ``length`` characters past ``pos`` if possible."""
        while len(self.buffer) - self.pos < length and self._pull():
            pass

    def compact(self) -> None:
        """Drop the consumed prefix when it grows past the threshold."""
        if self.pos > _COMPACT_THRESHOLD:
            self.offset += self.pos
            self.buffer = self.buffer[self.pos :]
            self.pos = 0

    def tell(self) -> int:
        """The absolute document offset of the scan position."""
        return self.offset + self.pos

    # -- the lexer surface -------------------------------------------------

    def eof(self) -> bool:
        self._ensure(1)
        return self.pos >= len(self.buffer)

    def peek(self) -> str:
        self._ensure(1)
        return self.buffer[self.pos] if self.pos < len(self.buffer) else ""

    def startswith(self, token: str) -> bool:
        self._ensure(len(token))
        return self.buffer.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise XMLParseError(f"expected {token!r}", self.tell())
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while True:
            buffer = self.buffer
            size = len(buffer)
            while self.pos < size and buffer[self.pos].isspace():
                self.pos += 1
            if self.pos < size or not self._pull():
                return

    def read_until(self, token: str) -> str:
        """Consume through ``token``, returning the text before it."""
        while True:
            end = self.buffer.find(token, self.pos)
            if end >= 0:
                chunk = self.buffer[self.pos : end]
                self.pos = end + len(token)
                return chunk
            if not self._pull():
                raise XMLParseError(
                    f"unterminated section, expected {token!r}", self.tell()
                )

    def read_text_run(self) -> str:
        """Consume character data up to (not including) the next ``<``.

        Returns an empty string — without consuming anything — when EOF
        arrives before any markup, so the caller can raise its
        contextual unterminated-element error at the run's offset.
        """
        while True:
            end = self.buffer.find("<", self.pos)
            if end >= 0:
                chunk = self.buffer[self.pos : end]
                self.pos = end
                return chunk
            if not self._pull():
                return ""

    def read_name(self) -> str:
        start = self.pos
        while True:
            buffer = self.buffer
            size = len(buffer)
            while self.pos < size and (
                buffer[self.pos].isalnum() or buffer[self.pos] in "_-.:@"
            ):
                self.pos += 1
            if self.pos < size or not self._pull():
                break
        if self.pos == start:
            raise XMLParseError("expected a name", self.tell())
        return self.buffer[start : self.pos]


def _str_chunk_iterator(source: EventSource, chunk_size: int) -> Iterator[str]:
    """Normalize any supported source into an iterator of string chunks."""
    if isinstance(source, str):
        return iter((source,))
    if isinstance(source, bytes):
        return iter((source.decode("utf-8", "surrogatepass"),))
    read = getattr(source, "read", None)
    if callable(read):

        def _file_chunks() -> Iterator[str]:
            while True:
                chunk = read(chunk_size)
                if not chunk:
                    return
                if isinstance(chunk, bytes):
                    chunk = chunk.decode("utf-8", "surrogatepass")
                yield chunk

        return _file_chunks()

    def _decoded(chunks) -> Iterator[str]:
        for chunk in chunks:
            if isinstance(chunk, bytes):
                chunk = chunk.decode("utf-8", "surrogatepass")
            yield chunk

    return _decoded(source)


def _skip_misc(cursor: _StreamCursor) -> None:
    """Skip whitespace, comments, processing instructions, and doctypes."""
    while True:
        cursor.skip_whitespace()
        if cursor.startswith("<!--"):
            cursor.pos += 4
            cursor.read_until("-->")
        elif cursor.startswith("<?"):
            cursor.pos += 2
            cursor.read_until("?>")
        elif cursor.startswith("<!DOCTYPE"):
            cursor.read_until(">")
        else:
            return


def _read_start_tag(
    cursor: _StreamCursor,
) -> Tuple[str, List[Tuple[str, str]], bool]:
    """Scan one start tag: ``(label, attributes, self_closed)``.

    Attributes are deduplicated exactly as the tree parser's dict
    accumulation does: a repeated name keeps its first position with the
    last value.
    """
    cursor.expect("<")
    label = cursor.read_name()
    names: List[str] = []
    values = {}
    while True:
        cursor.skip_whitespace()
        char = cursor.peek()
        if char in (">", "/", ""):
            break
        name = cursor.read_name()
        cursor.skip_whitespace()
        cursor.expect("=")
        cursor.skip_whitespace()
        quote = cursor.peek()
        if quote not in ("'", '"'):
            raise XMLParseError("attribute value must be quoted", cursor.tell())
        cursor.pos += 1
        if name not in values:
            names.append(name)
        values[name] = _decode_entities(cursor.read_until(quote))
    cursor.skip_whitespace()
    if cursor.startswith("/>"):
        cursor.pos += 2
        return label, [(name, values[name]) for name in names], True
    cursor.expect(">")
    return label, [(name, values[name]) for name in names], False


def iter_events_str(
    source: EventSource, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[XMLEvent]:
    """Tokenize with the original character scanner (the parity oracle).

    Same contract as :func:`iter_events` — identical event streams,
    identical errors at identical offsets — implemented over ``str``
    buffers.  The production path is the byte scanner; this one is kept
    for the differential harness's tokenizer round and for tests.
    """
    cursor = _StreamCursor(_str_chunk_iterator(source, chunk_size))
    _skip_misc(cursor)
    if cursor.peek() != "<":
        raise XMLParseError("document has no root element", cursor.tell())

    # Per open element: [label, saw a child element or attribute, saw
    # non-whitespace character data].  The flags drive the mixed-content
    # rule the tree parser applies at element close.
    stack: List[List] = []

    label, attributes, closed = _read_start_tag(cursor)
    yield (START, label)
    for name, value in attributes:
        yield (ATTR, name, value)
    if closed:
        yield (END, label)
    else:
        stack.append([label, bool(attributes), False])

    while stack:
        cursor.compact()
        if cursor.startswith("</"):
            cursor.pos += 2
            closing = cursor.read_name()
            entry = stack.pop()
            if closing != entry[0]:
                raise XMLParseError(
                    f"mismatched close tag </{closing}> for <{entry[0]}>",
                    cursor.tell(),
                )
            cursor.skip_whitespace()
            cursor.expect(">")
            if entry[2] and entry[1]:
                raise XMLParseError(
                    f"element <{entry[0]}> mixes character data with child "
                    "elements",
                    cursor.tell(),
                )
            yield (END, closing)
        elif cursor.startswith("<!--"):
            cursor.pos += 4
            cursor.read_until("-->")
        elif cursor.startswith("<![CDATA["):
            cursor.pos += 9
            data = cursor.read_until("]]>")
            if data:
                if data.strip():
                    stack[-1][2] = True
                yield (TEXT, data)
        elif cursor.startswith("<?"):
            cursor.pos += 2
            cursor.read_until("?>")
        elif cursor.peek() == "<":
            stack[-1][1] = True
            label, attributes, closed = _read_start_tag(cursor)
            yield (START, label)
            for name, value in attributes:
                yield (ATTR, name, value)
            if closed:
                yield (END, label)
            else:
                stack.append([label, bool(attributes), False])
        else:
            if cursor.eof():
                raise XMLParseError(
                    f"unterminated element <{stack[-1][0]}>", cursor.tell()
                )
            run = cursor.read_text_run()
            if not run:
                raise XMLParseError(
                    f"unterminated element <{stack[-1][0]}>", cursor.tell()
                )
            if run.strip():
                stack[-1][2] = True
            yield (TEXT, _decode_entities(run))

    _skip_misc(cursor)
    if not cursor.eof():
        raise XMLParseError("trailing content after root element", cursor.tell())


__all__ = [
    "MAX_REFINEMENT_ROUNDS",
    "ReferenceBuilder",
    "ReferenceEBTHStepper",
    "ReferenceHistogramStepper",
    "ReferencePSTStepper",
    "ScalarScoringEngine",
    "TreeWalkEvaluator",
    "XClusterEstimator",
    "apply_update_tree",
    "fixpoint_reference_classes",
    "greedy_estimate_count",
    "iter_events_str",
    "match_elements",
    "object_reference_synopsis",
    "reference_stepper",
    "refine_to_fixpoint",
    "tree_preorder",
]
