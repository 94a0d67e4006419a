"""The twig-query abstract syntax tree (paper Section 2, Figure 2).

A twig query ``Q(V_Q, E_Q)`` is a tree of *query variables*.  The root
variable ``q0`` always maps to the (virtual) document root; every other
variable is connected to its parent by an :class:`EdgePath` — an XPath
expression over the child (``/``) and descendant (``//``) axes with
optional ``*`` wildcards — and may carry a value :class:`Predicate`.

The selectivity ``s(Q)`` of a twig is the number of *binding tuples*:
complete assignments of document elements to all query variables that
satisfy every structural and value constraint.  Branches therefore
contribute multiplicatively (as in the paper's worked example of Section
5), not existentially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.query.predicates import Predicate, TruePredicate

#: The wildcard name test, matching any element label.
WILDCARD = "*"

#: The deepest query variable either wire format accepts, counting the
#: root as depth 0 (both parsers reject deeper twigs before recursing).
MAX_TWIG_DEPTH = 64


@dataclass(frozen=True)
class AxisStep:
    """One location step: an axis plus a name test.

    Attributes:
        axis: ``"child"`` or ``"descendant"``.
        label: a tag name, or :data:`WILDCARD`.
    """

    axis: str
    label: str

    def __post_init__(self) -> None:
        if self.axis not in ("child", "descendant"):
            raise ValueError(f"unknown axis {self.axis!r}")
        if not self.label:
            raise ValueError("step label must be non-empty (use '*' for wildcard)")

    @property
    def is_wildcard(self) -> bool:
        return self.label == WILDCARD

    def matches_label(self, label: str) -> bool:
        """Whether this step's name test accepts ``label``."""
        return self.is_wildcard or self.label == label

    def __str__(self) -> str:
        separator = "/" if self.axis == "child" else "//"
        return f"{separator}{self.label}"


@dataclass(frozen=True)
class EdgePath:
    """An XPath expression labeling one twig edge: a chain of steps."""

    steps: Tuple[AxisStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("an edge path needs at least one step")

    @property
    def target_label(self) -> str:
        """The name test of the final step (the bound variable's label)."""
        return self.steps[-1].label

    def __str__(self) -> str:
        return "." + "".join(str(step) for step in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


class QueryNode:
    """One query variable: incoming edge path, value predicate, children."""

    __slots__ = ("name", "edge", "predicate", "children")

    def __init__(
        self,
        name: str,
        edge: Optional[EdgePath] = None,
        predicate: Optional[Predicate] = None,
    ) -> None:
        self.name = name
        self.edge = edge
        self.predicate: Predicate = predicate if predicate is not None else TruePredicate()
        self.children: List[QueryNode] = []

    def add_child(self, child: "QueryNode") -> "QueryNode":
        """Attach a child variable (which must carry an edge path)."""
        if child.edge is None:
            raise ValueError("non-root query nodes need an edge path")
        self.children.append(child)
        return child

    @property
    def has_value_predicate(self) -> bool:
        return not isinstance(self.predicate, TruePredicate)

    def iter(self) -> Iterator["QueryNode"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edge = str(self.edge) if self.edge else "(root)"
        return f"<QueryNode {self.name} edge={edge} children={len(self.children)}>"


class TwigQuery:
    """A whole twig query, rooted at the virtual document-root variable."""

    def __init__(self, root: Optional[QueryNode] = None) -> None:
        self.root = root if root is not None else QueryNode("q0")
        if self.root.edge is not None:
            raise ValueError("the twig root maps to the document root and has no edge")

    def nodes(self) -> List[QueryNode]:
        """All query variables in pre-order (root first)."""
        return list(self.root.iter())

    @property
    def variable_count(self) -> int:
        return len(self.nodes())

    @property
    def predicate_count(self) -> int:
        """Number of variables carrying a non-trivial value predicate."""
        return sum(1 for node in self.nodes() if node.has_value_predicate)

    @property
    def is_structural(self) -> bool:
        """True when the twig has no value predicates at all."""
        return self.predicate_count == 0

    def to_xpath(self) -> str:
        """Render the twig back to the bracketed XPath-like surface syntax."""
        return _render(self.root, is_root=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TwigQuery {self.to_xpath()}>"


def _render_arg(text: str) -> str:
    # The parser trims bare arguments and splits on delimiters, so a
    # needle with significant edge whitespace (or a delimiter char)
    # must render quoted to survive the round trip.
    if text == text.strip() and not any(c in text for c in ',()"\\'):
        return text
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _render_predicate(predicate: Predicate) -> str:
    from repro.query.predicates import (
        AtLeastKPredicate,
        KeywordPredicate,
        RangePredicate,
        SubstringPredicate,
    )

    if isinstance(predicate, AtLeastKPredicate):
        terms = ", ".join(_render_arg(t) for t in predicate.sorted_terms())
        return f" ftatleast({predicate.threshold}, {terms})"

    if isinstance(predicate, RangePredicate):
        if predicate.low == RangePredicate.UNBOUNDED_LOW:
            return f" <= {predicate.high}"
        if predicate.high == RangePredicate.UNBOUNDED_HIGH:
            return f" >= {predicate.low}"
        return f" in [{predicate.low}, {predicate.high}]"
    if isinstance(predicate, SubstringPredicate):
        return f" contains({_render_arg(predicate.needle)})"
    if isinstance(predicate, KeywordPredicate):
        terms = ", ".join(_render_arg(t) for t in predicate.sorted_terms())
        return f" ftcontains({terms})"
    return ""


def _render(node: QueryNode, is_root: bool = False) -> str:
    # The parser appends branch children before the main-path child, so
    # the last child is the main continuation; rendering mirrors that,
    # making parse(render(q)) a fixpoint.
    pieces = []
    if not is_root:
        pieces.append("".join(str(step) for step in node.edge.steps))
        if node.has_value_predicate:
            pieces.append(f"[.{_render_predicate(node.predicate)}]")
    branches = node.children
    if is_root:
        if not branches:
            return "/"
        rendered = [_render(child) for child in branches]
        main = rendered[-1]
        prefix = "".join(f"[.{branch}]" for branch in rendered[:-1])
        # Root-level extra branches must attach to the first step of the
        # main path, so splice them after its first step's name test.
        return _splice_branches(main, prefix)
    if branches:
        rendered = [_render(child) for child in branches]
        for branch in rendered[:-1]:
            pieces.append(f"[.{branch}]")
        pieces.append(rendered[-1])
    return "".join(pieces)


def _splice_branches(main: str, branch_text: str) -> str:
    """Insert root-level branch brackets after the main path's first step."""
    if not branch_text:
        return main
    index = 0
    while index < len(main) and main[index] == "/":
        index += 1
    while index < len(main) and (main[index].isalnum() or main[index] in "_-@*"):
        index += 1
    return main[:index] + branch_text + main[index:]
