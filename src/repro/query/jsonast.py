"""A JSON codec for twig queries (the daemon's structured wire format).

``repro serve`` accepts twigs either as XPath-subset text (parsed by
:mod:`repro.query.xpath`) or as an explicit JSON AST, which clients that
build queries programmatically prefer: no escaping rules, no surface
grammar, and branch/predicate structure is spelled out.

The encoding mirrors the AST one-to-one:

.. code-block:: json

    {"name": "q1",
     "edge": [["descendant", "item"], ["child", "name"]],
     "predicate": {"kind": "substring", "needle": "gold"},
     "children": [...]}

A :class:`TwigQuery` document is the root node object (no ``edge``).
``twig_from_dict(twig_to_dict(q))`` reproduces ``q`` exactly, including
predicate equality, so plan signatures — and therefore the daemon's
coalescing and cross-user cache keys — are identical for both wire
formats.  Malformed input raises :class:`QueryFormatError`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.query.ast import MAX_TWIG_DEPTH, AxisStep, EdgePath, QueryNode, TwigQuery
from repro.query.predicates import (
    AtLeastKPredicate,
    KeywordPredicate,
    Predicate,
    RangePredicate,
    SubstringPredicate,
    TruePredicate,
)


class QueryFormatError(ValueError):
    """Raised when decoding a malformed JSON twig AST."""


def predicate_to_dict(predicate: Predicate) -> Optional[Dict[str, Any]]:
    """Encode a value predicate; ``None`` for the trivial predicate."""
    if isinstance(predicate, TruePredicate):
        return None
    if isinstance(predicate, RangePredicate):
        encoded: Dict[str, Any] = {"kind": "range"}
        if predicate.low != RangePredicate.UNBOUNDED_LOW:
            encoded["low"] = predicate.low
        if predicate.high != RangePredicate.UNBOUNDED_HIGH:
            encoded["high"] = predicate.high
        return encoded
    if isinstance(predicate, SubstringPredicate):
        return {"kind": "substring", "needle": predicate.needle}
    if isinstance(predicate, AtLeastKPredicate):
        return {
            "kind": "atleast",
            "terms": list(predicate.sorted_terms()),
            "threshold": predicate.threshold,
        }
    if isinstance(predicate, KeywordPredicate):
        return {"kind": "keyword", "terms": list(predicate.sorted_terms())}
    raise QueryFormatError(f"cannot encode predicate {type(predicate).__name__}")


def predicate_from_dict(data: Optional[Dict[str, Any]]) -> Predicate:
    """Decode a predicate object (``None`` → :class:`TruePredicate`)."""
    if data is None:
        return TruePredicate()
    if not isinstance(data, dict):
        raise QueryFormatError(f"predicate must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    try:
        if kind == "true":
            return TruePredicate()
        if kind == "range":
            low = data.get("low")
            high = data.get("high")
            if low is None and high is None:
                raise QueryFormatError("range predicate needs low and/or high")
            return RangePredicate(
                None if low is None else int(low),
                None if high is None else int(high),
            )
        if kind == "substring":
            return SubstringPredicate(str(data["needle"]))
        if kind == "keyword":
            return KeywordPredicate([str(term) for term in data["terms"]])
        if kind == "atleast":
            return AtLeastKPredicate(
                [str(term) for term in data["terms"]], int(data["threshold"])
            )
    except QueryFormatError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise QueryFormatError(f"malformed {kind!r} predicate: {err}") from err
    raise QueryFormatError(f"unknown predicate kind {kind!r}")


def _edge_to_list(edge: EdgePath) -> List[List[str]]:
    return [[step.axis, step.label] for step in edge.steps]


def _edge_from_list(data: Any) -> EdgePath:
    if not isinstance(data, list) or not data:
        raise QueryFormatError("edge must be a non-empty list of [axis, label] steps")
    steps = []
    for step in data:
        if not isinstance(step, (list, tuple)) or len(step) != 2:
            raise QueryFormatError(f"malformed edge step {step!r}")
        axis, label = step
        try:
            steps.append(AxisStep(str(axis), str(label)))
        except ValueError as err:
            raise QueryFormatError(str(err)) from err
    return EdgePath(tuple(steps))


def _node_to_dict(node: QueryNode, is_root: bool) -> Dict[str, Any]:
    encoded: Dict[str, Any] = {"name": node.name}
    if not is_root:
        encoded["edge"] = _edge_to_list(node.edge)
    predicate = predicate_to_dict(node.predicate)
    if predicate is not None:
        encoded["predicate"] = predicate
    if node.children:
        encoded["children"] = [
            _node_to_dict(child, is_root=False) for child in node.children
        ]
    return encoded


def _node_from_dict(data: Any, is_root: bool, depth: int = 0) -> QueryNode:
    if not isinstance(data, dict):
        raise QueryFormatError(f"query node must be an object, got {type(data).__name__}")
    if depth > MAX_TWIG_DEPTH:
        raise QueryFormatError(f"twig AST nested deeper than {MAX_TWIG_DEPTH} levels")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise QueryFormatError("query node needs a non-empty string name")
    if is_root:
        if "edge" in data:
            raise QueryFormatError("the twig root has no edge")
        edge = None
    else:
        edge = _edge_from_list(data.get("edge"))
    node = QueryNode(name, edge, predicate_from_dict(data.get("predicate")))
    children = data.get("children", [])
    if not isinstance(children, list):
        raise QueryFormatError("children must be a list")
    for child in children:
        node.add_child(_node_from_dict(child, is_root=False, depth=depth + 1))
    return node


def twig_to_dict(query: TwigQuery) -> Dict[str, Any]:
    """Encode a twig query as its JSON AST (the root node object)."""
    return _node_to_dict(query.root, is_root=True)


def twig_from_dict(data: Dict[str, Any]) -> TwigQuery:
    """Decode a JSON AST produced by :func:`twig_to_dict` (or a client)."""
    try:
        return TwigQuery(_node_from_dict(data, is_root=True))
    except QueryFormatError:
        raise
    except ValueError as err:
        raise QueryFormatError(str(err)) from err
