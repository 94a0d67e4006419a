"""Twig query model: AST, XPath-subset parser, predicates, exact evaluation.

Twig queries (paper Section 2) are node- and edge-labeled trees.  Each
node is a query variable; each edge carries an XPath expression over the
child/descendant axes with optional wildcards; value predicates —
numeric ranges, ``contains`` substring matches, and ``ftcontains`` keyword
matches — attach to query nodes.  :mod:`repro.query.evaluator` computes a
query's *exact* selectivity (its number of binding tuples) over a
document, which serves as ground truth for every error measurement in the
experiments.
"""

from repro.query.predicates import (
    AtLeastKPredicate,
    KeywordPredicate,
    Predicate,
    RangePredicate,
    SubstringPredicate,
    TruePredicate,
)
from repro.query.ast import AxisStep, EdgePath, QueryNode, TwigQuery
from repro.query.xpath import XPathSyntaxError, parse_edge_path, parse_twig
from repro.query.jsonast import (
    QueryFormatError,
    predicate_from_dict,
    predicate_to_dict,
    twig_from_dict,
    twig_to_dict,
)
from repro.query.evaluator import evaluate_selectivity

__all__ = [
    "Predicate",
    "TruePredicate",
    "RangePredicate",
    "SubstringPredicate",
    "KeywordPredicate",
    "AtLeastKPredicate",
    "AxisStep",
    "EdgePath",
    "QueryNode",
    "TwigQuery",
    "XPathSyntaxError",
    "parse_edge_path",
    "parse_twig",
    "QueryFormatError",
    "twig_to_dict",
    "twig_from_dict",
    "predicate_to_dict",
    "predicate_from_dict",
    "evaluate_selectivity",
]
