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

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "repro.query.predicates": (
            "Predicate",
            "TruePredicate",
            "RangePredicate",
            "SubstringPredicate",
            "KeywordPredicate",
            "AtLeastKPredicate",
        ),
        "repro.query.ast": ("AxisStep", "EdgePath", "QueryNode", "TwigQuery"),
        "repro.query.xpath": (
            "XPathSyntaxError",
            "parse_edge_path",
            "parse_twig",
        ),
        "repro.query.jsonast": (
            "QueryFormatError",
            "twig_to_dict",
            "twig_from_dict",
            "predicate_to_dict",
            "predicate_from_dict",
        ),
        "repro.query.evaluator": ("evaluate_selectivity",),
    },
)
