"""Structural and value statistics over an XML document.

These feed the experiment harness (Table 1 reports element counts and
sizes) and the workload generator (which biases its sampling toward
high-count paths).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.xmltree.columnar import (
    KIND_NUMERIC,
    KIND_TO_TYPE,
    Document,
    as_columnar,
)
from repro.xmltree.types import ValueType


@dataclass
class TreeStatistics:
    """Summary statistics for one document.

    Attributes:
        element_count: total number of elements.
        max_depth: maximum element depth (root is 0).
        label_counts: elements per tag.
        path_counts: elements per root-to-element label path.
        type_counts: elements per value type.
        numeric_domain: (min, max) over all NUMERIC values, or ``None``.
        distinct_terms: size of the TEXT term dictionary.
        distinct_strings: number of distinct STRING values.
    """

    element_count: int = 0
    max_depth: int = 0
    label_counts: Dict[str, int] = field(default_factory=dict)
    path_counts: Dict[Tuple[str, ...], int] = field(default_factory=dict)
    type_counts: Dict[ValueType, int] = field(default_factory=dict)
    numeric_domain: Tuple[int, int] = None
    distinct_terms: int = 0
    distinct_strings: int = 0

    @property
    def valued_element_count(self) -> int:
        """Elements carrying a non-NULL value."""
        return self.element_count - self.type_counts.get(ValueType.NULL, 0)

    def top_paths(self, limit: int = 10) -> List[Tuple[Tuple[str, ...], int]]:
        """The ``limit`` most populous label paths, highest count first."""
        ranked = sorted(self.path_counts.items(), key=lambda item: -item[1])
        return ranked[:limit]


def collect_statistics(document: Document) -> TreeStatistics:
    """Gather :class:`TreeStatistics` in whole-column passes.

    ``Counter`` over the interned id columns, depth over the path table
    (whose rows biject with the distinct label paths, so its maximum
    depth is the document's), and ``min``/``max`` straight over the
    packed numeric column with the overflow side table patched in.  An
    object tree is frozen first.
    """
    doc = as_columnar(document)
    stats = TreeStatistics()
    size = len(doc)
    stats.element_count = size

    # Path-table rows are interned parent-first, so one pass suffices;
    # every row was interned for at least one element, so the deepest
    # row is the deepest element.
    path_parent = doc.path_parent
    path_depths = [0] * len(path_parent)
    for pid, parent_pid in enumerate(path_parent):
        if parent_pid >= 0:
            path_depths[pid] = path_depths[parent_pid] + 1
    stats.max_depth = max(path_depths, default=0)

    stats.label_counts = {
        doc.label_table[label_id]: count
        for label_id, count in Counter(doc.labels).items()
    }
    stats.path_counts = {
        doc.path_tuple(path_id): count
        for path_id, count in Counter(doc.path_ids).items()
    }
    kind_counts = Counter(doc.value_kind)
    stats.type_counts = {
        KIND_TO_TYPE[kind]: count for kind, count in kind_counts.items()
    }

    if kind_counts.get(KIND_NUMERIC):
        values = doc.numeric_values
        if doc.numeric_overflow:
            values = list(values)
            for ref, value in doc.numeric_overflow.items():
                values[ref] = value
        stats.numeric_domain = (min(values), max(values))
    stats.distinct_strings = len(set(doc.string_values))
    # Streamed term sets are id tuples into the interned term table;
    # frozen documents keep literal term sets.  Count distinct terms
    # over the union of both forms.
    term_ids: set = set()
    literal_terms: set = set()
    for term_set in doc.text_values:
        if type(term_set) is tuple:
            term_ids.update(term_set)
        else:
            literal_terms.update(term_set)
    if term_ids:
        literal_terms.update(map(doc.term_table.__getitem__, term_ids))
    stats.distinct_terms = len(literal_terms)
    return stats
