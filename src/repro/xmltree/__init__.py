"""XML tree substrate: node-labeled trees with typed element values.

This package provides the document model that every other subsystem builds
on: :class:`~repro.xmltree.tree.XMLElement` / :class:`~repro.xmltree.tree.XMLTree`
(a node-labeled tree where each element optionally carries a NUMERIC,
STRING, or TEXT value), an XML parser and serializer implemented from
scratch, and structural statistics used by the experiment harness.

Two document substrates are available: the object tree (one
:class:`XMLElement` per element) and the columnar store
(:class:`~repro.xmltree.columnar.ColumnarDocument`, struct-of-arrays
preorder columns fed by the streaming event tokenizer of
:mod:`repro.xmltree.events`).  Construction, exact evaluation and
statistics compute only over the columnar store; they accept an object
tree too, frozen once at the entry by
:func:`~repro.xmltree.columnar.as_columnar`.
"""

from repro.xmltree.tree import XMLElement, XMLTree
from repro.xmltree.types import ValueType, infer_value_type
from repro.xmltree.parser import XMLParseError, parse_document, parse_string
from repro.xmltree.serializer import serialize, serialized_size_bytes
from repro.xmltree.stats import TreeStatistics, collect_statistics
from repro.xmltree.events import iter_events
from repro.xmltree.columnar import (
    ColumnarDocument,
    as_columnar,
    freeze,
    from_events,
    ingest_file,
    ingest_string,
    thaw,
)

__all__ = [
    "XMLElement",
    "XMLTree",
    "ValueType",
    "infer_value_type",
    "XMLParseError",
    "parse_document",
    "parse_string",
    "serialize",
    "serialized_size_bytes",
    "TreeStatistics",
    "collect_statistics",
    "iter_events",
    "ColumnarDocument",
    "as_columnar",
    "freeze",
    "from_events",
    "ingest_file",
    "ingest_string",
    "thaw",
]
