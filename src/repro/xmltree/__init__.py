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

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "repro.xmltree.tree": ("XMLElement", "XMLTree"),
        "repro.xmltree.types": ("ValueType", "infer_value_type"),
        "repro.xmltree.events": ("XMLParseError", "iter_events"),
        "repro.xmltree.parser": ("parse_document", "parse_string"),
        "repro.xmltree.serializer": ("serialize", "serialized_size_bytes"),
        "repro.xmltree.stats": ("TreeStatistics", "collect_statistics"),
        "repro.xmltree.columnar": (
            "ColumnarDocument",
            "as_columnar",
            "freeze",
            "from_events",
            "ingest_file",
            "ingest_string",
            "thaw",
        ),
    },
)
