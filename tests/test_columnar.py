"""The streaming ingestion pipeline and the columnar document store.

Three contracts under test:

* **Substrate equivalence** — event-stream ingestion of a document's
  bytes must land element-for-element on the same labels, paths, types,
  and values as the object-tree parser, down to bit-identical reference
  synopses (frozenset layout included).
* **Adapter fidelity** — ``parse → freeze → thaw → serialize`` is the
  identity on serialized form, for every value type.
* **Error parity** — the tokenizer rejects exactly what the parser
  rejects, including the ``&#;``-style malformed entity corpus from the
  parser fuzz tests.
"""

from __future__ import annotations

import pytest

from repro.check.oracles import iter_events_str
from repro.core import build_reference_synopsis
from repro.core.serialization import synopsis_to_dict
from repro.datasets import bibliography_tree
from repro.xmltree import (
    freeze,
    ingest_string,
    parse_string,
    serialize,
    thaw,
)
from repro.xmltree.columnar import from_events
from repro.xmltree.events import XMLParseError, iter_events
from repro.xmltree.stats import collect_statistics
from repro.xmltree.types import ValueType, tokenize_text

MIXED = (
    "<lib count='3'>"
    "<book><title>the quick brown fox jumps over lazy dogs</title>"
    "<year>2006</year><pages>514</pages></book>"
    "<book><title>structured xml content synopses for many twig queries</title>"
    "<year>2005</year><isbn>somecode</isbn></book>"
    "<empty/><hollow></hollow>"
    "<big>123456789012345678901234567890</big>"
    "</lib>"
)


def _element_rows(tree):
    """(label, path, type, value) per element in preorder."""
    return [
        (el.label, el.label_path(), el.value_type, el.value)
        for el in tree.root.iter()
    ]


def _columnar_rows(doc):
    return [
        (doc.label(i), doc.label_path(i), doc.value_type(i), doc.value(i))
        for i in range(len(doc))
    ]


class TestSubstrateEquivalence:
    @pytest.mark.parametrize("threshold", [2, 8])
    def test_ingest_matches_parse_per_element(self, threshold):
        tree = parse_string(MIXED, text_word_threshold=threshold)
        doc = ingest_string(MIXED, text_word_threshold=threshold)
        assert _columnar_rows(doc) == _element_rows(tree)

    def test_mixed_value_types_survive(self):
        doc = ingest_string(MIXED)
        rows = {doc.label(i): (doc.value_type(i), doc.value(i))
                for i in range(len(doc))}
        assert rows["year"][0] is ValueType.NUMERIC
        assert rows["title"][0] is ValueType.TEXT
        assert rows["isbn"] == (ValueType.STRING, "somecode")
        assert rows["@count"] == (ValueType.STRING, "3")
        # 30-digit values overflow the packed int64 column but not the
        # overflow side table.
        assert rows["big"] == (
            ValueType.NUMERIC, 123456789012345678901234567890
        )
        assert rows["empty"] == (ValueType.NULL, None)
        assert rows["hollow"] == (ValueType.NULL, None)

    def test_chunked_stream_equals_whole_string(self):
        whole = ingest_string(MIXED)
        for size in (1, 7, 64):
            chunks = [MIXED[i : i + size] for i in range(0, len(MIXED), size)]
            chunked = from_events(iter_events(iter(chunks)))
            assert _columnar_rows(chunked) == _columnar_rows(whole)

    def test_reference_synopsis_is_bit_identical(self):
        xml = serialize(bibliography_tree().tree)
        tree = parse_string(xml)
        doc = ingest_string(xml)
        value_paths = tree.value_paths()
        assert doc.value_paths() == value_paths
        assert synopsis_to_dict(
            build_reference_synopsis(doc, value_paths)
        ) == synopsis_to_dict(build_reference_synopsis(tree, value_paths))
        assert collect_statistics(doc) == collect_statistics(tree)

    def test_text_frozensets_share_parser_layout(self):
        """Streamed TEXT values intern to term-id tuples but rebuild
        frozensets whose iteration order matches ``tokenize_text`` —
        the property downstream term-vocabulary interning depends on."""
        raw = "over lazy dogs jumps the quick brown fox the the fox"
        doc = ingest_string(f"<a><t>{raw}</t></a>", text_word_threshold=2)
        stored = doc.text_values[0]
        assert type(stored) is tuple  # interned ids, not strings
        rebuilt = doc.value(1)
        expected = tokenize_text(raw)
        assert rebuilt == expected
        assert list(rebuilt) == list(expected)  # same set layout
        assert len(set(doc.term_table)) == len(doc.term_table)


class TestFreezeThaw:
    def _documents(self):
        yield MIXED
        yield serialize(bibliography_tree().tree)
        yield "<r><a/><b>solo</b><c x='1' y='2'><d>7</d></c></r>"

    @pytest.mark.parametrize("threshold", [2, 8])
    def test_parse_freeze_thaw_serialize_identity(self, threshold):
        for xml in self._documents():
            tree = parse_string(xml, text_word_threshold=threshold)
            canonical = serialize(tree)
            restored = thaw(freeze(tree))
            restored.validate()
            assert serialize(restored) == canonical

    def test_freeze_matches_ingest_columns(self):
        for xml in self._documents():
            frozen = freeze(parse_string(xml))
            ingested = ingest_string(xml)
            assert _columnar_rows(frozen) == _columnar_rows(ingested)

    def test_freeze_keeps_frozensets_verbatim(self):
        tree = parse_string(MIXED)
        frozen = freeze(tree)
        texts = [el.value for el in tree.root.iter()
                 if el.value_type is ValueType.TEXT]
        stored = [value for value in frozen.text_values
                  if type(value) is not tuple]
        assert stored == texts
        for original, kept in zip(texts, stored):
            assert kept is original  # no copy, no re-layout

    def test_thaw_rejects_empty_document(self):
        from repro.xmltree.columnar import ColumnarDocument

        with pytest.raises(ValueError):
            thaw(ColumnarDocument())


class TestErrorParity:
    MALFORMED = [
        # The parser fuzz corpus: unterminated and malformed entities.
        "<a><s>&amp</s></a>",
        "<a><s>&#38</s></a>",
        "<a><s>&#x26</s></a>",
        "<a><s>&;</s></a>",
        "<a><s>&#;</s></a>",
        "<a><s>&#xg;</s></a>",
        # Structural malformations.
        "<a><b></c></a>",
        "<a><b>",
        "<a/><b/>",
        "<a>text<b/></a>",
        "<a><s>&nosuch;</s></a>",
        "",
    ]

    @pytest.mark.parametrize("xml", MALFORMED)
    def test_ingest_rejects_what_parse_rejects(self, xml):
        with pytest.raises(XMLParseError):
            parse_string(xml)
        with pytest.raises(XMLParseError):
            ingest_string(xml)

    @pytest.mark.parametrize("xml", MALFORMED)
    def test_errors_match_at_any_chunking(self, xml):
        try:
            parse_string(xml)
        except XMLParseError as error:
            expected = (str(error), error.position)
        chunks = [xml[i : i + 3] for i in range(0, len(xml), 3)]
        with pytest.raises(XMLParseError) as info:
            from_events(iter_events(iter(chunks)))
        assert (str(info.value), info.value.position) == expected


class TestChunkBoundaryFuzz:
    """Byte chunk boundaries may fall anywhere — inside multi-byte
    UTF-8 sequences, entity references, and markup delimiters — and the
    byte scanner must still reproduce the whole-input token stream (or
    the whole-input error, message and character offset included).
    """

    # 2-, 3-, and 4-byte UTF-8 in labels, attributes, and text; named,
    # decimal, and hex entities; a non-breaking space; a self-close.
    UNICODE_DOC = (
        "<répertoire title='Ωλ 🙂'>"
        "<日本語>テキスト &amp; données&#x21;</日本語>"
        "<note>café au&#233;lait</note>"
        "<empty/>"
        "</répertoire>"
    )

    def test_every_single_split_yields_identical_events(self):
        data = self.UNICODE_DOC.encode("utf-8")
        expected = list(iter_events(self.UNICODE_DOC))
        for cut in range(len(data) + 1):
            streamed = list(iter_events(iter([data[:cut], data[cut:]])))
            assert streamed == expected, f"split at byte {cut}"

    def test_every_small_chunk_size_yields_identical_events(self):
        data = self.UNICODE_DOC.encode("utf-8")
        expected = list(iter_events(self.UNICODE_DOC))
        for size in range(1, 9):
            chunks = [data[i : i + size] for i in range(0, len(data), size)]
            assert list(iter_events(iter(chunks))) == expected, size

    # Each malformation sits after multi-byte characters, so the error
    # offset only matches if byte->character accounting is exact.
    MALFORMED_UNICODE = [
        "<a><s>héllo &nosuch; wörld</s></a>",
        "<a><日本>🙂</本日></a>",
        "<a><s>Ωλ&#xg;</s></a>",
        "<a>🙂<b/></a>",
        "<a><s>café&amp</s></a>",
        "<a><s>🙂",
    ]

    @pytest.mark.parametrize("xml", MALFORMED_UNICODE)
    def test_error_offsets_survive_every_single_split(self, xml):
        with pytest.raises(XMLParseError) as whole:
            list(iter_events(xml))
        expected = (str(whole.value), whole.value.position)
        data = xml.encode("utf-8")
        for cut in range(len(data) + 1):
            with pytest.raises(XMLParseError) as info:
                list(iter_events(iter([data[:cut], data[cut:]])))
            assert (str(info.value), info.value.position) == expected, (
                f"split at byte {cut}"
            )

    def test_byte_and_str_scanners_agree_on_random_chunkings(self, seeded_rng):
        data = self.UNICODE_DOC.encode("utf-8")
        expected = list(iter_events_str(self.UNICODE_DOC))
        for _ in range(25):
            chunks, pos = [], 0
            while pos < len(data):
                step = seeded_rng.randint(1, 6)
                chunks.append(data[pos : pos + step])
                pos += step
            assert list(iter_events(iter(chunks))) == expected
