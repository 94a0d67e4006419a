"""Unit tests for the XML parser and serializer."""

import pytest

from repro.xmltree import (
    ValueType,
    XMLElement,
    XMLParseError,
    XMLTree,
    parse_string,
    serialize,
    serialized_size_bytes,
)
from repro.xmltree.types import tokenize_text


class TestParser:
    def test_simple_document(self):
        tree = parse_string("<a><b>5</b></a>")
        assert tree.root.label == "a"
        assert tree.root.children[0].value == 5

    def test_declaration_comments_and_doctype_skipped(self):
        text = (
            '<?xml version="1.0"?><!DOCTYPE a><!-- hi --><a><!-- in -->'
            "<b>ok</b></a>"
        )
        tree = parse_string(text)
        assert tree.root.children[0].value == "ok"

    def test_numeric_heuristic(self):
        tree = parse_string("<a><n> 42 </n></a>")
        node = tree.root.children[0]
        assert node.value == 42
        assert node.value_type is ValueType.NUMERIC

    def test_string_heuristic(self):
        tree = parse_string("<a><s>short text</s></a>")
        assert tree.root.children[0].value_type is ValueType.STRING

    def test_text_heuristic_long_content(self):
        words = " ".join(f"word{i}" for i in range(12))
        tree = parse_string(f"<a><t>{words}</t></a>")
        node = tree.root.children[0]
        assert node.value_type is ValueType.TEXT
        assert "word3" in node.value

    def test_type_map_by_tag(self):
        tree = parse_string(
            "<a><year>abc def ghi</year></a>",
            type_map={"year": ValueType.STRING},
        )
        assert tree.root.children[0].value == "abc def ghi"

    def test_type_map_by_path(self):
        tree = parse_string(
            "<a><x>some words here</x></a>",
            type_map={("a", "x"): ValueType.TEXT},
        )
        assert tree.root.children[0].value_type is ValueType.TEXT

    def test_type_map_forces_null(self):
        tree = parse_string("<a><x>123</x></a>", type_map={"x": ValueType.NULL})
        assert tree.root.children[0].value is None

    def test_attributes_become_children(self):
        tree = parse_string('<a id="7" name="n"><b/></a>')
        labels = [child.label for child in tree.root.children]
        assert "@id" in labels and "@name" in labels and "b" in labels

    def test_entities_decoded(self):
        tree = parse_string("<a><s>x &amp; y &lt;z&gt; &#65;</s></a>")
        assert tree.root.children[0].value == "x & y <z> A"

    def test_cdata(self):
        tree = parse_string("<a><s><![CDATA[raw <stuff>]]></s></a>")
        assert tree.root.children[0].value == "raw <stuff>"

    def test_self_closing(self):
        tree = parse_string("<a><b/><c/></a>")
        assert len(tree.root.children) == 2

    def test_mismatched_close_tag(self):
        with pytest.raises(XMLParseError):
            parse_string("<a><b></c></a>")

    def test_unterminated_element(self):
        with pytest.raises(XMLParseError):
            parse_string("<a><b>")

    def test_trailing_content_rejected(self):
        with pytest.raises(XMLParseError):
            parse_string("<a/><b/>")

    def test_mixed_content_rejected(self):
        with pytest.raises(XMLParseError):
            parse_string("<a>text<b/></a>")

    def test_unknown_entity(self):
        with pytest.raises(XMLParseError):
            parse_string("<a><s>&nosuch;</s></a>")

    def test_error_reports_offset(self):
        with pytest.raises(XMLParseError) as info:
            parse_string("<a><b></wrong></a>")
        assert info.value.position > 0


class TestSerializer:
    def test_roundtrip_structure_and_values(self):
        source = "<a><b>5</b><c>hello world</c><d/></a>"
        tree = parse_string(source)
        again = parse_string(serialize(tree))
        assert len(again) == len(tree)
        assert again.root.children[0].value == 5
        assert again.root.children[1].value == "hello world"

    def test_text_values_roundtrip_as_term_sets(self):
        words = " ".join(f"word{i}" for i in range(12))
        tree = parse_string(f"<a><t>{words}</t></a>")
        again = parse_string(serialize(tree))
        assert again.root.children[0].value == tree.root.children[0].value

    def test_escaping(self):
        tree = parse_string("<a><s>x &amp; &lt;y&gt;</s></a>")
        text = serialize(tree)
        assert "&amp;" in text and "&lt;y&gt;" in text

    def test_serialized_size_positive(self, bibliography):
        assert serialized_size_bytes(bibliography.tree) > 100


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize_text("Hello, World! hello") == frozenset({"hello", "world"})

    def test_alnum_kept_together(self):
        assert "a1b2" in tokenize_text("a1b2 c")

    def test_empty(self):
        assert tokenize_text("  ,. ") == frozenset()


class TestFuzzRoundTrip:
    """Seeded fuzzing of serialize -> parse (see docs/TESTING.md)."""

    def test_random_documents_round_trip(self, seeded_rng):
        from repro.check import DocumentConfig, DocumentGenerator

        generator = DocumentGenerator(
            DocumentConfig(min_elements=15, max_elements=60)
        )
        for _ in range(8):
            tree = generator.generate(seeded_rng)
            again = parse_string(serialize(tree), text_word_threshold=2)
            originals = list(tree)
            replicas = list(again)
            assert len(originals) == len(replicas)
            for original, replica in zip(originals, replicas):
                assert original.label == replica.label
                assert original.value_type is replica.value_type
                assert original.value == replica.value

    def test_entities_in_values_round_trip(self, seeded_rng):
        specials = ["&", "<", ">", "&&", "<<>>", "a&b", "x<y", "p>q"]
        for _ in range(10):
            word = seeded_rng.choice(specials) + seeded_rng.choice("abc")
            source = XMLElement("root")
            source.add("s", word)
            again = parse_string(serialize(XMLTree(source)))
            assert again.root.children[0].value == word

    def test_numeric_entity_forms(self):
        tree = parse_string("<a><s>x&#38;y</s><t>p&#x26;q</t></a>")
        assert tree.root.children[0].value == "x&y"
        assert tree.root.children[1].value == "p&q"

    def test_mixed_whitespace_between_elements(self, seeded_rng):
        gaps = [" ", "\t", "\n", "\r\n", "  \n\t "]
        for _ in range(10):
            g = [seeded_rng.choice(gaps) for _ in range(6)]
            text = (
                f"<a>{g[0]}<b>{g[1]}7{g[2]}</b>{g[3]}<c>ok</c>{g[4]}</a>{g[5]}"
            )
            tree = parse_string(text)
            assert tree.root.children[0].value == 7
            assert tree.root.children[1].value == "ok"

    def test_deep_nesting_round_trips(self):
        depth = 120
        source = "".join(f"<n{i}>" for i in range(depth))
        source += "leafvalue"
        source += "".join(f"</n{i}>" for i in reversed(range(depth)))
        tree = parse_string(source)
        assert len(tree) == depth
        again = parse_string(serialize(tree))
        assert len(again) == depth
        element = again.root
        while element.children:
            element = element.children[0]
        assert element.value == "leafvalue"
        assert element.depth() == depth - 1


class TestFuzzMalformed:
    """Random mutations of valid documents must raise, never crash."""

    def test_truncations_raise_cleanly(self, seeded_rng):
        source = "<a><b>5</b><c>hello</c><d><e>x y z</e></d></a>"
        for _ in range(30):
            cut = seeded_rng.randrange(1, len(source) - 1)
            mutated = source[:cut]
            try:
                parse_string(mutated)
            except XMLParseError as error:
                assert error.position >= 0
            # Some prefixes stay well-formed (e.g. cutting trailing
            # whitespace); parsing successfully is also acceptable.

    def test_random_byte_flips_raise_or_parse(self, seeded_rng):
        source = "<a><b>5</b><c>hello</c></a>"
        for _ in range(40):
            position = seeded_rng.randrange(len(source))
            junk = seeded_rng.choice("<>&/;=")
            mutated = source[:position] + junk + source[position + 1:]
            try:
                tree = parse_string(mutated)
            except XMLParseError:
                continue
            tree.validate()  # whatever parsed must be a sound tree

    def test_stray_close_tags_raise(self, seeded_rng):
        for _ in range(10):
            label = seeded_rng.choice(["x", "yy", "zzz"])
            with pytest.raises(XMLParseError):
                parse_string(f"<a><b>1</b></{label}></a>")

    def test_unterminated_entities_raise(self):
        for bad in ["&amp", "&#38", "&#x26", "&;", "&#;", "&#xg;"]:
            with pytest.raises(XMLParseError):
                parse_string(f"<a><s>{bad}</s></a>")


class TestTokenizerChunkFuzz:
    """The byte scanner vs the char-scan oracle on fuzzed chunked input.

    Chunk boundaries fall at arbitrary *byte* positions — including
    inside multi-byte UTF-8 sequences — and both scanners must agree on
    every event, and on every error message and character offset.
    """

    @staticmethod
    def _outcome(tokenizer, source):
        events = []
        try:
            for event in tokenizer(source):
                events.append(event)
        except XMLParseError as error:
            return events, (str(error), error.position)
        return events, None

    @staticmethod
    def _random_byte_chunks(data, rng):
        chunks, pos = [], 0
        while pos < len(data):
            step = rng.randint(1, 9)
            chunks.append(data[pos : pos + step])
            pos += step
        return chunks

    def test_generated_documents_tokenize_identically_chunked(self, seeded_rng):
        from repro.check import DocumentConfig, DocumentGenerator
        from repro.check.oracles import iter_events_str
        from repro.xmltree.events import iter_events

        generator = DocumentGenerator(
            DocumentConfig(min_elements=10, max_elements=40)
        )
        for _ in range(5):
            xml = serialize(generator.generate(seeded_rng))
            expected = self._outcome(iter_events_str, xml)
            data = xml.encode("utf-8")
            for _ in range(4):
                chunks = self._random_byte_chunks(data, seeded_rng)
                assert self._outcome(iter_events, iter(chunks)) == expected

    def test_mutated_documents_fail_identically_chunked(self, seeded_rng):
        from repro.check.oracles import iter_events_str
        from repro.xmltree.events import iter_events

        source = "<a><b>5</b><c>héllo wörld</c><d>&amp; 🙂</d></a>"
        for _ in range(40):
            position = seeded_rng.randrange(len(source))
            junk = seeded_rng.choice("<>&/;='\"")
            mutated = source[:position] + junk + source[position + 1 :]
            expected = self._outcome(iter_events_str, mutated)
            data = mutated.encode("utf-8")
            chunks = [data[i : i + 2] for i in range(0, len(data), 2)]
            assert self._outcome(iter_events, iter(chunks)) == expected
