"""Unit and property tests for term vectors and end-biased term histograms."""

import pytest
from hypothesis import given, strategies as st

from repro.values import EndBiasedTermHistogram, TermCentroid, Vocabulary


def texts():
    return [
        frozenset({"xml", "summary", "synopsis"}),
        frozenset({"xml", "tree"}),
        frozenset({"xml", "summary"}),
        frozenset({"database"}),
    ]


class TestVocabulary:
    def test_intern_is_stable(self):
        vocabulary = Vocabulary()
        first = vocabulary.intern("a")
        assert vocabulary.intern("a") == first
        assert vocabulary.intern("b") == first + 1

    def test_lookup_apis(self):
        vocabulary = Vocabulary()
        term_id = vocabulary.intern("x")
        assert vocabulary.id_of("x") == term_id
        assert vocabulary.term_of(term_id) == "x"
        assert vocabulary.get("missing") == -1
        assert "x" in vocabulary
        assert len(vocabulary) == 1
        with pytest.raises(KeyError):
            vocabulary.id_of("missing")

    def test_truncate_rewinds_and_intern_all_restores(self):
        vocabulary = Vocabulary()
        terms = [f"t{i}" for i in range(50)]
        vocabulary.intern_all(terms)
        tail = vocabulary.truncate(20)
        assert tail == terms[20:]
        assert list(vocabulary) == terms[:20]
        assert all(term not in vocabulary for term in tail)
        assert vocabulary.get("t20") == -1
        assert vocabulary.intern("new") == 20
        vocabulary.truncate(20)
        assert vocabulary.intern_all(tail) == list(range(20, 50))
        assert [vocabulary.id_of(term) for term in terms] == list(range(50))
        assert vocabulary.truncate(50) == []


class TestTermCentroid:
    def test_from_term_sets(self):
        centroid = TermCentroid.from_term_sets(texts())
        assert centroid.count == 4
        assert centroid.frequency("xml") == pytest.approx(0.75)
        assert centroid.frequency("tree") == pytest.approx(0.25)
        assert centroid.frequency("absent") == 0.0

    def test_empty(self):
        centroid = TermCentroid.from_term_sets([])
        assert centroid.count == 0
        assert centroid.term_count == 0

    def test_fuse_weighted(self):
        left = TermCentroid({"a": 1.0}, 1)
        right = TermCentroid({"a": 0.5, "b": 0.5}, 2)
        fused = left.fuse(right)
        assert fused.count == 3
        assert fused.frequency("a") == pytest.approx((1.0 + 2 * 0.5) / 3)
        assert fused.frequency("b") == pytest.approx(1.0 / 3)

    def test_top_terms_deterministic(self):
        centroid = TermCentroid.from_term_sets(texts())
        top = centroid.top_terms(2)
        assert top[0][0] == "xml"

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            TermCentroid({"a": 0.0}, 1)
        with pytest.raises(ValueError):
            TermCentroid({"a": 1.5}, 1)


class TestEBTH:
    def test_detailed_form_is_exact(self):
        vocabulary = Vocabulary()
        centroid = TermCentroid.from_term_sets(texts())
        ebth = EndBiasedTermHistogram.from_centroid(centroid, vocabulary)
        for term in ("xml", "summary", "tree", "database"):
            assert ebth.frequency(term) == pytest.approx(centroid.frequency(term))

    def test_negative_lookups_exact_zero(self):
        vocabulary = Vocabulary()
        ebth = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()), vocabulary
        )
        assert ebth.frequency("nothere") == 0.0
        compressed = ebth.compress(10)
        assert compressed.frequency("nothere") == 0.0

    def test_top_k_retained_exactly(self):
        vocabulary = Vocabulary()
        ebth = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()), vocabulary, exact_terms=1
        )
        assert ebth.frequency("xml") == pytest.approx(0.75)
        assert ebth.exact_term_count == 1

    def test_bucket_average(self):
        vocabulary = Vocabulary()
        ebth = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()), vocabulary, exact_terms=1
        )
        # Remaining terms: summary 0.5, synopsis 0.25, tree 0.25, db 0.25.
        expected = (0.5 + 0.25 + 0.25 + 0.25) / 4
        assert ebth.frequency("tree") == pytest.approx(expected)
        assert ebth.bucket_member_count == 4

    def test_compress_moves_lowest_frequencies(self):
        vocabulary = Vocabulary()
        ebth = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()), vocabulary
        )
        compressed = ebth.compress(4)
        # "xml" (0.75) is the highest frequency: demoted last.
        assert compressed.exact_term_count == 1
        assert compressed.frequency("xml") == pytest.approx(0.75)

    def test_compress_reduces_size(self):
        vocabulary = Vocabulary()
        ebth = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()), vocabulary
        )
        assert ebth.compress(2).size_bytes() == ebth.size_bytes() - 16

    def test_can_compress(self):
        vocabulary = Vocabulary()
        ebth = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()), vocabulary
        )
        assert ebth.can_compress
        assert not ebth.compress(100).can_compress

    def test_fuse_weighted_lookup(self):
        vocabulary = Vocabulary()
        left = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()[:2]), vocabulary
        )
        right = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()[2:]), vocabulary
        )
        fused = left.fuse(right)
        assert fused.count == 4
        assert fused.frequency("xml") == pytest.approx(0.75)
        assert fused.frequency("database") == pytest.approx(0.25)

    def test_fuse_of_detailed_is_lossless(self):
        vocabulary = Vocabulary()
        left = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()[:2]), vocabulary
        )
        right = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()[2:]), vocabulary
        )
        fused = left.fuse(right)
        whole = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()), vocabulary
        )
        for term in ("xml", "summary", "synopsis", "tree", "database"):
            assert fused.frequency(term) == pytest.approx(whole.frequency(term))

    def test_fuse_requires_shared_vocabulary(self):
        left = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()), Vocabulary()
        )
        right = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()), Vocabulary()
        )
        with pytest.raises(ValueError):
            left.fuse(right)

    def test_selectivity_multiplies_terms(self):
        vocabulary = Vocabulary()
        ebth = EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(texts()), vocabulary
        )
        assert ebth.selectivity(["xml", "summary"]) == pytest.approx(0.75 * 0.5)
        assert ebth.selectivity(["xml", "absent"]) == 0.0


@st.composite
def term_set_collections(draw):
    term = st.sampled_from(["t%d" % i for i in range(30)])
    term_set = st.frozensets(term, min_size=1, max_size=8)
    return draw(st.lists(term_set, min_size=1, max_size=20))


@given(term_set_collections(), st.integers(min_value=0, max_value=40))
def test_bitmap_membership_is_lossless(collections, demote):
    vocabulary = Vocabulary()
    centroid = TermCentroid.from_term_sets(collections)
    ebth = EndBiasedTermHistogram.from_centroid(centroid, vocabulary).compress(demote)
    present = {term for terms in collections for term in terms}
    for term in present:
        assert ebth.frequency(term) > 0.0
    for term in ("absent1", "absent2"):
        assert ebth.frequency(term) == 0.0


@given(term_set_collections(), st.integers(min_value=0, max_value=40))
def test_total_mass_preserved_by_compression(collections, demote):
    """Demotion redistributes frequency mass but conserves its sum."""
    vocabulary = Vocabulary()
    centroid = TermCentroid.from_term_sets(collections)
    ebth = EndBiasedTermHistogram.from_centroid(centroid, vocabulary)
    compressed = ebth.compress(demote)
    original_mass = sum(centroid.weights.values())
    compressed_mass = sum(
        compressed.frequency_by_id(term_id) for term_id in compressed.bitmap
    )
    assert compressed_mass == pytest.approx(original_mass, rel=1e-9)
