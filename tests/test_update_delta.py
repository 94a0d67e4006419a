"""Updates pay for the summaries they change.

The TEXT encoder ranks term ids with a stable keyed sort and interns
only the terms the vocabulary lacks; a changed cluster that kept its
terms re-encodes over its old bitmap; after a delete, later clusters
whose ids only shifted are remapped run by run; NUMERIC histograms
bucket from a sorted value list kept beside their counts; and the delta
path visits only the clusters whose values moved plus the TEXT clusters
after them.  Every test pins the result to a rebuild or to the
reference computation it replaces.
"""

from collections import Counter
from operator import neg

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import build_reference_synopsis
from repro.core.serialization import synopsis_to_dict
from repro.datasets import generate_xmark
from repro.update import (
    DeleteSubtree,
    IncrementalMaintainer,
    InsertSubtree,
    ValueChange,
    enforce_summary_budget,
)
from repro.values.ebth import EndBiasedTermHistogram
from repro.values.histogram import Histogram, HistogramBucket
from repro.values.rle import RunLengthBitmap
from repro.values.summary import SummaryConfig
from repro.values.termvector import TermCentroid, Vocabulary
from repro.xmltree import serialize
from repro.xmltree.columnar import ingest_string

THRESHOLD = 2


def _maintainer(xml, budget=None):
    doc = ingest_string(xml, text_word_threshold=THRESHOLD)
    return IncrementalMaintainer(
        doc, None, text_word_threshold=THRESHOLD, max_summary_bytes=budget
    )


def _assert_rebuilt(maintainer, budget=None):
    rebuilt = build_reference_synopsis(maintainer.doc, None, SummaryConfig())
    if budget is not None:
        for node in rebuilt:
            node.vsumm = enforce_summary_budget(node.vsumm, budget)
    assert synopsis_to_dict(maintainer.synopsis) == synopsis_to_dict(rebuilt)


# -- the encoder ---------------------------------------------------------------


def _tuple_ranked(weights, ids):
    """The reference ranking: ``(-weight, id)`` pairs sorted as tuples."""
    return sorted(zip(map(neg, weights.values()), ids))


CENTROIDS = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    st.integers(min_value=1, max_value=3),  # hits of 3 texts: heavy ties
    max_size=40,
)


@given(
    hits=CENTROIDS,
    known=st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=3), unique=True),
    exact_terms=st.none() | st.integers(min_value=0, max_value=45),
)
@settings(max_examples=200, deadline=None)
def test_keyed_ranking_equals_the_tuple_sort(hits, known, exact_terms):
    vocabulary = Vocabulary()
    vocabulary.extend(known)  # ids out of the terms' sorted order
    centroid = TermCentroid.from_counts(hits, 3)
    before = len(vocabulary)
    ebth = EndBiasedTermHistogram.from_centroid(centroid, vocabulary, exact_terms)

    fresh = sorted(term for term in hits if term not in known)
    assert vocabulary.since(before) == fresh  # only new terms, sorted
    ids = [vocabulary.id_of(term) for term in centroid.weights]
    ranked = _tuple_ranked(centroid.weights, ids)
    cut = len(ranked) if exact_terms is None else exact_terms
    assert list(ebth.exact.items()) == [(term_id, -weight) for weight, term_id in ranked[:cut]]
    rest = ranked[cut:]
    average = -sum(weight for weight, _ in rest) / len(rest) if rest else 0.0
    assert ebth.bucket_average == average
    assert ebth.bucket_member_count == len(rest)
    assert ebth.bitmap == RunLengthBitmap.from_ids(set(ids))
    assert ebth.invariant_issues() == []


def test_from_counts_weights_skip_the_check():
    centroid = TermCentroid.from_counts(Counter({"a": 2, "b": 1}), 2)
    assert centroid.weights == {"a": 1.0, "b": 0.5}
    with pytest.raises(ValueError):
        TermCentroid({"a": 1.5}, 1)


def test_a_given_bitmap_must_hold_the_centroid_terms():
    vocabulary = Vocabulary()
    centroid = TermCentroid.from_counts(Counter({"a": 1, "b": 1}), 1)
    with pytest.raises(ValueError):
        EndBiasedTermHistogram.from_centroid(
            centroid, vocabulary, bitmap=RunLengthBitmap.from_ids([0])
        )


# -- a clone insert keeps its cluster's ids ---------------------------------------

#: Element indexes: 0 root, 1 items, 2 item, 3 desc, 4 item, 5 desc,
#: 6 item, 7 desc, 8 notes, 9 note, 10 memo.
TEXTS = (
    "<root><items>"
    "<item><desc>alpha beta gamma</desc></item>"
    "<item><desc>beta gamma delta</desc></item>"
    "<item><desc>alpha delta omega</desc></item>"
    "</items>"
    "<notes><note>epsilon zeta alpha</note></notes>"
    "<memo>theta iota beta</memo>"
    "</root>"
)


@pytest.mark.parametrize("budget", [None, 40])
def test_clone_insert_reuses_the_bitmap(monkeypatch, budget):
    maintainer = _maintainer(TEXTS, budget)

    def rebuild(*args, **kwargs):
        raise AssertionError("a clone insert rebuilt a bitmap or checked weights")

    monkeypatch.setattr(RunLengthBitmap, "from_ids", classmethod(rebuild))
    monkeypatch.setattr(TermCentroid, "__init__", rebuild)
    result = maintainer.apply(InsertSubtree(1, 2, "<item><desc>beta gamma delta</desc></item>"))
    monkeypatch.undo()
    assert result["path"] == "localized"
    assert maintainer.stats.class_passes == 1
    assert (maintainer.stats.text_encodes, maintainer.stats.text_remaps) == (1, 0)
    _assert_rebuilt(maintainer, budget)


# -- deletes cascade through the shift remap ------------------------------------------

#: Four TEXT clusters.  Each description holds a term no other text has,
#: so deleting its item shifts every later cluster's own ids down.
#: Element indexes: 0 doc, 1 items, then item i at 2 + 2i (desc 3 + 2i)
#: for i < 4, 10 notes, 11 note, 12 note, 13 memo, 14 tail.
SHIFTS = (
    "<doc><items>"
    "<item><desc>alpha beta unique0</desc></item>"
    "<item><desc>alpha gamma unique1</desc></item>"
    "<item><desc>beta gamma unique2</desc></item>"
    "<item><desc>alpha delta unique3</desc></item>"
    "</items>"
    "<notes><note>kappa lambda alpha</note><note>mu lambda beta</note></notes>"
    "<memo>nu xi omicron kappa mu</memo>"
    "<tail>pi rho sigma nu zeta</tail>"
    "</doc>"
)


@pytest.mark.parametrize("budget", [None, 36, 60])
def test_delete_cascades_shift_remap_to_a_rebuild(monkeypatch, budget):
    maintainer = _maintainer(SHIFTS, budget)
    rebuilt_bitmaps = []
    from_ids = RunLengthBitmap.from_ids.__func__

    def counting(cls, ids):
        rebuilt_bitmaps.append(ids)
        return from_ids(cls, ids)

    monkeypatch.setattr(RunLengthBitmap, "from_ids", classmethod(counting))
    for index in (8, 2, 4, 2):  # the last item, then the first, twice
        before = maintainer.stats.text_encodes - maintainer.stats.text_remaps
        rebuilt_bitmaps.clear()
        maintainer.apply(DeleteSubtree(index))
        encodes = maintainer.stats.text_encodes - maintainer.stats.text_remaps - before
        # Remaps re-run no bitmap: only the encodes build one.
        assert len(rebuilt_bitmaps) == encodes
        _assert_rebuilt(maintainer, budget)
    if budget is None:
        assert maintainer.stats.text_remaps >= 8


def test_bitmap_remap_keeps_runs_below_the_cut():
    bitmap = RunLengthBitmap.from_ids([0, 1, 2, 5, 6, 9, 10, 11])
    # Id 7 left: ids from 8 move down one; ids below the cut stay.
    mapping = [0, 1, 2, 3, 4, 5, 6, None, 7, 8, 9, 10]
    moved = bitmap.remapped(mapping, 8)
    assert moved.runs == ((0, 2), (5, 6), (8, 10))
    assert moved == RunLengthBitmap.from_ids([0, 1, 2, 5, 6, 8, 9, 10])
    assert len(moved) == len(bitmap)
    # Id 4 left too: the runs it separated merge.
    merged = bitmap.remapped([0, 1, 2, 3, None, 4, 5, None, 6, 7, 8, 9], 4)
    assert merged.runs == ((0, 2), (4, 5), (7, 9))
    closed = bitmap.remapped([0, 1, 2, None, None, 3, 4, None, None, 5, 6, 7], 3)
    assert closed.runs == ((0, 7),)
    assert closed.invariant_issues() == []


# -- the delta path visits what changed ---------------------------------------------------


def _summarized(maintainer):
    return set(maintainer._counts) | set(maintainer._dropped)


@pytest.fixture(scope="module")
def xmark_xml():
    return serialize(generate_xmark(0.05, 7).tree)


def _clone_item(doc):
    """An op cloning the middle item right after itself, and the row
    its clone will start at."""
    items = [i for i in range(len(doc)) if doc.label(i) == "item"]
    item = items[len(items) // 2]
    end = item + doc.size[item]
    position = sum(1 for child in doc.children(doc.parent[item]) if child <= item)
    return InsertSubtree(doc.parent[item], position, serialize_subtree(doc, item, end)), end


def serialize_subtree(doc, start, end):
    """The XML text of rows ``[start, end)`` (one subtree)."""
    parts, open_rows = [], []
    for row in range(start, end):
        while open_rows and row >= open_rows[-1][1]:
            parts.append(f"</{doc.label(open_rows.pop()[0])}>")
        value = doc.value(row)
        text = " ".join(sorted(value)) if isinstance(value, frozenset) else (
            "" if value is None else str(value)
        )
        parts.append(f"<{doc.label(row)}>{text}")
        open_rows.append((row, row + doc.size[row]))
    while open_rows:
        parts.append(f"</{doc.label(open_rows.pop()[0])}>")
    return "".join(parts)


def test_structural_ops_visit_changed_clusters_and_the_text_tail(xmark_xml):
    maintainer = IncrementalMaintainer(ingest_string(xmark_xml))
    doc = maintainer.doc
    summarized = _summarized(maintainer)
    for _ in range(3):
        op, at = _clone_item(doc)
        passes = maintainer.stats.class_passes
        visited = maintainer.stats.clusters_visited
        maintainer.apply(op)
        assert maintainer.stats.class_passes == passes  # classes moved by delta
        changed = set(maintainer._classes[at:at + doc.size[at]]) & summarized
        texts = maintainer._text
        first = min((texts.index(key) for key in changed if key in texts), default=len(texts))
        bound = len(changed) + len(texts) - first
        assert maintainer.stats.clusters_visited - visited <= bound < len(summarized)
        _assert_rebuilt(maintainer)
        visited = maintainer.stats.clusters_visited
        maintainer.apply(DeleteSubtree(at))
        assert maintainer.stats.clusters_visited - visited <= bound
        _assert_rebuilt(maintainer)


def test_reassemble_that_changes_nothing_visits_no_cluster(xmark_xml):
    maintainer = IncrementalMaintainer(ingest_string(xmark_xml))
    before = synopsis_to_dict(maintainer.synopsis)
    summaries = {key: node.vsumm for key, node in maintainer.synopsis.nodes.items()}
    maintainer._reassemble(set(), {})
    doc = maintainer.doc
    price = next(i for i in range(len(doc)) if doc.label(i) == "price")
    maintainer.apply(ValueChange(price, str(doc.value(price))))
    text = next(i for i in range(len(doc)) if isinstance(doc.value(i), frozenset))
    maintainer.apply(ValueChange(text, " ".join(sorted(doc.value(text)))))
    assert maintainer.stats.clusters_visited == 0
    assert maintainer.stats.text_encodes == 0
    assert synopsis_to_dict(maintainer.synopsis) == before
    for key, node in maintainer.synopsis.nodes.items():
        assert node.vsumm is summaries[key]


# -- NUMERIC histograms from a kept sorted value list -----------------------------------


def _loop_buckets(counts, max_buckets):
    """The reference equi-depth bucketing: one pass over the sorted values."""
    distinct = [(value, counts[value]) for value in sorted(counts)]
    if len(distinct) <= max_buckets:
        return [HistogramBucket(v, v, c) for v, c in distinct]
    target = sum(counts.values()) / max_buckets
    buckets, run_lo, run_count = [], distinct[0][0], 0
    remaining_groups = len(distinct)
    for index, (value, count) in enumerate(distinct):
        run_count += count
        remaining_groups -= 1
        remaining_buckets = max_buckets - len(buckets) - 1
        if (run_count >= target and remaining_buckets > 0) or (
            remaining_groups <= remaining_buckets
        ):
            buckets.append(HistogramBucket(run_lo, value, run_count))
            if index + 1 < len(distinct):
                run_lo = distinct[index + 1][0]
            run_count = 0
    if run_count > 0:
        buckets.append(HistogramBucket(run_lo, distinct[-1][0], run_count))
    return buckets


@given(
    st.dictionaries(
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=1, max_value=60) | st.just(1),
        max_size=300,
    ),
    st.integers(min_value=1, max_value=70),
)
@settings(max_examples=300, deadline=None)
def test_bucketing_from_running_totals_equals_the_loop(counts, buckets):
    expected = _loop_buckets(counts, buckets)
    assert list(Histogram.from_counts(counts, buckets).buckets) == expected
    kept = Histogram.from_counts(counts, buckets, sorted(counts))
    assert list(kept.buckets) == expected
    assert [type(bucket.count) for bucket in kept.buckets] == [int] * len(expected)


PRICES = "<doc>" + "".join(
    f"<rec><price>{price}</price></rec>" for price in (3, 3, 7, 9, 12, 12, 15, 18, 18, 18, 40)
) + "</doc>"


@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 45)), min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_numeric_value_changes_keep_the_sorted_values(changes):
    config = SummaryConfig(histogram_buckets=3)
    doc = ingest_string(PRICES)
    maintainer = IncrementalMaintainer(doc, None, config)
    rows = [i for i in range(len(doc)) if doc.label(i) == "price"]
    for record, price in changes:
        result = maintainer.apply(ValueChange(rows[record], str(price)))
        assert result["path"] == "summary-local"
        for key, ordered in maintainer._ordered.items():
            assert ordered == sorted(maintainer._counts[key])
        rebuilt = build_reference_synopsis(doc, None, config)
        assert synopsis_to_dict(maintainer.synopsis) == synopsis_to_dict(rebuilt)
