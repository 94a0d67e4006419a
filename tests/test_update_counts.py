"""Summaries maintained from per-cluster value counts.

Every summarized cluster keeps its value counts: NUMERIC value ->
count, TEXT term -> member texts holding it (STRING: the substring
counts its PST pruned away, see ``test_update_strings``).  Updates move
them by the rows they cut or splice in, so a localized update never
re-reads a cluster's other members.  After a delete, later TEXT
clusters whose term ids only moved take their old encoding through the
id map instead of re-encoding.  Every test pins the result to a
rebuild.
"""

from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import build_reference_synopsis
from repro.core.serialization import synopsis_to_dict
from repro.update import (
    DeleteSubtree,
    IncrementalMaintainer,
    InsertSubtree,
    ValueChange,
    enforce_summary_budget,
)
from repro.values.ebth import EndBiasedTermHistogram
from repro.values.histogram import Histogram
from repro.values.pst import PrunedSuffixTree
from repro.values.rle import RunLengthBitmap
from repro.values.summary import SummaryConfig
from repro.values.termvector import TermCentroid, Vocabulary
from repro.xmltree.columnar import KIND_NUMERIC, KIND_STRING, KIND_TEXT, ingest_string

THRESHOLD = 2

TERMS = ["alpha", "beta", "gamma", "delta", "omega", "zeta", "theta"]
TEXTS = st.lists(st.sampled_from(TERMS), min_size=2, max_size=4, unique=True).map(
    " ".join
)
NAMES = st.text(alphabet="abcdef", min_size=1, max_size=8)
PRICES = st.integers(min_value=0, max_value=40)


def _record(price, name, text):
    return f"<rec><price>{price}</price><name>{name}</name><desc>{text}</desc></rec>"


#: Three TEXT clusters in build order (record descriptions, notes, the
#: memo) over one small term set, so deletes remove terms, move their
#: first occurrence to a later cluster and permute ids.
RECORDS = (
    "<doc><recs>"
    + _record(3, "abc", "alpha beta gamma")
    + _record(7, "bcd", "beta delta omega")
    + _record(3, "cde", "gamma zeta")
    + "</recs><notes><note>delta theta</note><note>omega alpha</note></notes>"
    "<memo>zeta theta beta</memo></doc>"
)


def _maintainer(xml=RECORDS, budget=None):
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


def _assert_counts(maintainer):
    """Stored counts equal a fresh count over each cluster's members."""
    doc = maintainer.doc
    fresh, strings = {}, {}
    for index, key in enumerate(maintainer._classes):
        kind = doc.value_kind[index]
        if kind == KIND_NUMERIC:
            fresh.setdefault(key, Counter())[doc.value(index)] += 1
        elif kind == KIND_TEXT:
            fresh.setdefault(key, Counter()).update(doc.value(index))
        elif kind == KIND_STRING:
            strings.setdefault(key, []).append(doc.value(index))
    assert {key: dict(counts) for key, counts in maintainer._counts.items()} == {
        key: dict(counts) for key, counts in fresh.items()
    }
    assert set(maintainer._dropped) == set(strings)
    depth = SummaryConfig().pst_max_depth
    for key, values in strings.items():
        kept = maintainer.synopsis.nodes[key].vsumm.pst.counts
        full = PrunedSuffixTree.from_strings(values, max_depth=depth).counts
        assert {**kept, **maintainer._dropped[key]} == full


def _replayed(maintainer):
    """Each TEXT cluster's histogram from its members' texts, encoded in
    build order on a fresh vocabulary."""
    doc = maintainer.doc
    texts = {key: [] for key in maintainer._text}
    for index, key in enumerate(maintainer._classes):
        if key in texts:
            texts[key].append(doc.value(index))
    vocabulary = Vocabulary()
    return {
        key: EndBiasedTermHistogram.from_centroid(
            TermCentroid.from_term_sets(values), vocabulary
        )
        for key, values in texts.items()
    }


def _same_histogram(left, right):
    return (
        list(left.exact.items()) == list(right.exact.items())
        and left.bitmap == right.bitmap
        and (left.bucket_average, left.bucket_member_count, left.count)
        == (right.bucket_average, right.bucket_member_count, right.count)
    )


def _count_encodes(monkeypatch):
    calls = []
    encode = EndBiasedTermHistogram.from_centroid.__func__

    def counting(cls, centroid, vocabulary, exact_terms=None):
        calls.append(centroid)
        return encode(cls, centroid, vocabulary, exact_terms)

    monkeypatch.setattr(EndBiasedTermHistogram, "from_centroid", classmethod(counting))
    return calls


# -- random streams ------------------------------------------------------------


def _op(doc, choice, pick, price, name, text):
    """Decode one drawn op against the current document."""
    labelled = {}
    for index in range(len(doc)):
        labelled.setdefault(doc.label(index), []).append(index)
    records, notes = labelled.get("rec", []), labelled.get("note", [])
    if choice == "insert":
        if pick % 3 == 0:
            parent = labelled["notes"][0]
            return InsertSubtree(parent, pick % (len(notes) + 1), f"<note>{text}</note>")
        return InsertSubtree(
            labelled["recs"][0], pick % (len(records) + 1), _record(price, name, text)
        )
    if choice == "delete" and records + notes:
        victims = records + notes
        return DeleteSubtree(victims[pick % len(victims)])
    label, value = {
        "price": ("price", str(price)),
        "name": ("name", name),
        "text": ("desc", text),
    }.get(choice, ("memo", text))
    targets = labelled.get(label) or labelled["memo"]
    return ValueChange(targets[pick % len(targets)], value)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "delete", "price", "name", "text", "memo"]),
        st.integers(min_value=0, max_value=60),
        PRICES,
        NAMES,
        TEXTS,
    ),
    min_size=1,
    max_size=12,
)


@given(ops=OPS, budget=st.sampled_from([None, 60]))
@settings(max_examples=60, deadline=None)
def test_stored_counts_track_random_streams(ops, budget):
    maintainer = _maintainer(budget=budget)
    _assert_counts(maintainer)
    for drawn in ops:
        maintainer.apply(_op(maintainer.doc, *drawn))
        _assert_counts(maintainer)
        _assert_rebuilt(maintainer, budget)


@given(ops=OPS)
@settings(max_examples=20, deadline=None)
def test_wavelet_summaries_track_random_streams(ops):
    doc = ingest_string(RECORDS, text_word_threshold=THRESHOLD)
    config = SummaryConfig(numeric_summary="wavelet")
    maintainer = IncrementalMaintainer(doc, None, config, text_word_threshold=THRESHOLD)
    for drawn in ops:
        maintainer.apply(_op(maintainer.doc, *drawn))
        rebuilt = build_reference_synopsis(
            maintainer.doc, None, SummaryConfig(numeric_summary="wavelet")
        )
        assert synopsis_to_dict(maintainer.synopsis) == synopsis_to_dict(rebuilt)


# -- localized updates read no other member ---------------------------------------


@pytest.mark.parametrize(
    "op",
    [
        InsertSubtree(1, 1, _record(9, "fab", "theta zeta alpha")),
        DeleteSubtree(6),
        ValueChange(3, "31"),
        ValueChange(9, "alpha zeta omega"),
    ],
    ids=["insert", "delete", "price-change", "text-change"],
)
def test_localized_updates_never_gather(monkeypatch, op):
    maintainer = _maintainer()

    def scan(*args, **kwargs):
        raise AssertionError("a localized update re-read a cluster's members")

    monkeypatch.setattr(IncrementalMaintainer, "_gather", scan)
    monkeypatch.setattr(TermCentroid, "from_term_sets", scan)
    result = maintainer.apply(op)
    assert result["path"] in ("localized", "summary-local")
    assert maintainer.stats.class_passes == 1
    monkeypatch.undo()
    _assert_counts(maintainer)
    _assert_rebuilt(maintainer)


# -- TEXT remaps after a delete ------------------------------------------------------


#: Three TEXT clusters: item descriptions (element 7 holds ``omega``, a
#: term no other text has), notes, then memos.  Element indexes: 0 doc,
#: 1 items, 2 item, 3 desc, 4 item, 5 desc, 6 item, 7 desc, 8 notes,
#: 9 note, 10 memo.
UNIQUE = (
    "<doc><items>"
    "<item><desc>alpha beta gamma</desc></item>"
    "<item><desc>beta gamma delta</desc></item>"
    "<item><desc>alpha delta omega</desc></item>"
    "</items>"
    "<notes><note>epsilon zeta alpha</note></notes>"
    "<memo>theta iota beta</memo>"
    "</doc>"
)


def test_delete_of_a_unique_term_remaps_later_clusters(monkeypatch):
    maintainer = _maintainer(UNIQUE)
    before = {key: maintainer.synopsis.nodes[key].vsumm for key in maintainer._text}
    encodes = _count_encodes(monkeypatch)
    result = maintainer.apply(DeleteSubtree(6))
    assert result["path"] == "localized"
    # The descriptions re-encode without ``omega``; the notes and the
    # memo keep their encodings with their own terms one id down.
    assert len(encodes) == 1
    assert maintainer.stats.text_remaps == 2
    assert maintainer.stats.text_encodes - maintainer.stats.text_remaps == 1
    monkeypatch.undo()
    replayed = _replayed(maintainer)
    for key in maintainer._text[1:]:
        summary = maintainer.synopsis.nodes[key].vsumm
        assert summary is not before[key]
        assert _same_histogram(summary.ebth, replayed[key])
    _assert_counts(maintainer)
    _assert_rebuilt(maintainer)


#: Element indexes: 0 doc, 1 items, 2 item, 3 desc, 4 item, 5 desc,
#: 6 notes, 7 note, 8 memo, 9 tail.  Deleting element 4 removes
#: ``omega`` from the descriptions; the note then interns it after
#: ``beta``, which swaps the two in the memo.
MOVED = (
    "<doc><items>"
    "<item><desc>alpha gamma</desc></item>"
    "<item><desc>alpha omega</desc></item>"
    "</items>"
    "<notes><note>beta omega</note></notes>"
    "<memo>beta omega delta</memo>"
    "<tail>beta delta epsilon</tail>"
    "</doc>"
)


def test_moved_term_re_encodes_its_holders_and_remaps_the_rest(monkeypatch):
    maintainer = _maintainer(MOVED)
    encodes = _count_encodes(monkeypatch)
    maintainer.apply(DeleteSubtree(4))
    # Descriptions (changed), the note (re-interns ``omega``) and the
    # memo (its ids permute) re-encode; the tail's ids only move.
    assert len(encodes) == 3
    assert maintainer.stats.text_remaps == 1
    monkeypatch.undo()
    tail = maintainer._text[-1]
    assert _same_histogram(
        maintainer.synopsis.nodes[tail].vsumm.ebth, _replayed(maintainer)[tail]
    )
    _assert_counts(maintainer)
    _assert_rebuilt(maintainer)


def test_term_moving_earlier_re_encodes_every_later_cluster(monkeypatch):
    maintainer = _maintainer(MOVED)
    encodes = _count_encodes(monkeypatch)
    # ``epsilon`` was first interned by the tail; now the descriptions
    # intern it, so no later cluster keeps its old id order.
    maintainer.apply(ValueChange(5, "alpha epsilon"))
    assert len(encodes) == 4
    assert maintainer.stats.text_remaps == 0
    monkeypatch.undo()
    _assert_rebuilt(maintainer)


@pytest.mark.parametrize("budget", [40, 64])
def test_remapped_compressed_summaries_equal_a_rebuild(budget):
    maintainer = _maintainer(UNIQUE, budget)
    maintainer.apply(DeleteSubtree(6))
    _assert_rebuilt(maintainer, budget)
    maintainer.apply(InsertSubtree(1, 0, "<item><desc>omega alpha iota</desc></item>"))
    _assert_rebuilt(maintainer, budget)


#: Element indexes: 0 doc, 1 items, 2 item, 3 desc, 4 item, 5 desc,
#: 6 memo.  The memo holds ids 0-1 (``alpha``, ``beta``) and 3-10: two
#: runs, which become one once deleting element 4 removes ``omega`` (2).
MERGED = (
    "<doc><items>"
    "<item><desc>alpha beta</desc></item>"
    "<item><desc>alpha omega</desc></item>"
    "</items>"
    "<memo>alpha beta gamma delta epsilon zeta eta theta iota kappa</memo>"
    "</doc>"
)


#: Element indexes: 0 doc, 1 items, 2 item, 3 desc, 4 item, 5 desc,
#: 6 notes, 7 note, 8 memo.  The memo holds ids 3-4 (``beta``,
#: ``gamma``): one run, 28 bytes.  Deleting element 4 removes ``delta``
#: (1) from the descriptions; the note re-interns it between the two,
#: which splits the memo's run and takes it to 32 bytes.
SPLIT = (
    "<doc><items>"
    "<item><desc>alpha zeta</desc></item>"
    "<item><desc>alpha delta</desc></item>"
    "</items>"
    "<notes><note>beta delta gamma</note></notes>"
    "<memo>beta gamma</memo>"
    "</doc>"
)


@pytest.mark.parametrize(
    "xml, budget, remaps, runs",
    [
        # 10 exact terms and 2 runs take 96 bytes, and 62 needs two
        # 4-term demotions; with one run 92 bytes need only one, so a
        # remap of the compressed memo would keep one demotion too many.
        pytest.param(MERGED, None, 1, (2, 1), id="merged"),
        pytest.param(MERGED, 62, 0, (2, 1), id="merged-compressed"),
        # The uncompressed memo remaps, and at 32 bytes it then
        # compresses as a rebuild's does.
        pytest.param(SPLIT, None, 1, (1, 2), id="split"),
        pytest.param(SPLIT, 28, 1, (1, 2), id="split-over-budget"),
    ],
)
def test_remap_changing_the_run_count_equals_a_rebuild(xml, budget, remaps, runs):
    maintainer = _maintainer(xml, budget)
    memo = maintainer.synopsis.nodes[maintainer._text[-1]].vsumm.ebth
    assert memo.bitmap.run_count == runs[0]
    maintainer.apply(DeleteSubtree(4))
    assert maintainer.stats.text_remaps == remaps
    assert maintainer.synopsis.nodes[maintainer._text[-1]].vsumm.ebth.bitmap.run_count == runs[1]
    _assert_rebuilt(maintainer, budget)


# -- the constructors ----------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=200),
    st.integers(min_value=1, max_value=12),
)
def test_histogram_from_counts_equals_from_values(values, buckets):
    histogram = Histogram.from_counts(Counter(values), buckets)
    assert histogram.buckets == Histogram.from_values(values, buckets).buckets
    assert len(histogram.buckets) <= buckets
    for bucket in histogram.buckets:
        assert bucket.count == sum(bucket.lo <= value <= bucket.hi for value in values)
    assert histogram.total == len(values)


@given(st.sets(st.integers(min_value=0, max_value=40)), st.data())
def test_bitmap_remap_equals_rebuilding_from_mapped_ids(ids, data):
    # Strictly increasing on ``ids``; a position outside them may map
    # where its predecessor does (it left), closing a gap.
    steps = data.draw(st.lists(st.integers(min_value=0, max_value=2), min_size=41, max_size=41))
    mapping = list(
        accumulate(max(step, 1) if at in ids else step for at, step in enumerate(steps))
    )
    bitmap = RunLengthBitmap.from_ids(ids)
    assert bitmap.remapped(mapping) == RunLengthBitmap.from_ids(mapping[i] for i in ids)


def test_bitmap_remap_merges_runs_a_removed_id_kept_apart():
    bitmap = RunLengthBitmap.from_ids([0, 1, 3, 4])
    assert bitmap.remapped([0, 1, 2, 2, 3]).runs == ((0, 3),)


def test_histogram_remap_keeps_the_ranked_order():
    vocabulary = Vocabulary()
    centroid = TermCentroid.from_term_sets(
        [frozenset({"a", "c"}), frozenset({"c", "d"}), frozenset({"a", "d", "e"})]
    )
    vocabulary.intern("b")  # id 0, which the remap removes
    ebth = EndBiasedTermHistogram.from_centroid(centroid, vocabulary)
    fresh = EndBiasedTermHistogram.from_centroid(centroid, Vocabulary())
    moved = ebth.remapped([None, 0, 1, 2, 3])
    assert _same_histogram(moved, fresh)
