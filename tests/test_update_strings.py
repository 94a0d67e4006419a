"""STRING summaries maintained from stored counts.

The maintainer keeps, per STRING cluster, the substring counts pruning
dropped from its PST; with the kept counts they are the cluster's full
counts.  A localized insert or delete, or a same-kind STRING change,
moves them by the strings that entered or left and re-prunes, without
re-counting the other members.  Every test pins the result to a
rebuild.
"""

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
from repro.values.pst import PrunedSuffixTree
from repro.values.summary import StringSummary, SummaryConfig
from repro.xmltree.columnar import KIND_STRING, ingest_string

THRESHOLD = 2

#: Up to 12 symbols over six letters: a cluster of a few such strings
#: has more distinct substrings than its PST's node cap, so pruning
#: drops some, and removals take counts down to zero.
WORDS = st.text(alphabet="abcdef", min_size=1, max_size=12)


def _person(name, city):
    return f"<person><name>{name}</name><city>{city}</city></person>"


#: element indexes (preorder): 0 root, 1 person, 2 name, 3 city,
#: 4 person, 5 name, 6 city, 7 person, 8 name, 9 city
PEOPLE = (
    "<root>"
    + _person("abcabdcadbba", "dabcc")
    + _person("bcdadcbbadca", "dabcdcbaadcb")
    + _person("abcabdcadbba", "cc")
    + "</root>"
)


def _maintainer(budget=None):
    doc = ingest_string(PEOPLE, text_word_threshold=THRESHOLD)
    return IncrementalMaintainer(
        doc, None, text_word_threshold=THRESHOLD, max_summary_bytes=budget
    )


def _assert_rebuilt(maintainer, budget=None):
    rebuilt = build_reference_synopsis(maintainer.doc, None, SummaryConfig())
    if budget is not None:
        for node in rebuilt:
            node.vsumm = enforce_summary_budget(node.vsumm, budget)
    assert synopsis_to_dict(maintainer.synopsis) == synopsis_to_dict(rebuilt)


def _assert_full_counts(maintainer):
    """Kept plus dropped counts are each STRING cluster's full counts."""
    doc = maintainer.doc
    classes = maintainer._classes
    depth = SummaryConfig().pst_max_depth
    clusters = {}
    for index, key in enumerate(classes):
        if doc.value_kind[index] == KIND_STRING:
            clusters.setdefault(key, []).append(doc.value(index))
    assert set(maintainer._dropped) == set(clusters)
    for key, strings in clusters.items():
        pst = maintainer.synopsis.nodes[key].vsumm.pst
        full = PrunedSuffixTree.from_strings(strings, max_depth=depth)
        assert {**pst.counts, **maintainer._dropped[key]} == full.counts
        assert pst.string_count == full.string_count


def _op(doc, choice, pick, name, city):
    """Decode one drawn op against the current document."""
    people = [i for i in range(len(doc)) if doc.label(i) == "person"]
    strings = [i for i in range(len(doc)) if doc.value_kind[i] == KIND_STRING]
    if choice == "insert" or not people:
        return InsertSubtree(0, pick % (len(people) + 1), _person(name, city))
    if choice == "delete":
        return DeleteSubtree(people[pick % len(people)])
    return ValueChange(strings[pick % len(strings)], name)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "set_value", "set_value"]),
        st.integers(min_value=0, max_value=50),
        WORDS,
        WORDS,
    ),
    min_size=1,
    max_size=12,
)


@given(ops=OPS, budget=st.sampled_from([None, 120]))
@settings(max_examples=40, deadline=None)
def test_stored_counts_track_random_string_streams(ops, budget):
    maintainer = _maintainer(budget)
    _assert_full_counts(maintainer)
    for drawn in ops:
        maintainer.apply(_op(maintainer.doc, *drawn))
        _assert_full_counts(maintainer)
        _assert_rebuilt(maintainer, budget)


@pytest.mark.parametrize(
    "op",
    [
        InsertSubtree(0, 2, _person("dcbadbcacbda", "abcd")),
        DeleteSubtree(4),
        ValueChange(5, "dddabcadbcab"),
    ],
    ids=["insert", "delete", "name-change"],
)
def test_localized_string_updates_never_recount(monkeypatch, op):
    maintainer = _maintainer()

    def recount(*args, **kwargs):
        raise AssertionError("a localized update re-counted a STRING cluster")

    monkeypatch.setattr(PrunedSuffixTree, "from_strings", recount)
    result = maintainer.apply(op)
    assert result["path"] in ("localized", "summary-local")
    assert maintainer.stats.class_passes == 1
    assert maintainer.stats.string_deltas > 0
    assert maintainer.stats.snapshot()["string_deltas"] > 0
    monkeypatch.undo()
    _assert_full_counts(maintainer)
    _assert_rebuilt(maintainer)


def test_reclassify_rebuilds_and_records_fresh_counts():
    maintainer = _maintainer()
    # A person before the first one: its classes appear first in
    # preorder, so the whole-document up pass runs and STRING clusters
    # are rebuilt (or carried as images) with fresh stored counts.
    maintainer.apply(InsertSubtree(0, 0, _person("ab", "cd")))
    assert maintainer.stats.class_passes == 2
    _assert_full_counts(maintainer)
    _assert_rebuilt(maintainer)
    # A kind flip re-partitions too.
    maintainer.apply(ValueChange(3, "17"))
    _assert_full_counts(maintainer)
    _assert_rebuilt(maintainer)
    assert all(
        isinstance(node.vsumm, StringSummary)
        for key, node in maintainer.synopsis.nodes.items()
        if key in maintainer._dropped
    )
