"""The relative structure columns under splices.

The store keeps subtree sizes and parent gaps; ``parent``,
``first_child``, ``next_sibling`` and ``post`` are derived from them.
These tests pin the derived columns to a fresh freeze after random
splice sequences and to their values before the layout changed, check
that the update hot path never derives a bulk column, and count the
entries a splice rewrites.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import build_reference_synopsis
from repro.core.serialization import synopsis_to_dict
from repro.datasets import generate_imdb, generate_xmark
from repro.update import (
    DeleteSubtree,
    IncrementalMaintainer,
    InsertSubtree,
    ValueChange,
    apply_update,
    apply_update_tree,
)
from repro.xmltree.columnar import ColumnarDocument, freeze, ingest_string
from repro.xmltree.parser import parse_string
from repro.xmltree.serializer import serialize

THRESHOLD = 2
DERIVED = ("parent", "first_child", "next_sibling", "post", "level")

#: element indexes (preorder): 0 r, 1 a, 2 b, 3 c, 4 d, 5 d, 6 c, 7 d,
#: 8 b, 9 c, 10 d, 11 a, 12 b, 13 c, 14 d, 15 z
NESTED = (
    "<r>"
    "<a><b><c><d>1</d><d>2</d></c><c><d>3</d></c></b><b><c><d>4</d></c></b></a>"
    "<a><b><c><d>5</d></c></b></a>"
    "<z>tail</z>"
    "</r>"
)
FRAGMENTS = (
    "<d>9</d>",
    "<b><c><d>8</d><d>9</d></c></b>",
    '<c k="v"><d>6</d></c>',
    "<z>more words here</z>",
)


def _assert_same_structure(doc, oracle):
    assert len(doc) == len(oracle)
    for name in ("size", "parent_gap") + DERIVED:
        assert list(getattr(doc, name)) == list(getattr(oracle, name)), name


# -- random splice sequences ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=0, max_value=1000),
            st.sampled_from(FRAGMENTS),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_random_splices_keep_derived_columns_equal_to_a_freeze(steps):
    doc = ingest_string(NESTED, text_word_threshold=THRESHOLD)
    twin = parse_string(NESTED, text_word_threshold=THRESHOLD)
    for insert, a, b, fragment in steps:
        size = len(doc)
        if insert or size == 1:
            parent = a % size
            position = b % (sum(1 for _ in doc.children(parent)) + 1)
            op = InsertSubtree(parent, position, fragment)
        else:
            op = DeleteSubtree(1 + a % (size - 1))
        apply_update(doc, op, THRESHOLD)
        apply_update_tree(twin, op, THRESHOLD)
        _assert_same_structure(doc, freeze(twin))


# -- the hot path derives nothing ----------------------------------------------


def _refuse(self, name):
    raise AssertionError(f"derived {name!r} on the update path")


#: A third d beside rows 4 and 5 takes the delta path, and so does
#: cutting it again.
THIRD_D = InsertSubtree(3, 2, "<d>9</d>")


@pytest.mark.parametrize(
    "ops",
    [
        [THIRD_D],
        [THIRD_D, DeleteSubtree(6)],
        [ValueChange(4, "17")],
        [ValueChange(15, "other")],
    ],
    ids=["insert", "delete", "numeric-change", "string-change"],
)
def test_localized_ops_derive_no_bulk_column(monkeypatch, ops):
    doc = ingest_string(NESTED, text_word_threshold=THRESHOLD)
    maintainer = IncrementalMaintainer(doc, None, text_word_threshold=THRESHOLD)
    maintainer.apply_all(ops[:-1])
    passes = maintainer.stats.class_passes
    doc.drop_derived()
    with monkeypatch.context() as patch:
        patch.setattr(ColumnarDocument, "_derive", _refuse)
        maintainer.apply(ops[-1])
    assert maintainer.stats.class_passes == passes  # no whole-document pass
    rebuilt = build_reference_synopsis(doc, None)
    assert synopsis_to_dict(maintainer.synopsis) == synopsis_to_dict(rebuilt)


# -- splice work -----------------------------------------------------------------


def test_rows_relinked_counts_ancestors_and_their_children_past_the_splice():
    doc = ingest_string(NESTED, text_word_threshold=THRESHOLD)
    twin = parse_string(NESTED, text_word_threshold=THRESHOLD)
    maintainer = IncrementalMaintainer(doc, None, text_word_threshold=THRESHOLD)
    # A d between rows 4 and 5: sizes of the ancestors 3, 2, 1, 0, and
    # gaps of the rows past the splice whose parent is one of them: 5
    # (under 3), 6 (under 2), 8 (under 1), 11 and 15 (under 0).
    # Then cutting the c at row 7 (holding row 8): sizes of 2, 1, 0,
    # and the gaps of 9 (under 1), then 12 and 16 (under 0).  A value
    # change moves no row.
    for op, relinked in (
        (InsertSubtree(3, 1, "<d>7</d>"), 4 + 5),
        (DeleteSubtree(7), 9 + 3 + 3),
        (ValueChange(4, "3"), 15),
    ):
        maintainer.apply(op)
        apply_update_tree(twin, op, THRESHOLD)
        assert maintainer.stats.rows_relinked == relinked
    assert maintainer.stats.snapshot()["rows_relinked"] == 15
    _assert_same_structure(doc, freeze(twin))


# -- the derived columns of a fresh ingest ------------------------------------

#: sha256 of each derived column's bytes, recorded while the store kept
#: them as columns of their own.
PINS = {
    "xmark": {
        "parent": "e9a4a9165d4e0319e8003379304eda6765e53f6003ba06f4f5a4270260c3db4f",
        "first_child": "9c7348036d841befc54e9595d2778409826e0491dd325bfc19fd83f9619f9818",
        "next_sibling": "66cf54fb75a57301ed0fd2f51ddf11171fbce94f61f08dc3b2bee2a814cc2a46",
        "post": "577cfb4af4a85e77b656beef49a42d7da2dee23dce0686d8cf2469596ad82dd3",
    },
    "imdb": {
        "parent": "528baa8d27d8c5d1c2260ac53f71d829c3f5304c592c30d236590af4936acb1a",
        "first_child": "eb1dd5a8a064af76819fd15225b894d48ca6ef233d9ac2ad19450ebe8a245c09",
        "next_sibling": "234a0489cfb1d2034235375729621693991576b4e38b2fbe409679dd05993e3d",
        "post": "cc4279c0d4a28bfc0d6da8a148f6f25c2362fc0bd29c7aed08741d45e270c17d",
    },
}


@pytest.mark.parametrize(
    "name, dataset",
    [
        ("xmark", lambda: generate_xmark(scale=0.2)),
        ("imdb", lambda: generate_imdb(scale=0.1)),
    ],
)
def test_derived_columns_keep_their_pinned_bytes(name, dataset):
    doc = ingest_string(serialize(dataset().tree))
    for column, digest in PINS[name].items():
        assert hashlib.sha256(getattr(doc, column).tobytes()).hexdigest() == digest
