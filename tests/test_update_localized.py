"""Localized maintenance: work confined to what an update changed.

Splices rewrite only the spliced rows, the subtree sizes of their
ancestors and the parent gaps of those ancestors' children past the
splice; TEXT summaries re-encode only until the shared vocabulary is
back in its old state, PSTs count each distinct string once, and the
localized path patches the live synopsis nodes.
Each test pins the result to what a rebuild or a fresh freeze gives.
"""

import pytest

from repro.check.oracles import apply_update_tree
from repro.core.reference import build_reference_synopsis
from repro.core.serialization import synopsis_to_dict
from repro.update import (
    DeleteSubtree,
    IncrementalMaintainer,
    InsertSubtree,
    ValueChange,
    apply_update,
)
from repro.values.pst import PrunedSuffixTree
from repro.xmltree.columnar import freeze, ingest_string
from repro.xmltree.parser import parse_string

THRESHOLD = 2

#: element indexes (preorder): 0 r, 1 a, 2 b, 3 c, 4 d, 5 d, 6 c, 7 d,
#: 8 b, 9 c, 10 d, 11 a, 12 b, 13 c, 14 d, 15 z
NESTED = (
    "<r>"
    "<a><b><c><d>1</d><d>2</d></c><c><d>3</d></c></b><b><c><d>4</d></c></b></a>"
    "<a><b><c><d>5</d></c></b></a>"
    "<z>tail</z>"
    "</r>"
)
BRANCH = "<b><c><d>8</d><d>9</d></c></b>"

SPLICES = {
    "insert-first": InsertSubtree(1, 0, BRANCH),
    "insert-middle": InsertSubtree(1, 1, BRANCH),
    "insert-appended": InsertSubtree(1, 2, BRANCH),
    "insert-appended-to-root": InsertSubtree(0, 3, BRANCH),
    "delete-first-child": DeleteSubtree(2),
    "delete-middle-child": DeleteSubtree(11),
    "delete-last-child": DeleteSubtree(15),
    "insert-three-deep": InsertSubtree(3, 1, "<d>7</d>"),
    "delete-three-deep": DeleteSubtree(6),
}


def _assert_columns_match(doc, oracle):
    assert len(doc) == len(oracle)
    for name in ("parent", "first_child", "next_sibling", "post", "level"):
        assert list(getattr(doc, name)) == list(getattr(oracle, name)), name
    for index in range(len(doc)):
        assert doc.label_path(index) == oracle.label_path(index), index
        assert doc.value(index) == oracle.value(index), index


@pytest.mark.parametrize("name", list(SPLICES))
def test_splice_columns_equal_a_fresh_freeze(name):
    doc = ingest_string(NESTED, text_word_threshold=THRESHOLD)
    twin = parse_string(NESTED, text_word_threshold=THRESHOLD)
    op = SPLICES[name]
    apply_update(doc, op, THRESHOLD)
    apply_update_tree(twin, op, THRESHOLD)
    _assert_columns_match(doc, freeze(twin))


def test_splice_sequence_keeps_columns_equal():
    doc = ingest_string(NESTED, text_word_threshold=THRESHOLD)
    twin = parse_string(NESTED, text_word_threshold=THRESHOLD)
    for op in (
        InsertSubtree(3, 2, "<d>6</d>"),
        InsertSubtree(0, 0, BRANCH),
        DeleteSubtree(9),
        InsertSubtree(1, 1, BRANCH),
        DeleteSubtree(1),
        InsertSubtree(0, 3, BRANCH),
    ):
        apply_update(doc, op, THRESHOLD)
        apply_update_tree(twin, op, THRESHOLD)
        _assert_columns_match(doc, freeze(twin))


# -- TEXT re-encoding ----------------------------------------------------------

#: Three TEXT clusters in build order: item descriptions (element 3
#: holds ``omega``, a term no other text has), notes, then memos.
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
ITEM = "<item><desc>beta gamma delta</desc></item>"


def _maintainer():
    doc = ingest_string(TEXTS, text_word_threshold=THRESHOLD)
    return IncrementalMaintainer(doc, None, text_word_threshold=THRESHOLD)


def _assert_rebuilt(maintainer):
    rebuilt = build_reference_synopsis(maintainer.doc, None)
    assert synopsis_to_dict(maintainer.synopsis) == synopsis_to_dict(rebuilt)


def test_item_clone_reencodes_only_the_changed_cluster():
    maintainer = _maintainer()
    assert maintainer.stats.text_encodes == 0  # construction is not counted
    # A copy of the second item after it: the description cluster's
    # centroid moves, but it interns the same terms in the same order.
    result = maintainer.apply(InsertSubtree(1, 2, ITEM))
    assert result["path"] == "localized"
    assert maintainer.stats.class_passes == 1
    assert maintainer.stats.text_encodes == 1
    assert maintainer.stats.snapshot()["text_encodes"] == 1
    _assert_rebuilt(maintainer)


def test_delete_of_a_unique_term_cascades_bit_exact():
    maintainer = _maintainer()
    # ``omega`` leaves the vocabulary, so every later TEXT cluster's
    # new terms move down one id and re-encode.
    result = maintainer.apply(DeleteSubtree(6))
    assert result["path"] == "localized"
    assert maintainer.stats.text_encodes == 3
    _assert_rebuilt(maintainer)
    # Cloning an item back resyncs again at its own cluster.
    maintainer.apply(InsertSubtree(1, 2, ITEM))
    assert maintainer.stats.text_encodes == 4
    _assert_rebuilt(maintainer)


def test_localized_op_patches_nodes_in_place():
    maintainer = _maintainer()
    synopsis = maintainer.synopsis
    nodes = dict(synopsis.nodes)
    summaries = {key: node.vsumm for key, node in nodes.items()}
    version = synopsis.version
    maintainer.apply(InsertSubtree(1, 2, ITEM))
    assert maintainer.synopsis is synopsis
    assert synopsis.version == version + 1
    assert synopsis.nodes.keys() == nodes.keys()
    changed = {
        key for key, node in synopsis.nodes.items()
        if node.vsumm is not summaries[key]
    }
    assert changed  # the item descriptions' summary
    for key, node in synopsis.nodes.items():
        assert node is nodes[key]
        if key not in changed:
            assert node.vsumm is summaries[key]
    _assert_rebuilt(maintainer)


def test_text_change_on_the_root_patches_its_summary():
    doc = ingest_string("<root>alpha beta gamma</root>", text_word_threshold=THRESHOLD)
    maintainer = IncrementalMaintainer(doc, None, text_word_threshold=THRESHOLD)
    result = maintainer.apply(ValueChange(0, "delta epsilon zeta"))
    assert result["path"] == "localized"
    assert maintainer.stats.text_encodes == 1
    _assert_rebuilt(maintainer)


# -- PST counting ----------------------------------------------------------------


def test_from_strings_counts_duplicates_like_single_insertion():
    strings = ["banana", "band", "banana", "an", "band", "banana", "nab", "an"]
    one_by_one = PrunedSuffixTree(4)
    for string in strings:
        one_by_one.insert_string(string)
    tree = PrunedSuffixTree.from_strings(strings, max_depth=4)
    assert list(tree.counts.items()) == list(one_by_one.counts.items())
    assert tree.string_count == one_by_one.string_count == len(strings)

