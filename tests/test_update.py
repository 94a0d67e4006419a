"""Tests for :mod:`repro.update`: ops, columnar mutation, maintenance.

The recurring assertion is the update subsystem's core contract: after
*every* applied op, the in-place-mutated columnar document must equal
``freeze`` of an object-tree twin column for column, and the
incrementally maintained synopsis must equal a rebuild-from-scratch
bit-exactly (``synopsis_to_dict``), with the invariant auditor green.
Edge cases that historically break incremental view maintenance —
inserts at the root and below leaves, deleting the last member of a
label-path class, value-kind flips, int64 overflow, no-op updates —
each get a dedicated test, plus regression coverage for stale
estimation caches and the ``freeze``/``thaw`` round-trip after
mutation.
"""

import asyncio
import json
import random

import pytest

from repro.check import InvariantAuditor, shrink_updates
from repro.check.diffharness import DifferentialHarness, HarnessConfig
from repro.check.oracles import apply_update_tree, tree_preorder
from repro.core.estimation import WorkloadEstimator
from repro.core.estimation.indexes import shared_index
from repro.core.reference import build_reference_synopsis
from repro.core.serialization import synopsis_to_dict
from repro.datasets import generate_xmark
from repro.query import parse_twig
from repro.serve import ServeClient, ServeEngine, SynopsisServer
from repro.update import (
    DeleteSubtree,
    IncrementalMaintainer,
    InsertSubtree,
    UpdateFormatError,
    ValueChange,
    enforce_summary_budget,
    update_from_dict,
    update_to_dict,
    validate_update,
)
from repro.values.summary import SummaryConfig
from repro.xmltree.columnar import freeze, ingest_string, thaw
from repro.xmltree.parser import parse_string
from repro.xmltree.serializer import serialize
from repro.xmltree.tree import XMLTree

THRESHOLD = 2

#: element indexes (preorder):  0 root, 1 item, 2 name, 3 qty,
#: 4 item, 5 name, 6 qty, 7 note
BASE = (
    "<root>"
    "<item><name>alphaword</name><qty>7</qty></item>"
    "<item><name>betaword</name><qty>9</qty></item>"
    "<note>term one two</note>"
    "</root>"
)


def _pair(xml=BASE):
    """A maintainer over the columnar ingest plus an object-tree twin."""
    doc = ingest_string(xml, text_word_threshold=THRESHOLD)
    maintainer = IncrementalMaintainer(doc, None, text_word_threshold=THRESHOLD)
    twin = parse_string(xml, text_word_threshold=THRESHOLD)
    return maintainer, twin


def _assert_columns_match(doc, oracle):
    assert len(doc) == len(oracle)
    for name in ("parent", "first_child", "next_sibling", "post", "level"):
        assert list(getattr(doc, name)) == list(getattr(oracle, name)), name
    for index in range(len(doc)):
        assert doc.label(index) == oracle.label(index), index
        assert doc.label_path(index) == oracle.label_path(index), index
        assert doc.value(index) == oracle.value(index), index


def _check_step(maintainer, twin, op):
    """Apply ``op`` to both substrates and assert full parity."""
    result = maintainer.apply(op)
    apply_update_tree(twin, op, THRESHOLD)
    _assert_columns_match(maintainer.doc, freeze(twin))
    rebuilt = build_reference_synopsis(freeze(twin), None, SummaryConfig())
    assert synopsis_to_dict(maintainer.synopsis) == synopsis_to_dict(rebuilt)
    assert not InvariantAuditor().audit(maintainer.synopsis)
    return result


# -- op encoding and validation ---------------------------------------------


def test_ops_json_round_trip():
    ops = [
        InsertSubtree(2, 0, "<name>x</name>"),
        DeleteSubtree(7),
        ValueChange(3, "hello world there"),
    ]
    for op in ops:
        assert update_from_dict(update_to_dict(op)) == op
        json.dumps(update_to_dict(op))  # must be JSON-serializable


@pytest.mark.parametrize(
    "payload",
    [
        "not a dict",
        {"op": "bogus"},
        {"op": "insert", "parent": "x", "position": 0, "xml": "<a/>"},
        {"op": "insert", "parent": 0, "position": True, "xml": "<a/>"},
        {"op": "insert", "parent": 0, "position": 0, "xml": 7},
        {"op": "insert", "parent": 0, "position": 0, "xml": "<open>"},
        {"op": "delete"},
        {"op": "set_value", "index": 0, "text": None},
    ],
)
def test_update_from_dict_rejects(payload):
    with pytest.raises(UpdateFormatError):
        update_from_dict(payload)


def test_validate_update():
    doc = ingest_string(BASE, text_word_threshold=THRESHOLD)
    assert validate_update(doc, DeleteSubtree(0)) is not None  # root
    assert validate_update(doc, DeleteSubtree(99)) is not None
    assert validate_update(doc, InsertSubtree(99, 0, "<a/>")) is not None
    assert validate_update(doc, InsertSubtree(0, 9, "<a/>")) is not None
    assert validate_update(doc, ValueChange(99, "x")) is not None
    assert validate_update(doc, DeleteSubtree(1)) is None
    assert validate_update(doc, InsertSubtree(0, 3, "<a/>")) is None
    assert validate_update(doc, ValueChange(3, "8")) is None


# -- structural edge cases ---------------------------------------------------


def test_insert_at_root_first_and_last_position():
    maintainer, twin = _pair()
    _check_step(maintainer, twin, InsertSubtree(0, 0, "<note>aa bb cc</note>"))
    _check_step(maintainer, twin, InsertSubtree(0, 4, "<item><qty>4</qty></item>"))


def test_insert_below_a_leaf():
    maintainer, twin = _pair()
    # Element 3 (<qty>7</qty>) is a valued leaf; giving it a child
    # makes it an interior node with a value-typed history.
    _check_step(maintainer, twin, InsertSubtree(3, 0, "<mark>deepword</mark>"))


def test_insert_multi_element_fragment_between_siblings():
    maintainer, twin = _pair()
    fragment = "<item><name>gammaword</name><info><qty>1</qty></info></item>"
    _check_step(maintainer, twin, InsertSubtree(0, 1, fragment))


def test_delete_last_member_of_a_label_path_class():
    maintainer, twin = _pair()
    labels_before = {node.label for node in maintainer.synopsis}
    assert "note" in labels_before
    _check_step(maintainer, twin, DeleteSubtree(7))  # the only <note>
    labels_after = {node.label for node in maintainer.synopsis}
    assert "note" not in labels_after  # the class disappeared cleanly


def test_delete_interior_subtree():
    maintainer, twin = _pair()
    _check_step(maintainer, twin, DeleteSubtree(1))  # first <item> + children


def test_structural_ops_take_the_localized_path():
    maintainer, twin = _pair()
    insert = _check_step(maintainer, twin, InsertSubtree(0, 2, "<note>x y</note>"))
    delete = _check_step(maintainer, twin, DeleteSubtree(4))
    assert insert["path"] == delete["path"] == "localized"
    stats = maintainer.stats
    assert stats.localized_updates == 2
    assert stats.full_recomputes == 1  # construction's, and only that


def test_updates_never_refine_the_whole_document(monkeypatch):
    """After construction, the maintainer only re-keys touched rows."""
    import repro.update.maintainer as maintainer_module

    maintainer, twin = _pair()

    def whole_document_down_pass(*args, **kwargs):
        raise AssertionError("an update ran a whole-document down pass")

    monkeypatch.setattr(maintainer_module, "down_pass", whole_document_down_pass)
    for op in (
        InsertSubtree(0, 1, "<item><name>gammaword</name><qty>3</qty></item>"),
        InsertSubtree(3, 0, "<mark>deepword</mark>"),
        DeleteSubtree(5),
        ValueChange(3, "now three words"),  # kind flip
        ValueChange(2, "other words here"),
        ValueChange(7, "12"),
    ):
        _check_step(maintainer, twin, op)
    assert maintainer.stats.full_recomputes == 1


def _xmark_fragments(tree, rng, count):
    """Serialized copies of random records and leaves of ``tree``."""
    candidates = [
        element
        for element in tree_preorder(tree)[1:]
        if element.label in ("item", "person", "open_auction", "closed_auction")
        or not element.children
    ]
    fragments = []
    for element in rng.sample(candidates, count):
        element.parent.children.remove(element)
        element.parent = None
        fragments.append(serialize(XMLTree(element), declaration=False))
    return fragments


def _xmark_update(doc, rng, fragments):
    """One random op: record/leaf inserts, small deletes, value changes."""
    size = len(doc)
    roll = rng.random()
    if roll < 0.35:
        parent = doc.parent[rng.randrange(1, size)]
        position = rng.randint(0, sum(1 for _ in doc.children(parent)))
        return InsertSubtree(parent, position, rng.choice(fragments))
    if roll < 0.6:
        for _ in range(20):
            index = rng.randrange(1, size)
            if doc.subtree_end(index) - index <= 64:
                return DeleteSubtree(index)
    index = rng.randrange(size)
    value = doc.value(index)
    flip = rng.random() < 0.2
    if isinstance(value, int) and not flip:
        text = str(rng.randint(0, 5000))
    elif isinstance(value, frozenset) and not flip:
        text = " ".join(rng.sample(sorted(value) * 3, 3))
    elif isinstance(value, str) and not flip:
        text = rng.choice(("alpha", "beta", "gamma")) + str(rng.randrange(99))
    else:
        text = rng.choice(("17", "word", "three plain words", " "))
    return ValueChange(index, text)


def test_xmark_mixed_stream_200_ops_matches_rebuild():
    """200 seeded XMark updates, each followed by a bit-exact rebuild check."""
    dataset = generate_xmark(scale=0.1, seed=11)
    xml = serialize(dataset.tree)
    rng = random.Random(20260402)
    fragments = _xmark_fragments(parse_string(xml), rng, 40)
    # Every summary family and a wildcard path; person names are left
    # out only because their large string summaries dominate rebuilds.
    value_paths = [
        path for path in dataset.value_paths if path[-2:] != ("person", "name")
    ]
    doc = ingest_string(xml)
    maintainer = IncrementalMaintainer(doc, value_paths)
    for step in range(200):
        op = _xmark_update(doc, rng, fragments)
        maintainer.apply(op)
        rebuilt = build_reference_synopsis(doc, value_paths)
        assert synopsis_to_dict(maintainer.synopsis) == synopsis_to_dict(
            rebuilt
        ), f"step {step}: {op}"
    stats = maintainer.stats
    assert stats.updates_applied == 200
    assert stats.full_recomputes == 1
    assert stats.localized_updates + stats.fast_path_updates > 150
    assert stats.summaries_reused > stats.summaries_built


# -- classes moved by delta ---------------------------------------------------

RECORDS = ("item", "person", "open_auction", "closed_auction")
ITEM = "<item><name>gammaword</name><qty>3</qty></item>"


def _no_up_pass(monkeypatch):
    """Make any whole-document up pass inside the maintainer fail."""
    import repro.update.maintainer as maintainer_module

    def whole_document_up_pass(*args, **kwargs):
        raise AssertionError("an update ran a whole-document up pass")

    monkeypatch.setattr(maintainer_module, "up_pass", whole_document_up_pass)


def _record_update(doc, rng, kind, label):
    """One op shaped like the serve-update benchmark's record stream.

    An insert clones a record beside itself at a seeded sibling
    position, a delete removes one of several records with its label,
    and a value change rewrites a ``price`` or ``name`` with a value of
    the same kind.
    """
    if kind == "set_value":
        indexes = [i for i in range(len(doc)) if doc.label(i) == label]
        index = rng.choice(indexes)
        path = doc.label_path(index)
        donor = rng.choice([i for i in indexes if doc.label_path(i) == path])
        text = str(rng.randint(1, 20000)) if label == "price" else doc.value(donor)
        return ValueChange(index, text)
    index = rng.choice([i for i in range(len(doc)) if doc.label(i) == label])
    if kind == "delete":
        return DeleteSubtree(index)
    parent = doc.parent[index]
    position = rng.randint(0, sum(1 for _ in doc.children(parent)))
    return InsertSubtree(parent, position, serialize(thaw(doc, index)))


def test_record_stream_moves_classes_by_delta():
    """Record clones, record deletes and same-kind value changes on
    XMark: bit-exact after every op, and almost no up pass."""
    doc = ingest_string(serialize(generate_xmark(scale=0.1, seed=7).tree))
    maintainer = IncrementalMaintainer(doc)
    rng = random.Random(18)
    for step in range(48):
        kind = ("insert", "delete", "set_value", "set_value")[step % 4]
        label = ("price", "name")[step % 2] if kind == "set_value" else RECORDS[
            step // 4 % 4
        ]
        op = _record_update(doc, rng, kind, label)
        maintainer.apply(op)
        rebuilt = build_reference_synopsis(doc, None)
        assert synopsis_to_dict(maintainer.synopsis) == synopsis_to_dict(
            rebuilt
        ), f"step {step}: {op}"
    stats = maintainer.stats
    assert stats.localized_updates == 24
    # Construction's pass, plus at most a quarter of the 24 structural
    # ops (4 on this stream): deleting the only or the first record of
    # its class, or cloning one ahead of every record of its class,
    # re-derives the classes.
    assert stats.class_passes <= 1 + 6
    assert stats.summaries_reused > stats.summaries_built


def _assert_fell_back(maintainer, twin, op):
    passes = maintainer.stats.class_passes
    _check_step(maintainer, twin, op)
    assert maintainer.stats.class_passes == passes + 1


def test_clone_before_the_first_record_of_its_kind_falls_back():
    maintainer, twin = _pair()
    # Both <item>s share one class; a copy ahead of them moves it.
    _assert_fell_back(maintainer, twin, InsertSubtree(0, 0, ITEM))


def test_deleting_the_first_record_of_a_kind_falls_back():
    maintainer, twin = _pair()
    _assert_fell_back(maintainer, twin, DeleteSubtree(1))  # item 4 remains


def test_fragment_with_a_fresh_label_falls_back():
    maintainer, twin = _pair()
    _assert_fell_back(maintainer, twin, InsertSubtree(0, 3, "<extra>word</extra>"))


def test_leaf_inside_a_shared_class_ancestor_falls_back():
    maintainer, twin = _pair()
    # The new <qty> itself is an interned key, but its parent <item>
    # shares its class with the other <item>, which it now leaves.
    _assert_fell_back(maintainer, twin, InsertSubtree(1, 2, "<qty>3</qty>"))


def test_ancestor_joining_another_class_falls_back():
    # The first <item> is alone in its class, and a second <qty> makes
    # it isomorphic to the other <item>: its new key is already taken.
    maintainer, twin = _pair(
        "<root><item><qty>1</qty></item>"
        "<item><qty>1</qty><qty>2</qty></item></root>"
    )
    _assert_fell_back(maintainer, twin, InsertSubtree(1, 1, "<qty>5</qty>"))
    assert len(maintainer.synopsis) == 3  # root, one item class, qty


def test_clone_beside_and_later_delete_run_no_up_pass(monkeypatch):
    maintainer, twin = _pair()
    _no_up_pass(monkeypatch)
    _check_step(maintainer, twin, InsertSubtree(0, 2, ITEM))  # after both
    _check_step(maintainer, twin, DeleteSubtree(4))  # the second <item>
    assert maintainer.stats.class_passes == 1
    assert maintainer.stats.localized_updates == 2


def test_same_kind_text_change_runs_no_up_pass(monkeypatch):
    maintainer, twin = _pair()
    _no_up_pass(monkeypatch)
    result = _check_step(maintainer, twin, ValueChange(7, "other words here"))
    assert result["path"] == "localized"
    assert maintainer.stats.text_reencodes == 1
    assert maintainer.stats.class_passes == 1


def test_stats_snapshot_lists_every_counter():
    maintainer, _ = _pair()
    snapshot = maintainer.stats.snapshot()
    assert list(snapshot)[:8] == [
        "updates_applied",
        "inserts",
        "deletes",
        "value_changes",
        "fast_path_updates",
        "text_reencodes",
        "full_recomputes",
        "localized_updates",
    ]
    assert snapshot["class_passes"] == 1


# -- value edge cases --------------------------------------------------------


def test_value_kind_flip_numeric_to_text():
    maintainer, twin = _pair()
    result = _check_step(maintainer, twin, ValueChange(3, "now three words"))
    assert result["path"] == "localized"  # a kind flip re-partitions


def test_same_kind_numeric_change_takes_fast_path():
    maintainer, twin = _pair()
    result = _check_step(maintainer, twin, ValueChange(3, "42"))
    assert result["path"] == "summary-local"
    assert maintainer.stats.fast_path_updates == 1


def test_same_kind_text_change_reencodes():
    maintainer, twin = _pair()
    result = _check_step(maintainer, twin, ValueChange(7, "other words here"))
    assert result["path"] == "localized"
    assert maintainer.stats.text_reencodes == 1


def test_int64_overflow_value():
    maintainer, twin = _pair()
    huge = 2**63 + 41
    _check_step(maintainer, twin, ValueChange(3, str(huge)))
    assert maintainer.doc.value(3) == huge  # side-table, not clamped


def test_noop_null_to_null_still_bumps_version():
    maintainer, twin = _pair()
    version = maintainer.synopsis.version
    result = _check_step(maintainer, twin, ValueChange(1, "   "))
    assert result["path"] == "noop"
    assert maintainer.synopsis.version == version + 1


def test_value_removal_then_restore():
    maintainer, twin = _pair()
    _check_step(maintainer, twin, ValueChange(2, " "))  # STRING -> NULL
    _check_step(maintainer, twin, ValueChange(2, "alphaword"))  # NULL -> STRING


# -- estimation-cache invalidation (regression) ------------------------------


def test_version_bump_invalidates_shared_caches():
    maintainer, twin = _pair()
    synopsis = maintainer.synopsis
    workload = WorkloadEstimator([], 40)
    estimator = workload.estimator_for(synopsis)
    index = shared_index(synopsis)
    assert estimator.index is index  # one shared registry entry

    query = parse_twig("//item/name")
    before = estimator.estimate(query)
    invalidations = index.invalidations

    op = InsertSubtree(0, 0, "<item><name>gammaword</name></item>")
    maintainer.apply(op)
    apply_update_tree(twin, op, THRESHOLD)

    # The graft preserved synopsis identity, so both the estimator and
    # the registry entry are reused — and the version bump forces the
    # derived tables to drop on the next estimate.
    assert workload.estimator_for(synopsis) is estimator
    assert shared_index(synopsis) is index
    after = estimator.estimate(query)
    assert index.invalidations == invalidations + 1
    assert after != before

    # The post-update estimate must match a cold estimator over a
    # rebuild — i.e. the cache was not merely dropped but repopulated
    # from the maintained state.
    rebuilt = build_reference_synopsis(freeze(twin), None, SummaryConfig())
    cold = WorkloadEstimator([], 40).estimator_for(rebuilt)
    assert after == cold.estimate(query)


# -- freeze/thaw after in-place mutation -------------------------------------


def test_freeze_thaw_round_trip_after_mutation():
    maintainer, twin = _pair()
    for op in (
        InsertSubtree(0, 1, "<item><name>gammaword</name></item>"),
        DeleteSubtree(7),
        ValueChange(3, "88"),
    ):
        maintainer.apply(op)
        apply_update_tree(twin, op, THRESHOLD)
    doc = maintainer.doc
    refrozen = freeze(thaw(doc))
    _assert_columns_match(doc, refrozen)  # post/level survive the trip
    assert serialize(thaw(doc)) == serialize(twin)


# -- summary budgets ---------------------------------------------------------


def test_budgeted_maintenance_matches_budgeted_rebuild():
    doc = ingest_string(BASE, text_word_threshold=THRESHOLD)
    maintainer = IncrementalMaintainer(
        doc, None, text_word_threshold=THRESHOLD, max_summary_bytes=48
    )
    twin = parse_string(BASE, text_word_threshold=THRESHOLD)
    for op in (
        InsertSubtree(0, 3, "<item><qty>3</qty><qty>5</qty></item>"),
        ValueChange(3, "12"),
        ValueChange(7, "fresh text words"),
    ):
        maintainer.apply(op)
        apply_update_tree(twin, op, THRESHOLD)
    rebuilt = build_reference_synopsis(freeze(twin), None, SummaryConfig())
    for node in rebuilt:
        if node.vsumm is not None:
            node.vsumm = enforce_summary_budget(node.vsumm, 48)
    assert synopsis_to_dict(maintainer.synopsis) == synopsis_to_dict(rebuilt)


# -- the differential update harness -----------------------------------------


def test_update_round_200_ops_bit_exact():
    """The acceptance criterion: 200 seeded random updates, zero drift."""
    harness = DifferentialHarness(
        HarnessConfig(rounds=1, updates_per_round=200)
    )
    report = harness.run_update_round(20060402)
    assert not report.failures
    assert report.queries_checked == 200


def test_shrink_updates_ddmin():
    assert shrink_updates(list(range(20)), lambda seq: 13 in seq) == [13]
    assert shrink_updates(
        list(range(20)), lambda seq: 3 in seq and 17 in seq
    ) == [3, 17]
    # A predicate the input itself satisfies is returned no larger.
    assert shrink_updates([1, 2], lambda seq: len(seq) >= 0) == []


def test_injected_divergence_is_caught_and_shrunk(monkeypatch):
    """A maintainer bug must surface as a shrunk update-divergence."""
    import repro.check.diffharness as dh

    class CorruptingMaintainer(IncrementalMaintainer):
        def apply(self, op):
            result = super().apply(op)
            if result["op"] == "delete":
                self.synopsis.nodes[self.synopsis.root_id].count += 1
            return result

    monkeypatch.setattr(dh, "IncrementalMaintainer", CorruptingMaintainer)
    harness = dh.DifferentialHarness(
        dh.HarnessConfig(rounds=1, updates_per_round=60, shrink_attempts=60)
    )
    report = harness.run_update_round(7)
    assert report.failures
    failure = report.failures[0]
    assert failure.kind == "update-divergence"
    assert failure.shrunk_size is not None
    assert failure.shrunk_size <= failure.document_size
    shrunk_ops = json.loads(failure.shrunk_document)
    assert len(shrunk_ops) == failure.shrunk_size
    assert any(op["op"] == "delete" for op in shrunk_ops)


# -- the serving route -------------------------------------------------------


def test_serve_update_route_end_to_end():
    async def scenario():
        doc = ingest_string(BASE, text_word_threshold=THRESHOLD)
        maintainer = IncrementalMaintainer(
            doc, None, text_word_threshold=THRESHOLD
        )
        engine = ServeEngine(maintainer=maintainer)
        twin = parse_string(BASE, text_word_threshold=THRESHOLD)
        async with SynopsisServer(engine) as server:
            client = ServeClient(server.host, server.port)
            _status, before = await client.estimate({"query": "//item"})
            ops = [
                InsertSubtree(0, 0, "<item><name>newword</name></item>"),
                ValueChange(3, "77"),
            ]
            status, body = await client.request(
                "POST",
                "/update",
                {"updates": [update_to_dict(op) for op in ops]},
            )
            assert status == 200
            assert body["applied"] == 2
            assert body["version"] == engine.synopsis.version
            for op in ops:
                apply_update_tree(twin, op, THRESHOLD)
            rebuilt = build_reference_synopsis(
                freeze(twin), None, SummaryConfig()
            )
            assert synopsis_to_dict(engine.synopsis) == synopsis_to_dict(
                rebuilt
            )
            _status, after = await client.estimate({"query": "//item"})
            assert after["estimate"] == before["estimate"] + 1
            stats = await client.stats()
            assert stats["maintenance"]["updates_applied"] == 2

            status, body = await client.request(
                "POST", "/update", {"updates": [{"op": "bogus"}]}
            )
            assert status == 400
            status, body = await client.request("POST", "/update", {"x": 1})
            assert status == 400
            await client.close()

    asyncio.run(scenario())


def test_serve_static_engine_rejects_updates():
    async def scenario():
        synopsis = build_reference_synopsis(
            ingest_string(BASE, text_word_threshold=THRESHOLD)
        )
        engine = ServeEngine(synopsis)
        async with SynopsisServer(engine) as server:
            client = ServeClient(server.host, server.port)
            status, body = await client.request(
                "POST",
                "/update",
                {"updates": [update_to_dict(DeleteSubtree(1))]},
            )
            assert status == 400
            assert "static synopsis" in body["error"]
            await client.close()

    asyncio.run(scenario())


def test_serve_engine_requires_exactly_one_source():
    with pytest.raises(ValueError):
        ServeEngine()
    doc = ingest_string(BASE, text_word_threshold=THRESHOLD)
    maintainer = IncrementalMaintainer(doc, None, text_word_threshold=THRESHOLD)
    with pytest.raises(ValueError):
        ServeEngine(maintainer.synopsis, maintainer=maintainer)
