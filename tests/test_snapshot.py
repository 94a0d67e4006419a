"""Unit tests for the binary mmap snapshot format.

The contract under test is stronger than "loads without error": a
snapshot round trip must be *bit-exact* against the JSON interchange
form (``synopsis_to_dict`` equality, which compares every float by
value), every value-summary family must survive, degenerate synopses
must round-trip, and corrupt or truncated inputs must surface as
:class:`SynopsisFormatError` — never as a bare ``struct.error`` or an
``IndexError`` escaping the decoder.
"""

import copy
import pickle
import struct
import tracemalloc
import zlib

import pytest

from repro.core import (
    build_xcluster,
    load_synopsis,
    save_synopsis,
    synopsis_to_dict,
)
from repro.core.builder import BuildConfig
from repro.core.estimation import CompiledEstimator
from repro.core.serialization import SynopsisFormatError
from repro.core.snapshot import (
    SNAPSHOT_MAGIC,
    is_snapshot,
    load_snapshot,
    save_snapshot,
    snapshot_to_bytes,
    snapshot_sections,
    synopsis_from_snapshot,
    _pack_sections,
    _put_doubles,
    _put_ints,
    _put_strings,
    _read_strings,
    _Reader,
    _Section,
    _section_table,
    _SEC_EBTH,
    _SEC_HIST,
    _SEC_META,
    _SEC_NODES,
    _SEC_PST,
    _SEC_RETIRED,
    _SEC_VOCAB,
)
from repro.core.synopsis import XClusterSynopsis, text_vocabulary
from repro.query import parse_twig
from repro.values.summary import (
    HistogramSummary,
    StringSummary,
    SummaryConfig,
    TextSummary,
    ValueType,
)


@pytest.fixture(scope="module")
def compressed(request):
    imdb_small = request.getfixturevalue("imdb_small")
    return build_xcluster(
        imdb_small.tree,
        structural_budget=3000,
        value_budget=20000,
        value_paths=imdb_small.value_paths,
        config=BuildConfig(pool_max=500, pool_min=250),
    )


@pytest.fixture(scope="module")
def families():
    """A hand-built synopsis holding every value-summary family."""
    config = SummaryConfig(histogram_buckets=8)
    synopsis = XClusterSynopsis()
    root = synopsis.add_node("root", ValueType.NULL, 1)
    synopsis.root_id = root.node_id
    hist = synopsis.add_node(
        "year",
        ValueType.NUMERIC,
        6,
        HistogramSummary.from_values([1987, 1990, 1990, 2001, 2010, 2024], config),
    )
    pst = synopsis.add_node(
        "title",
        ValueType.STRING,
        4,
        StringSummary.from_values(["alpha", "alps", "beta", "betamax"], config),
    )
    ebth = synopsis.add_node(
        "abstract",
        ValueType.TEXT,
        3,
        TextSummary.from_values(
            [
                frozenset({"xml", "synopsis"}),
                frozenset({"xml", "tree"}),
                frozenset({"histogram"}),
            ],
            config,
        ),
    )
    for node in (hist, pst, ebth):
        synopsis.add_edge(root, node, 1.0)
    synopsis.validate()
    return synopsis


PROBES = (
    "//movie/title",
    "//movie[./year >= 1990]/cast/actor",
    "//movie/title[. contains(St)]",
    "//movie/plot[. ftcontains(be)]",
)


class TestRoundTrip:
    def test_bytes_roundtrip_is_bit_exact(self, compressed):
        expected = synopsis_to_dict(compressed)
        restored = synopsis_from_snapshot(snapshot_to_bytes(compressed))
        assert synopsis_to_dict(restored) == expected

    def test_eager_roundtrip_is_bit_exact(self, compressed):
        restored = synopsis_from_snapshot(
            snapshot_to_bytes(compressed), lazy=False
        )
        assert synopsis_to_dict(restored) == synopsis_to_dict(compressed)

    def test_every_family_roundtrips(self, families):
        expected = synopsis_to_dict(families)
        restored = synopsis_from_snapshot(snapshot_to_bytes(families))
        assert synopsis_to_dict(restored) == expected
        kinds = {
            type(node.vsumm).__name__
            for node in restored
            if node.vsumm is not None
        }
        assert kinds == {
            "HistogramSummary",
            "StringSummary",
            "TextSummary",
        }

    def test_file_roundtrip_via_mmap(self, compressed, tmp_path):
        path = str(tmp_path / "synopsis.snap")
        save_snapshot(compressed, path)
        restored = load_snapshot(path)
        restored.validate()
        assert synopsis_to_dict(restored) == synopsis_to_dict(compressed)

    def test_file_roundtrip_without_mmap(self, compressed, tmp_path):
        path = str(tmp_path / "synopsis.snap")
        save_snapshot(compressed, path)
        restored = load_snapshot(path, use_mmap=False)
        assert synopsis_to_dict(restored) == synopsis_to_dict(compressed)

    def test_estimates_are_bit_exact(self, compressed):
        restored = synopsis_from_snapshot(snapshot_to_bytes(compressed))
        original = CompiledEstimator(compressed)
        reloaded = CompiledEstimator(restored)
        for text in PROBES:
            query = parse_twig(text)
            assert reloaded.estimate(query) == original.estimate(query), text

    def test_load_synopsis_autodetects_snapshots(self, compressed, tmp_path):
        path = str(tmp_path / "either.bin")
        save_snapshot(compressed, path)
        restored = load_synopsis(path)  # JSON entry point, snapshot file
        assert synopsis_to_dict(restored) == synopsis_to_dict(compressed)

    def test_is_snapshot_distinguishes_formats(self, compressed, tmp_path):
        snap = tmp_path / "s.snap"
        jsn = tmp_path / "s.json"
        save_snapshot(compressed, str(snap))
        save_synopsis(compressed, str(jsn))
        assert is_snapshot(str(snap))
        assert not is_snapshot(str(jsn))

    def test_empty_synopsis_roundtrips(self):
        empty = XClusterSynopsis()
        restored = synopsis_from_snapshot(snapshot_to_bytes(empty))
        assert len(restored) == 0
        assert restored.root_id is None
        assert synopsis_to_dict(restored) == synopsis_to_dict(empty)

    def test_single_node_no_summary_roundtrips(self):
        synopsis = XClusterSynopsis()
        node = synopsis.add_node("only", ValueType.NULL, 3)
        synopsis.root_id = node.node_id
        restored = synopsis_from_snapshot(snapshot_to_bytes(synopsis))
        assert synopsis_to_dict(restored) == synopsis_to_dict(synopsis)

    def test_pickle_of_lazy_load_is_bit_exact(self, compressed):
        # The spawn worker pool pickles synopses; deferred summaries
        # must materialize through __getstate__, not vanish.
        restored = synopsis_from_snapshot(snapshot_to_bytes(compressed))
        pickled = pickle.loads(pickle.dumps(restored))
        assert synopsis_to_dict(pickled) == synopsis_to_dict(compressed)


class TestLazyDecoding:
    def test_summaries_defer_until_first_access(self, compressed):
        restored = synopsis_from_snapshot(snapshot_to_bytes(compressed))
        deferred = [n for n in restored if n.summary_deferred]
        assert deferred, "lazy load materialized every summary up front"
        probe = deferred[0]
        assert probe.vsumm is not None  # first access decodes
        assert not probe.summary_deferred

    def test_eager_load_defers_nothing(self, compressed):
        restored = synopsis_from_snapshot(
            snapshot_to_bytes(compressed), lazy=False
        )
        assert not any(node.summary_deferred for node in restored)


def _repack(blob: bytes, section_id: int, edit) -> bytes:
    """``blob`` re-packed by the encoder's section writer after
    ``edit`` has changed one section's raw (inflated) bytes in place."""
    raw = {
        sid: bytearray(_Reader(section).take(section.length))
        for sid, section in _section_table(blob).items()
    }
    edit(raw[section_id])
    return _pack_sections(raw)


def _corrupt_hist_section(blob: bytes) -> bytes:
    """Overwrite a histogram payload's bucket count with nonsense."""
    return _repack(
        blob, _SEC_HIST, lambda hist: struct.pack_into("<Q", hist, 0, 2**60)
    )


class TestCorruption:
    def test_wrong_magic_rejected(self, compressed):
        blob = bytearray(snapshot_to_bytes(compressed))
        blob[0] ^= 0xFF
        with pytest.raises(SynopsisFormatError):
            synopsis_from_snapshot(bytes(blob))

    def test_wrong_version_rejected(self, compressed):
        blob = bytearray(snapshot_to_bytes(compressed))
        blob[len(SNAPSHOT_MAGIC) - 1] ^= 0xFF
        with pytest.raises(SynopsisFormatError):
            synopsis_from_snapshot(bytes(blob))

    def test_empty_input_rejected(self):
        with pytest.raises(SynopsisFormatError):
            synopsis_from_snapshot(b"")

    @pytest.mark.parametrize("keep", [9, 12, 30, 80, 200])
    def test_truncation_never_escapes_as_struct_error(self, compressed, keep):
        blob = snapshot_to_bytes(compressed)
        assert len(blob) > keep
        with pytest.raises(SynopsisFormatError):
            synopsis_from_snapshot(blob[:keep], lazy=False)

    def test_every_truncation_point_is_handled(self, families):
        # Exhaustive for a small synopsis: every proper prefix must
        # either raise SynopsisFormatError at load or (lazy sections)
        # at first summary access — never struct.error / IndexError.
        blob = snapshot_to_bytes(families)
        for keep in range(len(blob)):
            try:
                restored = synopsis_from_snapshot(blob[:keep], lazy=False)
            except SynopsisFormatError:
                continue
            # A prefix that still parses eagerly must be the full blob.
            pytest.fail(f"truncation to {keep} bytes loaded silently")
            del restored

    def test_truncated_file_rejected(self, compressed, tmp_path):
        path = tmp_path / "cut.snap"
        path.write_bytes(snapshot_to_bytes(compressed)[:64])
        with pytest.raises(SynopsisFormatError):
            load_snapshot(str(path))

    def test_corrupt_payload_raises_on_eager_load(self, compressed):
        blob = _corrupt_hist_section(snapshot_to_bytes(compressed))
        with pytest.raises(SynopsisFormatError):
            synopsis_from_snapshot(blob, lazy=False)

    def test_corrupt_payload_raises_at_first_lazy_access(self, compressed):
        blob = _corrupt_hist_section(snapshot_to_bytes(compressed))
        restored = synopsis_from_snapshot(blob)  # structure is intact
        bad = [
            node
            for node in restored
            if node.summary_deferred
            and isinstance(compressed.nodes[node.node_id].vsumm, HistogramSummary)
        ]
        assert bad
        with pytest.raises(SynopsisFormatError):
            bad[0].vsumm
        # The thunk stays parked: every access raises, none degrades
        # to "no summary".
        with pytest.raises(SynopsisFormatError):
            bad[0].vsumm

    def test_corrupt_payload_is_auditable(self, compressed):
        from repro.check import InvariantAuditor

        blob = _corrupt_hist_section(snapshot_to_bytes(compressed))
        restored = synopsis_from_snapshot(blob)
        violations = InvariantAuditor().audit(restored)
        assert any(v.invariant == "summary-decode" for v in violations)

    def test_oversized_node_count_rejected(self, compressed):
        # Point the first NODES column's width and values sky high.
        blob = _repack(
            snapshot_to_bytes(compressed),
            _SEC_NODES,
            lambda nodes: struct.pack_into("<Q", nodes, 0, 2**60),
        )
        with pytest.raises(SynopsisFormatError):
            synopsis_from_snapshot(blob)

    def test_unencodable_synopsis_rejected_at_save(self, families):
        # A count beyond i64 cannot be represented; the encoder must
        # refuse with a format error rather than a struct error.
        oversized = copy.deepcopy(families)
        node = next(iter(oversized))
        node.count = 2**70
        with pytest.raises(SynopsisFormatError):
            snapshot_to_bytes(oversized)


# -- the v2 columnar codec ------------------------------------------------------


def _family_model_bytes(synopsis, family):
    return sum(
        node.vsumm.size_bytes()
        for node in synopsis.valued_nodes()
        if isinstance(node.vsumm, family)
    )


class TestSectionSizes:
    """The shipped bytes track the budgeted model bytes."""

    @pytest.fixture(scope="class")
    def served(self):
        from repro.datasets import generate_xmark

        dataset = generate_xmark(scale=1.0, seed=7)
        return build_xcluster(
            dataset.tree, 16384, 65536, value_paths=dataset.value_paths
        )

    def test_value_sections_within_model_bytes(self, served):
        sections = snapshot_sections(snapshot_to_bytes(served))
        for name, family in (
            ("pst", StringSummary),
            ("ebth", TextSummary),
            ("histogram", HistogramSummary),
        ):
            model = _family_model_bytes(served, family)
            assert model > 0, name
            assert sections[name] <= 1.1 * model, (name, sections[name], model)

    def test_vocabulary_ships_under_its_format_two_bytes(self, served):
        # Format 2 stored the pool as its UTF-8 blob plus a 2-byte end
        # offset per term.
        terms = list(text_vocabulary(served))
        format_two = sum(len(term.encode("utf-8")) + 2 for term in terms)
        shipped = snapshot_sections(snapshot_to_bytes(served))["vocabulary"]
        assert shipped <= 0.7 * format_two, (shipped, format_two)

    def test_section_report_covers_the_file(self, families):
        blob = snapshot_to_bytes(families)
        sections = snapshot_sections(blob)
        assert set(sections) == {
            "meta", "labels", "vocabulary", "nodes", "edges",
            "histogram", "retired", "pst", "ebth",
        }
        assert sum(sections.values()) < len(blob)


def _first_deferred(restored, original, family):
    return next(
        node
        for node in restored
        if node.summary_deferred
        and isinstance(original.nodes[node.node_id].vsumm, family)
    )


class TestCodec:
    def test_version_one_rejected_by_name(self, families, tmp_path):
        blob = bytearray(snapshot_to_bytes(families))
        blob[len(SNAPSHOT_MAGIC) - 1] = 1
        with pytest.raises(SynopsisFormatError, match="version 1"):
            synopsis_from_snapshot(bytes(blob))
        path = tmp_path / "v1.snap"
        path.write_bytes(bytes(blob))
        assert is_snapshot(str(path))
        with pytest.raises(SynopsisFormatError, match="version 1"):
            load_synopsis(str(path))

    def test_version_two_rejected_by_name(self, families):
        blob = bytearray(snapshot_to_bytes(families))
        blob[len(SNAPSHOT_MAGIC) - 1] = 2
        with pytest.raises(SynopsisFormatError, match="version 2"):
            synopsis_from_snapshot(bytes(blob))

    @pytest.mark.parametrize("section_id", [_SEC_PST, _SEC_EBTH, _SEC_HIST])
    def test_corrupt_width_code(self, families, section_id):
        # The first payload (lowest node id) starts its section.
        def corrupt(section):
            section[0] = 3

        blob = _repack(snapshot_to_bytes(families), section_id, corrupt)
        with pytest.raises(SynopsisFormatError, match="width code 3"):
            synopsis_from_snapshot(blob, lazy=False)
        restored = synopsis_from_snapshot(blob)
        family = {_SEC_PST: StringSummary, _SEC_EBTH: TextSummary,
                  _SEC_HIST: HistogramSummary}[section_id]
        node = _first_deferred(restored, families, family)
        with pytest.raises(SynopsisFormatError, match="width code 3"):
            node.vsumm

    @pytest.mark.parametrize("section_id", [_SEC_PST, _SEC_EBTH, _SEC_HIST])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_column_count_disagreeing_with_payload(self, families, section_id, delta):
        # The first header value of every payload here is a column
        # count (PST's is max_depth, so use its node count, the third).
        def miscount(section):
            assert section[0] == 1  # a one-byte header column
            section[1 + (2 if section_id == _SEC_PST else 0)] += delta

        blob = _repack(snapshot_to_bytes(families), section_id, miscount)
        with pytest.raises(SynopsisFormatError):
            synopsis_from_snapshot(blob, lazy=False)
        restored = synopsis_from_snapshot(blob)
        family = {_SEC_PST: StringSummary, _SEC_EBTH: TextSummary,
                  _SEC_HIST: HistogramSummary}[section_id]
        node = _first_deferred(restored, families, family)
        with pytest.raises(SynopsisFormatError):
            node.vsumm

    def test_bytes_left_after_the_columns_rejected(self, families):
        from repro.core.snapshot import _decode_pst_payload, _encode_pst

        summary = next(
            node.vsumm for node in families if isinstance(node.vsumm, StringSummary)
        )
        payload = bytearray()
        _encode_pst(summary, payload)
        payload.append(1)
        with pytest.raises(SynopsisFormatError, match="left over"):
            _decode_pst_payload(_Reader(_Section(bytes(payload), 0, len(payload))))

    def test_retired_summary_kind_rejected(self, families):
        # Kind 7 named the wavelet family's payload section; no decoder
        # reads it any more, so a node carrying it must not load.
        count = len(families)
        kinds_at = 3 * (1 + count)  # ids, labels, types

        def retire(nodes):
            assert nodes[0] == nodes[kinds_at] == 1  # one-byte columns
            row = next(
                row for row in range(count)
                if nodes[kinds_at + 1 + row] == _SEC_HIST
            )
            nodes[kinds_at + 1 + row] = _SEC_RETIRED

        blob = _repack(snapshot_to_bytes(families), _SEC_NODES, retire)
        with pytest.raises(SynopsisFormatError, match="unknown summary kind 7"):
            synopsis_from_snapshot(blob)

    def test_node_count_disagreeing_with_node_table(self, families):
        def miscount(meta):
            assert meta[0] == 1  # one-byte signed meta column
            meta[2] += 1  # node count: root id, then this

        blob = _repack(snapshot_to_bytes(families), _SEC_META, miscount)
        with pytest.raises(SynopsisFormatError):
            synopsis_from_snapshot(blob)

    @pytest.mark.parametrize(
        "values,signed,width",
        [
            ([255], False, 1), ([256], False, 2),
            ([65535], False, 2), ([65536], False, 4),
            ([2**32 - 1], False, 4), ([2**32], False, 8),
            ([2**64 - 1], False, 8),
            ([-128, 127], True, 1), ([-129], True, 2), ([128], True, 2),
            ([-32769], True, 4), ([-(2**63), 2**63 - 1], True, 8),
            ([], False, 1),
        ],
    )
    def test_int_columns_take_the_narrowest_width(self, values, signed, width):
        out = bytearray()
        _put_ints(out, values, signed=signed)
        assert out[0] == width
        assert len(out) == 1 + width * len(values)
        reader = _Reader(_Section(bytes(out), 0, len(out)))
        assert list(reader.ints(len(values), signed=signed)) == values
        reader.done()

    @pytest.mark.parametrize(
        "values,signed", [([2**64], False), ([-1], False), ([2**63], True)]
    )
    def test_int_outside_every_width_rejected(self, values, signed):
        with pytest.raises(SynopsisFormatError):
            _put_ints(bytearray(), values, signed=signed)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0.5],
            [-0.0, 0.0, float("inf"), -float("inf"), 5e-324, float("nan")],
            [0.25] * 40 + [-0.0] * 3,  # dictionary-coded
            [float(i) / 7 for i in range(300)],  # raw
        ],
    )
    def test_double_columns_are_bit_exact(self, values):
        out = bytearray()
        _put_doubles(out, values)
        reader = _Reader(_Section(bytes(out), 0, len(out)))
        decoded = reader.doubles(len(values))
        reader.done()
        assert struct.pack(f"<{len(values)}d", *decoded) == struct.pack(
            f"<{len(values)}d", *values
        )

    def test_repeated_doubles_are_dictionary_coded(self):
        out = bytearray()
        _put_doubles(out, [0.25] * 40)
        assert out[0] != 0 and len(out) < 8 * 40

    def test_width_boundaries_round_trip(self):
        config = SummaryConfig(histogram_buckets=8)
        synopsis = XClusterSynopsis()
        root = synopsis.add_node("root", ValueType.NULL, 1)
        synopsis.root_id = root.node_id
        children = [
            synopsis.add_node(
                "bounds",
                ValueType.NUMERIC,
                65536,
                HistogramSummary.from_values(
                    [-70000, -32769, -129, -1, 0, 255, 256, 65535, 65536], config
                ),
            ),
            synopsis.add_node(
                "signal",
                ValueType.NUMERIC,
                65535,
                HistogramSummary.from_values([-300, -3, 0, 7, 256, 256], config),
            ),
            synopsis.add_node(
                "clef",
                ValueType.STRING,
                256,
                StringSummary.from_values(
                    ["a\U0001d11eb"] * 256 + ["\U0001f600é"] * 255 + ["zz"],
                    config,
                ),
            ),
            synopsis.add_node("wide", ValueType.NULL, 255),
        ]
        for child in children:
            synopsis.add_edge(root, child, 65536.5)
        synopsis.validate()
        blob = snapshot_to_bytes(synopsis)
        assert snapshot_sections(blob)["vocabulary"] <= 4  # an empty pool
        for lazy in (True, False):
            restored = synopsis_from_snapshot(blob, lazy=lazy)
            assert synopsis_to_dict(restored) == synopsis_to_dict(synopsis)
        counts = children[2].vsumm.pst.counts
        assert {counts["\U0001d11e"], counts["\U0001f600"]} == {256, 255}

    def test_wide_term_ids_round_trip(self):
        config = SummaryConfig()
        synopsis = XClusterSynopsis()
        root = synopsis.add_node("root", ValueType.NULL, 1)
        synopsis.root_id = root.node_id
        texts = [frozenset(f"t{i}" for i in range(0, 300, step)) for step in (1, 2, 7)]
        text = synopsis.add_node(
            "body", ValueType.TEXT, 3, TextSummary.from_values(texts, config)
        )
        synopsis.add_edge(root, text, 1.0)
        restored = synopsis_from_snapshot(snapshot_to_bytes(synopsis), lazy=False)
        assert synopsis_to_dict(restored) == synopsis_to_dict(synopsis)


# -- format 3: deflated sections and front-coded pools -------------------------


def _stored_bytes(blob: bytes) -> dict:
    return {
        sid: blob[section.offset:section.offset + section.stored]
        for sid, section in _section_table(blob).items()
    }


def _restamp(blob: bytes, section_id: int, data=None, length=None) -> bytes:
    """``blob`` with one section's stored bytes or declared raw length
    replaced, every other section kept as stored."""
    table = _section_table(blob)
    stored = _stored_bytes(blob)
    if data is not None:
        stored[section_id] = data
    out = bytearray(SNAPSHOT_MAGIC)
    _put_ints(out, [len(table)])
    _put_ints(out, list(table))
    _put_ints(out, [len(chunk) for chunk in stored.values()])
    _put_ints(out, [
        length if sid == section_id and length is not None else section.length
        for sid, section in table.items()
    ])
    for chunk in stored.values():
        out += chunk
    return bytes(out)


def _peak_bytes(action):
    """The peak traced allocation while ``action`` raises a format
    error, and that error."""
    tracemalloc.start()
    try:
        with pytest.raises(SynopsisFormatError) as caught:
            action()
        return tracemalloc.get_traced_memory()[1], caught.value
    finally:
        tracemalloc.stop()


class TestDeflatedSections:
    @pytest.fixture(scope="class")
    def blob(self, compressed):
        blob = snapshot_to_bytes(compressed)
        pst = _section_table(blob)[_SEC_PST]
        assert pst.stored < pst.length  # the PST section ships deflated
        return blob

    def test_small_sections_ship_raw(self, blob):
        meta = _section_table(blob)[_SEC_META]
        assert meta.stored == meta.length

    def test_corrupt_deflate_stream(self, compressed, blob):
        pst = _section_table(blob)[_SEC_PST]
        mutated = bytearray(blob)
        mutated[pst.offset + pst.stored // 2] ^= 0xFF
        with pytest.raises(SynopsisFormatError):
            synopsis_from_snapshot(bytes(mutated), lazy=False)
        # The PST section is inflated on first use, not at open.
        restored = synopsis_from_snapshot(bytes(mutated))
        node = _first_deferred(restored, compressed, StringSummary)
        for _ in range(2):
            with pytest.raises(SynopsisFormatError):
                node.vsumm

    def test_truncated_deflate_stream(self, blob):
        stream = _stored_bytes(blob)[_SEC_PST]
        cut = _restamp(blob, _SEC_PST, data=stream[:-8])
        with pytest.raises(SynopsisFormatError):
            synopsis_from_snapshot(cut, lazy=False)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_raw_length_that_lies(self, compressed, blob, delta):
        pst = _section_table(blob)[_SEC_PST]
        lying = _restamp(blob, _SEC_PST, length=pst.length + delta)
        restored = synopsis_from_snapshot(lying)
        node = _first_deferred(restored, compressed, StringSummary)
        peak, error = _peak_bytes(lambda: node.vsumm)
        assert "declared" in str(error)
        assert peak < 2 * pst.length + (1 << 20)

    def test_stream_longer_than_declared_inflates_no_further(self, compressed, blob):
        # A stream of 900x the PST section's raw length, declared at it.
        pst = _section_table(blob)[_SEC_PST]
        bomb = zlib.compress(bytes(900 * pst.length))
        assert len(bomb) < pst.length and 900 * pst.length > 4 << 20
        lying = _restamp(blob, _SEC_PST, data=bomb)
        restored = synopsis_from_snapshot(lying)
        node = _first_deferred(restored, compressed, StringSummary)
        peak, _ = _peak_bytes(lambda: node.vsumm)
        assert peak < 2 * pst.length + (1 << 20)

    @pytest.mark.parametrize("ratio", [1033, 2**30])
    def test_raw_length_over_the_deflate_ceiling(self, blob, ratio):
        pst = _section_table(blob)[_SEC_PST]
        bomb = _restamp(blob, _SEC_PST, length=ratio * pst.stored)
        peak, error = _peak_bytes(lambda: synopsis_from_snapshot(bomb))
        assert "1032:1" in str(error)
        assert peak < 1 << 20

    def test_stored_longer_than_raw_rejected(self, blob):
        pst = _section_table(blob)[_SEC_PST]
        with pytest.raises(SynopsisFormatError, match="cannot inflate"):
            synopsis_from_snapshot(_restamp(blob, _SEC_PST, length=pst.stored - 1))

    def test_vocabulary_inflates_on_first_text_access(self, compressed, blob):
        # A corrupt vocabulary stream is not read at open, nor by
        # decoding a PST; the first TEXT summary surfaces it.
        vocabulary = _section_table(blob)[_SEC_VOCAB]
        assert vocabulary.stored < vocabulary.length
        mutated = bytearray(blob)
        mutated[vocabulary.offset + vocabulary.stored // 2] ^= 0xFF
        restored = synopsis_from_snapshot(bytes(mutated))
        assert _first_deferred(restored, compressed, StringSummary).vsumm
        node = _first_deferred(restored, compressed, TextSummary)
        with pytest.raises(SynopsisFormatError):
            node.vsumm


def _pool(strings) -> bytes:
    out = bytearray()
    _put_strings(out, strings)
    return bytes(out)


def _read_pool(data: bytes):
    return _read_strings(_Section(data, 0, len(data)))


class TestStringPools:
    def test_empty_pool(self):
        data = _pool([])
        assert len(data) == 4  # the count and three empty columns' widths
        assert _read_pool(data) == []

    def test_shared_prefixes_are_front_coded(self):
        terms = ["auction", "auctions", "author", "bid", ""]
        data = _pool(terms)
        reader = _Reader(_Section(data, 0, len(data)))
        (count,) = reader.ints(1)
        assert list(reader.ints(count)) == [0, 7, 2, 0, 0]
        assert _read_pool(data) == terms

    def test_prefix_that_splits_a_code_point(self):
        # "é" is C3 A9 and "ê" is C3 AA: the shared prefix ends inside
        # the code point, and so do the emoji's.
        terms = ["caf\u00e9", "caf\u00ea", "\U0001f600", "\U0001f601", "\u00e9t\u00e9"]
        data = _pool(terms)
        reader = _Reader(_Section(data, 0, len(data)))
        (count,) = reader.ints(1)
        assert list(reader.ints(count)) == [0, 4, 0, 3, 0]
        assert _read_pool(data) == terms

    @pytest.mark.parametrize(
        "shared,rests,blob",
        [
            ([0, 3], [2, 1], b"abc"),  # the first term has only 2 bytes
            ([1], [1], b"a"),  # the first term has no predecessor
        ],
    )
    def test_prefix_longer_than_its_predecessor_rejected(self, shared, rests, blob):
        out = bytearray()
        _put_ints(out, [len(shared)])
        _put_ints(out, shared)
        _put_ints(out, rests)
        out += blob
        with pytest.raises(SynopsisFormatError, match="predecessor"):
            _read_pool(bytes(out))

    def test_non_ascii_vocabulary_round_trips(self):
        config = SummaryConfig()
        synopsis = XClusterSynopsis()
        root = synopsis.add_node("root", ValueType.NULL, 1)
        synopsis.root_id = root.node_id
        texts = [
            frozenset({"caf\u00e9", "caf\u00ea", "na\u00efve"}),
            frozenset({"\U0001f600", "\U0001f601", "caf\u00e9"}),
        ]
        text = synopsis.add_node(
            "body", ValueType.TEXT, 2, TextSummary.from_values(texts, config)
        )
        synopsis.add_edge(root, text, 1.0)
        for lazy in (True, False):
            restored = synopsis_from_snapshot(snapshot_to_bytes(synopsis), lazy=lazy)
            assert synopsis_to_dict(restored) == synopsis_to_dict(synopsis)
