"""Unit tests for synopsis persistence (save/load round-trips)."""

import copy
import json

import pytest

from repro.core import (
    build_xcluster,
    load_synopsis,
    save_synopsis,
    structural_size_bytes,
    synopsis_from_dict,
    synopsis_to_dict,
    total_size_bytes,
    value_size_bytes,
)
from repro.core.builder import BuildConfig
from repro.check.oracles import XClusterEstimator
from repro.core.serialization import SynopsisFormatError
from repro.query import parse_twig


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


PROBES = (
    "//movie/title",
    "//movie[./year >= 1990]/cast/actor",
    "//movie/title[. contains(St)]",
    "//movie/plot[. ftcontains(be)]",
    "//show/season/episode",
)


class TestRoundTrip:
    def test_dict_roundtrip_preserves_sizes(self, compressed):
        restored = synopsis_from_dict(synopsis_to_dict(compressed))
        assert len(restored) == len(compressed)
        assert structural_size_bytes(restored) == structural_size_bytes(compressed)
        assert value_size_bytes(restored) == value_size_bytes(compressed)
        assert total_size_bytes(restored) == total_size_bytes(compressed)

    def test_dict_roundtrip_preserves_estimates(self, compressed):
        restored = synopsis_from_dict(synopsis_to_dict(compressed))
        original = XClusterEstimator(compressed)
        reloaded = XClusterEstimator(restored)
        for text in PROBES:
            query = parse_twig(text)
            assert reloaded.estimate(query) == pytest.approx(
                original.estimate(query), rel=1e-12
            ), text

    def test_file_roundtrip(self, compressed, tmp_path):
        path = str(tmp_path / "synopsis.json")
        save_synopsis(compressed, path)
        restored = load_synopsis(path)
        restored.validate()
        assert len(restored) == len(compressed)

    def test_json_is_plain_data(self, compressed):
        # The encoded form must survive a JSON round-trip unchanged.
        encoded = synopsis_to_dict(compressed)
        rehydrated = json.loads(json.dumps(encoded))
        restored = synopsis_from_dict(rehydrated)
        assert len(restored) == len(compressed)

    def test_reference_synopsis_roundtrip(self, bibliography_reference):
        restored = synopsis_from_dict(synopsis_to_dict(bibliography_reference))
        assert total_size_bytes(restored) == total_size_bytes(bibliography_reference)


class TestValidation:
    def test_wrong_version_rejected(self, compressed):
        data = synopsis_to_dict(compressed)
        data["format"] = 999
        with pytest.raises(SynopsisFormatError):
            synopsis_from_dict(data)

    def test_dangling_edge_rejected(self, compressed):
        data = synopsis_to_dict(compressed)
        data["nodes"][0]["children"].append([10**9, 1.0])
        with pytest.raises(SynopsisFormatError):
            synopsis_from_dict(data)

    def test_duplicate_node_rejected(self, compressed):
        data = synopsis_to_dict(compressed)
        data["nodes"].append(copy.deepcopy(data["nodes"][0]))
        with pytest.raises(SynopsisFormatError):
            synopsis_from_dict(data)

    def test_missing_root_rejected(self, compressed):
        data = synopsis_to_dict(compressed)
        data["root"] = 10**9
        with pytest.raises(SynopsisFormatError):
            synopsis_from_dict(data)

    def test_unknown_summary_kind_rejected(self, compressed):
        data = synopsis_to_dict(compressed)
        for node in data["nodes"]:
            if node["vsumm"] is not None:
                node["vsumm"]["kind"] = "mystery"
                break
        with pytest.raises(SynopsisFormatError):
            synopsis_from_dict(data)

    def test_retired_wavelet_kind_rejected(self, compressed):
        # The wavelet NUMERIC family is gone; its payloads do not load.
        data = synopsis_to_dict(compressed)
        node = next(n for n in data["nodes"] if n["type"] == "numeric" and n["vsumm"])
        node["vsumm"] = {
            "kind": "wavelet", "domain_lo": 0, "cell_width": 1, "length": 1,
            "coefficients": [[0, 1.0]], "total": 1.0,
        }
        with pytest.raises(SynopsisFormatError, match="unknown summary kind 'wavelet'"):
            synopsis_from_dict(data)


def _corrupt_first_summary(data):
    """Gut the first encoded summary's payload, keeping its kind."""
    for node in data["nodes"]:
        if node["vsumm"] is not None:
            kind = node["vsumm"]["kind"]
            node["vsumm"] = {"kind": kind}
            return node["id"]
    raise AssertionError("fixture synopsis has no value summaries")


class TestRelaxedLoading:
    """``verify=False`` loads defer summary decoding to first access."""

    def test_verify_false_defers_summary_decoding(self, compressed, tmp_path):
        path = str(tmp_path / "synopsis.json")
        save_synopsis(compressed, path)
        restored = load_synopsis(path, verify=False)
        deferred = [n for n in restored if n.summary_deferred]
        assert deferred, "verify=False decoded summaries up front"
        # First access materializes; the estimate path still works.
        assert deferred[0].vsumm is not None
        assert not deferred[0].summary_deferred

    def test_verify_true_decodes_eagerly(self, compressed, tmp_path):
        path = str(tmp_path / "synopsis.json")
        save_synopsis(compressed, path)
        restored = load_synopsis(path)
        assert not any(node.summary_deferred for node in restored)

    def test_corrupt_summary_loads_relaxed_then_raises(self, compressed):
        data = synopsis_to_dict(compressed)
        bad_id = _corrupt_first_summary(data)
        # verify=True must refuse outright ...
        with pytest.raises(SynopsisFormatError):
            synopsis_from_dict(data)
        # ... while verify=False admits the synopsis for auditing and
        # raises a format error (not a KeyError) at first access —
        # repeatably, never degrading to "no summary".
        relaxed = synopsis_from_dict(data, verify=False)
        node = relaxed.nodes[bad_id]
        assert node.summary_deferred
        with pytest.raises(SynopsisFormatError):
            node.vsumm
        with pytest.raises(SynopsisFormatError):
            node.vsumm

    def test_corrupt_summary_is_audited_not_raised(self, compressed):
        from repro.check import InvariantAuditor

        data = synopsis_to_dict(compressed)
        bad_id = _corrupt_first_summary(data)
        relaxed = synopsis_from_dict(data, verify=False)
        violations = InvariantAuditor().audit(relaxed)
        decode_failures = [
            v for v in violations if v.invariant == "summary-decode"
        ]
        assert decode_failures
        assert decode_failures[0].node_id == bad_id

    def test_check_cli_reports_corrupt_synopsis(self, compressed, tmp_path):
        """``repro check --synopsis`` flags a corrupt file, exit code 1."""
        import json as json_module

        from repro.__main__ import main

        data = synopsis_to_dict(compressed)
        _corrupt_first_summary(data)
        path = tmp_path / "corrupt.json"
        path.write_text(json_module.dumps(data), encoding="utf-8")
        assert main(["check", "--synopsis", str(path)]) == 1
