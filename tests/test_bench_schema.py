"""The versioned schema shared by every ``BENCH_*.json`` report.

``benchmarks/common.py`` owns the schema and the writer; these tests
pin the contract from both sides — the validator's judgments on
synthetic reports, the writer's stamping/refusal behavior, and the
checked-in report files themselves.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKED_IN_REPORTS = sorted(REPO_ROOT.glob("BENCH_*.json"))


def _load_common():
    spec = importlib.util.spec_from_file_location(
        "bench_common", REPO_ROOT / "benchmarks" / "common.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


common = _load_common()


def _valid_report():
    return {
        "schema_version": common.SCHEMA_VERSION,
        "bench": "construction",
        "dataset": "xmark",
        "scale": 0.35,
        "speedup": 2.5,
        "equivalent": True,
    }


class TestValidator:
    def test_accepts_a_minimal_valid_report(self):
        assert common.validate_report(_valid_report()) == []

    def test_rejects_non_object_reports(self):
        assert common.validate_report([1, 2, 3])
        assert common.validate_report(None)

    @pytest.mark.parametrize("field", sorted(common.REQUIRED_FIELDS))
    def test_each_required_field_is_enforced(self, field):
        report = _valid_report()
        del report[field]
        issues = common.validate_report(report)
        assert any(field in issue for issue in issues)

    def test_rejects_mistyped_fields(self):
        report = _valid_report()
        report["speedup"] = "2.5"
        assert common.validate_report(report)

    def test_bool_is_not_a_number(self):
        report = _valid_report()
        report["speedup"] = True
        assert common.validate_report(report)

    def test_rejects_wrong_schema_version(self):
        report = _valid_report()
        report["schema_version"] = common.SCHEMA_VERSION + 1
        assert common.validate_report(report)

    def test_optional_fields_absent_is_valid(self):
        assert common.validate_report(_valid_report()) == []

    def test_optional_floor_fields_are_type_checked(self):
        report = _valid_report()
        report.update(
            speedup_floor=1.5,
            speedup_asserted=True,
            memory_floor=2.0,
            memory_asserted=True,
            memory_reduction=2.5,
        )
        assert common.validate_report(report) == []

    @pytest.mark.parametrize("field", sorted(common.OPTIONAL_FIELDS))
    def test_each_optional_field_rejects_wrong_types(self, field):
        report = _valid_report()
        # A string satisfies none of the optional field types.
        report[field] = "yes"
        issues = common.validate_report(report)
        assert any(field in issue for issue in issues)

    def test_per_shard_fields_accept_collection_shapes(self):
        report = _valid_report()
        report.update(
            shard_count=8,
            zipf_skew=1.1,
            budget_distribution=[131072, 65536.0, 65536],
        )
        assert common.validate_report(report) == []

    def test_shard_count_must_be_an_int(self):
        report = _valid_report()
        report["shard_count"] = 8.0
        assert common.validate_report(report)

    def test_budget_distribution_elements_are_type_checked(self):
        report = _valid_report()
        report["budget_distribution"] = [1024, "big"]
        issues = common.validate_report(report)
        assert any("budget_distribution" in issue for issue in issues)

    def test_budget_distribution_elements_reject_bools(self):
        report = _valid_report()
        report["budget_distribution"] = [True, 1024]
        issues = common.validate_report(report)
        assert any("budget_distribution" in issue for issue in issues)

    def test_floor_asserted_flags_must_be_bools_not_numbers(self):
        report = _valid_report()
        report["speedup_asserted"] = 1
        assert common.validate_report(report)
        report = _valid_report()
        report["memory_floor"] = True
        assert common.validate_report(report)


class TestWriter:
    def test_stamps_version_and_bench(self, tmp_path):
        out = tmp_path / "report.json"
        body = {"dataset": "xmark", "scale": 0.1, "speedup": 3.0,
                "equivalent": True}
        path = common.write_report("ingest", body, str(out))
        written = json.loads(out.read_text())
        assert path == str(out)
        assert written["schema_version"] == common.SCHEMA_VERSION
        assert written["bench"] == "ingest"
        assert "bench" not in body  # caller's dict is not mutated

    def test_refuses_invalid_reports(self, tmp_path):
        out = tmp_path / "report.json"
        with pytest.raises(ValueError, match="invalid report"):
            common.write_report("ingest", {"dataset": "xmark"}, str(out))
        assert not out.exists()

    def test_honors_output_override(self, tmp_path, monkeypatch):
        out = tmp_path / "elsewhere.json"
        monkeypatch.setenv("REPRO_BENCH_OUT", str(out))
        body = {"dataset": "imdb", "scale": 0.1, "speedup": 2.0,
                "equivalent": True}
        assert common.write_report("estimation", body, "ignored.json") == str(out)
        assert out.exists()


class TestCheckedInReports:
    def test_all_six_benches_are_present(self):
        names = {path.name for path in CHECKED_IN_REPORTS}
        assert {
            "BENCH_construction.json",
            "BENCH_estimation.json",
            "BENCH_value_kernels.json",
            "BENCH_ingest.json",
            "BENCH_evaluation.json",
            "BENCH_serving.json",
        } <= names

    @pytest.mark.parametrize(
        "path", CHECKED_IN_REPORTS, ids=[p.name for p in CHECKED_IN_REPORTS]
    )
    def test_checked_in_report_is_schema_valid(self, path):
        report = json.loads(path.read_text(encoding="utf-8"))
        assert common.validate_report(report) == []
        # The file name and the stamped bench name must agree.
        assert path.name == f"BENCH_{report['bench']}.json"
        # Parity is non-negotiable for a checked-in report.
        assert report["equivalent"] is True

    @pytest.mark.parametrize(
        "path", CHECKED_IN_REPORTS, ids=[p.name for p in CHECKED_IN_REPORTS]
    )
    def test_asserted_floors_are_actually_met(self, path):
        """A report may not claim an asserted floor its numbers miss.

        This is the regression test for the ``speedup_asserted: true`` /
        ``speedup: 0.825`` inconsistency: when a checked-in report says
        a floor was asserted, the recorded metric must satisfy it.
        """
        report = json.loads(path.read_text(encoding="utf-8"))
        if report.get("speedup_asserted"):
            assert "speedup_floor" in report, (
                f"{path.name} asserts a speedup floor it does not record"
            )
            assert report["speedup"] >= report["speedup_floor"]
        if report.get("memory_asserted"):
            assert "memory_floor" in report and "memory_reduction" in report, (
                f"{path.name} asserts a memory floor it does not record"
            )
            assert report["memory_reduction"] >= report["memory_floor"]

    def test_evaluation_report_sweep_points_hold_the_floors(self):
        """Every evaluation sweep point is drift-free and above floor.

        The evaluation bench's claims are stronger than the generic
        asserted-floor check: the floor must hold at *every* sweep
        point (not just the headline), each point must record zero
        selectivity drift between the two engines, and the sweep must
        include a frontier point at 10x the bench scale.
        """
        path = REPO_ROOT / "BENCH_evaluation.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        sweep = report["sweep"]
        assert sweep, "evaluation report has an empty sweep"
        for point in sweep:
            assert point["drift"] == 0, (
                f"sweep point at scale {point['scale']} recorded "
                f"selectivity drift"
            )
            assert point["equivalent"] is True
            assert point["elements"] > 0
            if report.get("speedup_asserted"):
                assert point["speedup"] >= report["speedup_floor"], (
                    f"sweep point at scale {point['scale']} fell below "
                    f"the recorded speedup floor"
                )
        if report.get("speedup_asserted"):
            frontier = [p for p in sweep if p.get("frontier")]
            assert frontier, "asserting run recorded no frontier point"
            assert max(p["scale"] for p in frontier) >= report["scale"] * 10

    def test_serving_report_records_the_daemon_headlines(self):
        """The serving report carries QPS/latency/cache-rate numbers.

        The serving bench claims more than a load speedup: the daemon
        must have sustained the repetition-banded workload (positive
        QPS, ordered percentiles), the cross-user plan cache must have
        actually fired, every cold-start sweep point must be bit-exact
        and — on an asserting run — above the recorded floor.
        """
        path = REPO_ROOT / "BENCH_serving.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["qps"] > 0
        assert 0 < report["p50_ms"] <= report["p99_ms"]
        assert 0 < report["cache_hit_rate"] <= 1.0
        serving = report["serving"]
        assert serving["parity_drift"] == 0
        assert serving["requests"] > 0 and serving["users"] > 0
        sweep = report["sweep"]
        assert sweep, "serving report has an empty cold-start sweep"
        for point in sweep:
            assert point["drift"] == 0
            assert point["equivalent"] is True
            if report.get("speedup_asserted"):
                assert point["speedup"] >= report["speedup_floor"], (
                    f"sweep point at scale {point['scale']} fell below "
                    f"the recorded snapshot-load floor"
                )
            # The binary snapshot ships fewer bytes than JSON, and the
            # report says where they go.
            assert point["snapshot_bytes"] < point["json_bytes"]
            assert point["model_bytes"] > 0
            assert point["snapshot_bytes"] <= 0.5 * point["model_bytes"]
            sections = point["snapshot_sections"]
            assert point["vocabulary_bytes"] == sections["vocabulary"]
            assert sum(sections.values()) < point["snapshot_bytes"]

    def test_ingest_report_sweep_points_hold_the_floors(self):
        """Every ingest sweep point is equivalent and above the floor."""
        path = REPO_ROOT / "BENCH_ingest.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        sweep = report["sweep"]
        assert sweep, "ingest report has an empty sweep"
        assert max(point["scale"] for point in sweep) >= 1.0
        for point in sweep:
            assert point["equivalent"] is True
            if report.get("speedup_asserted"):
                assert point["speedup"] >= report["speedup_floor"], (
                    f"sweep point at scale {point['scale']} fell below "
                    f"the recorded speedup floor"
                )
