"""The ``python -m repro check`` verb: exit codes and report rendering."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.core.serialization import save_synopsis, synopsis_to_dict


@pytest.fixture()
def saved_synopsis(tmp_path, bibliography_reference):
    path = tmp_path / "synopsis.json"
    save_synopsis(bibliography_reference, str(path))
    return path


@pytest.fixture()
def corrupted_synopsis(tmp_path, bibliography_reference):
    """A saved synopsis with one node's count zeroed out."""
    data = synopsis_to_dict(bibliography_reference)
    victim = max(data["nodes"], key=lambda node: node["count"])
    victim["count"] = 0
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path, victim["id"]


def test_clean_saved_synopsis_exits_zero(saved_synopsis, capsys):
    assert main(["check", "--synopsis", str(saved_synopsis), "--skip-fuzz"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_corrupted_synopsis_exits_nonzero_naming_node(
    corrupted_synopsis, capsys
):
    path, node_id = corrupted_synopsis
    assert main(["check", "--synopsis", str(path), "--skip-fuzz"]) == 1
    out = capsys.readouterr().out
    assert "graph-integrity" in out
    assert f"node {node_id}" in out


def test_json_report_is_structured(corrupted_synopsis, capsys):
    path, node_id = corrupted_synopsis
    assert main(["check", "--synopsis", str(path), "--skip-fuzz", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert any(
        violation["node_id"] == node_id
        and violation["invariant"] == "graph-integrity"
        for violation in report["violations"]
    )


def test_fuzz_rounds_from_cli(saved_synopsis, capsys):
    exit_code = main(
        [
            "check",
            "--synopsis",
            str(saved_synopsis),
            "--rounds",
            "1",
            "--seed",
            "13",
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 0, out
    assert "1 fuzz round(s)" in out


def test_fresh_xmark_audit_is_clean(capsys):
    """The acceptance path: build XMark, audit reference + compressed."""
    assert main(["check", "--skip-fuzz", "--scale", "0.05"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_fresh_audit_catches_wrong_count_backed_sigma(capsys, monkeypatch):
    from repro.values.pst import PrunedSuffixTree

    exact = PrunedSuffixTree.indexed_selectivity
    monkeypatch.setattr(
        PrunedSuffixTree,
        "indexed_selectivity",
        lambda tree, count: exact(tree, count) * 0.5,
    )
    assert main(["check", "--skip-fuzz", "--scale", "0.05"]) == 1
    assert "scoring-profile" in capsys.readouterr().out


def test_evaluator_rounds_from_cli(capsys):
    """--evaluator runs interval-vs-treewalk parity rounds only."""
    exit_code = main(["check", "--evaluator", "--rounds", "2", "--seed", "21"])
    out = capsys.readouterr().out
    assert exit_code == 0, out
    assert "2 fuzz round(s)" in out
    assert "all checks passed" in out


def test_evaluator_rounds_divergence_exits_nonzero(capsys, monkeypatch):
    from repro.query.interval import IntervalEvaluator

    real_selectivity = IntervalEvaluator.selectivity
    monkeypatch.setattr(
        IntervalEvaluator,
        "selectivity",
        lambda self, query: real_selectivity(self, query) + 1,
    )
    exit_code = main(["check", "--evaluator", "--rounds", "1", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert any(
        failure["kind"] == "evaluator-divergence"
        for failure in report["failures"]
    )


def test_rounds_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_ROUNDS", "7")
    from repro.__main__ import build_parser

    args = build_parser().parse_args(["check"])
    assert args.rounds == 7


def test_rounds_env_garbage_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_ROUNDS", "many")
    from repro.__main__ import _default_rounds

    assert _default_rounds() == 3
