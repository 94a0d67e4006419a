"""Smoke test of the end-to-end benchmark at toy scale::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs all four workloads tiny, untraced and traced, and checks that the
result line carries exactly the metrics ``BENCHMARK.json`` declares.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
TIME_UNITS = {"s", "ms", "us"}


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {
        entry["name"]: entry["unit"]
        for entry in SPEC["per_layer" if trace else "end_to_end"]
    }
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == declared
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert isinstance(metric["value"], float)
        # End-to-end metrics are never 0; per-layer times are measured
        # on every workload, so none of them may read 0 either.
        if not trace or metric["unit"] in TIME_UNITS:
            assert metric["value"] > 0, name


def test_spec_respects_the_caps():
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    setup = [entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"] for e in SPEC["end_to_end"])}]
    assert set(workloads.E2E_UNITS) == {e["name"] for e in SPEC["end_to_end"]}
    assert set(workloads.LAYER_UNITS) == {e["name"] for e in SPEC["per_layer"]}


def test_parity_check_rejects_a_tampered_estimate():
    expected = workloads.expected_bodies([12.5, 3.0])
    honest = [(0, 200, expected[0]), (1, 200, expected[1])]
    assert workloads.parity_failures(honest, expected) == 0
    # One ulp off is a different estimate: parity is bit-exact.
    tampered = json.dumps({"estimate": 12.500000000000002}).encode()
    assert workloads.parity_failures([(0, 200, tampered), honest[1]], expected) == 1
    assert workloads.parity_failures([(0, 500, expected[0])], expected) == 1
    check = workloads.estimate_check(expected, [1, 0])
    assert check(0, 200, expected[1]) and not check(1, 200, tampered)


def test_compare_verdicts():
    def stats(values):
        return run.summarize({"w": [
            {"metrics": {"m": {"value": value, "unit": "s"}}} for value in values
        ]})["w"]["m"]

    base = stats([1.00, 1.01, 0.99, 1.00, 1.02])
    assert run.verdict(base, stats([1.0, 1.01, 0.99, 1.0, 1.0]), "lower", 0.1)[2] == "same"
    assert run.verdict(base, stats([1.3, 1.31, 1.29, 1.3, 1.3]), "lower", 0.1)[2] == "worse"
    assert run.verdict(base, stats([0.8, 0.81, 0.79, 0.8, 0.8]), "lower", 0.1)[2] == "better"
    assert run.verdict(base, stats([0.5, 1.5, 0.9, 1.6, 0.6]), "lower", 0.1)[2] == "unresolved"
    assert run.verdict(base, stats([1.3, 1.31, 1.29, 1.3, 1.3]), "higher", 0.1)[2] == "better"
    assert run.verdict(base, stats([0.8, 0.81, 0.79, 0.8, 0.8]), "higher", 0.1)[2] == "worse"
    assert run.verdict(base, stats([0.99, 1.0, 1.01, 1.0, 1.0]), "higher", 0.1)[2] == "same"
