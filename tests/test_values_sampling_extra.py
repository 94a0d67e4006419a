"""Additional distribution checks for value-summary sampling and fusion."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.values.summary import (
    StringSummary,
    SummaryConfig,
    TextSummary,
    build_summary,
)
from repro.xmltree.types import ValueType


class TestHistogramSampling:
    def test_samples_within_domain(self):
        summary = build_summary(ValueType.NUMERIC, [3, 7, 7, 42], SummaryConfig())
        rng = random.Random(1)
        lo, hi = summary.histogram.domain
        for _ in range(100):
            assert lo <= summary.sample_value(rng) <= hi

    def test_distribution_roughly_proportional(self):
        values = [1] * 300 + [50] * 100
        summary = build_summary(ValueType.NUMERIC, values, SummaryConfig())
        rng = random.Random(2)
        draws = [summary.sample_value(rng) for _ in range(400)]
        low_share = sum(1 for v in draws if v == 1) / len(draws)
        assert 0.6 < low_share < 0.9


class TestStringSampling:
    def test_empty_pst(self):
        summary = StringSummary.from_values([], SummaryConfig())
        assert summary.sample_value(random.Random(0)) == ""

    def test_length_cap(self):
        summary = build_summary(
            ValueType.STRING, ["abcdefghij" * 3], SummaryConfig()
        )
        sampled = summary.sample_value(random.Random(0), max_length=5)
        assert len(sampled) <= 5


class TestTextSampling:
    def test_term_cap(self):
        terms = frozenset(f"t{i}" for i in range(200))
        summary = build_summary(ValueType.TEXT, [terms] * 3, SummaryConfig())
        assert isinstance(summary, TextSummary)
        sampled = summary.sample_value(random.Random(0), max_terms=10)
        assert len(sampled) <= 10

    def test_empty_collection(self):
        summary = TextSummary.from_values([], SummaryConfig())
        assert summary.sample_value(random.Random(0)) == frozenset()


@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40),
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40),
)
@settings(max_examples=30)
def test_numeric_fusion_matches_pooled_build(left_values, right_values):
    """Fusing summaries of two collections approximates summarizing the
    union: totals exact, prefix-range estimates close."""
    config = SummaryConfig()
    left = build_summary(ValueType.NUMERIC, left_values, config)
    right = build_summary(ValueType.NUMERIC, right_values, config)
    fused = left.fuse(right)
    pooled = build_summary(ValueType.NUMERIC, left_values + right_values, config)
    assert fused.count == pytest.approx(pooled.count)
    from repro.query.predicates import RangePredicate

    for edge in (0, 10, 25, 50):
        assert fused.selectivity(RangePredicate(0, edge)) == pytest.approx(
            pooled.selectivity(RangePredicate(0, edge)), abs=0.15
        )


@given(st.lists(st.sampled_from(["star", "dust", "trek", "dark"]), min_size=1, max_size=20))
@settings(max_examples=30)
def test_string_fusion_matches_pooled_build(strings):
    config = SummaryConfig(pst_nodes_per_string=10**6, pst_max_nodes=10**6)
    half = len(strings) // 2
    left = build_summary(ValueType.STRING, strings[:half] or ["x"], config)
    right = build_summary(ValueType.STRING, strings[half:], config)
    fused = left.fuse(right)
    from repro.query.predicates import SubstringPredicate

    pooled_strings = (strings[:half] or ["x"]) + strings[half:]
    for needle in ("st", "ar", "dus"):
        truth = sum(1 for s in pooled_strings if needle in s) / len(pooled_strings)
        assert fused.selectivity(SubstringPredicate(needle)) == pytest.approx(
            truth, abs=1e-9
        )
