"""The invariant auditor: clean synopses audit clean, corruption is named.

The corruption tests mutate deep copies of the shared reference
synopses through the same back doors a construction bug would use
(mutable counts, replaced summaries), then assert the auditor reports a
structured :class:`Violation` naming both the invariant and the node.
"""

from __future__ import annotations

import copy

import pytest

from repro.check import InvariantAuditor, Violation, audit_synopsis
from repro.core import build_xcluster, structural_size_bytes, value_size_bytes
from repro.core.builder import BuildConfig, XClusterBuilder
from repro.values.ebth import EndBiasedTermHistogram
from repro.values.rle import RunLengthBitmap
from repro.values.summary import TextSummary
from repro.values.termvector import Vocabulary
from repro.xmltree.types import ValueType


def _node_of_type(synopsis, value_type):
    for node in synopsis.valued_nodes():
        if node.value_type is value_type:
            return node
    pytest.skip(f"no {value_type} node in fixture synopsis")


def _violations_for(violations, invariant):
    return [v for v in violations if v.invariant == invariant]


class TestCleanAudits:
    def test_xmark_reference_is_clean(self, xmark_reference):
        assert audit_synopsis(xmark_reference) == []

    def test_imdb_reference_is_clean(self, imdb_reference):
        assert audit_synopsis(imdb_reference) == []

    def test_fresh_compressed_xmark_is_clean(self, xmark_small, xmark_reference):
        synopsis = build_xcluster(
            xmark_small.tree,
            structural_budget=structural_size_bytes(xmark_reference) // 2,
            value_budget=value_size_bytes(xmark_reference) // 2,
            value_paths=xmark_small.value_paths,
        )
        assert audit_synopsis(synopsis) == []

    def test_selectivity_probe_can_be_disabled(self, bibliography_reference):
        auditor = InvariantAuditor(predicate_limit=0)
        assert auditor.audit(bibliography_reference) == []


class TestCorruptedSynopses:
    def test_mutated_count_breaks_element_conservation(self, xmark_reference):
        corrupted = copy.deepcopy(xmark_reference)
        victim = max(
            (n for n in corrupted if n.node_id != corrupted.root_id),
            key=lambda n: n.count,
        )
        victim.count += 7
        found = _violations_for(
            audit_synopsis(corrupted), "element-conservation"
        )
        assert any(v.node_id == victim.node_id for v in found)
        assert all(isinstance(v, Violation) for v in found)

    def test_non_positive_count_is_graph_integrity(self, bibliography_reference):
        corrupted = copy.deepcopy(bibliography_reference)
        victim = next(iter(corrupted))
        victim.count = 0
        found = _violations_for(audit_synopsis(corrupted), "graph-integrity")
        assert any(v.node_id == victim.node_id for v in found)

    def test_mutated_edge_counter_is_caught(self, xmark_reference):
        corrupted = copy.deepcopy(xmark_reference)
        parent = next(n for n in corrupted if n.children)
        child_id = next(iter(parent.children))
        parent.children[child_id] *= 3.0
        found = _violations_for(
            audit_synopsis(corrupted), "element-conservation"
        )
        assert any(v.node_id == child_id for v in found)

    def test_dangling_edge_is_graph_integrity(self, bibliography_reference):
        corrupted = copy.deepcopy(bibliography_reference)
        parent = next(n for n in corrupted if n.children)
        parent.children[99999] = 1.0
        found = _violations_for(audit_synopsis(corrupted), "graph-integrity")
        assert any("missing node" in v.message for v in found)

    def test_broken_pst_monotonicity_names_substring(self, imdb_reference):
        corrupted = copy.deepcopy(imdb_reference)
        node = _node_of_type(corrupted, ValueType.STRING)
        counts = node.vsumm.pst.counts
        child = next((s for s in counts if len(s) > 1), None)
        if child is None:
            pytest.skip("PST has no internal edge to corrupt")
        counts[child] = counts[child[:-1]] + 10
        found = _violations_for(audit_synopsis(corrupted), "summary-internal")
        assert any(
            v.node_id == node.node_id and "monotonicity" in v.message
            for v in found
        )

    def test_corrupted_histogram_total_is_caught(self, xmark_reference):
        corrupted = copy.deepcopy(xmark_reference)
        node = _node_of_type(corrupted, ValueType.NUMERIC)
        node.vsumm.histogram.total += 5.0
        found = _violations_for(audit_synopsis(corrupted), "summary-internal")
        assert any(v.node_id == node.node_id for v in found)

    def test_ebth_end_bias_violation_is_caught(self, xmark_reference):
        corrupted = copy.deepcopy(xmark_reference)
        node = _node_of_type(corrupted, ValueType.TEXT)
        vocabulary = Vocabulary()
        low = vocabulary.intern("lowterm")
        bucket = vocabulary.intern("bucketterm")
        # Exact frequency below the bucket average: impossible via any
        # construction path, representable because the constructor only
        # validates the partition, not the ordering.
        broken = EndBiasedTermHistogram(
            vocabulary,
            {low: 0.05},
            RunLengthBitmap.from_ids([low, bucket]),
            bucket_average=0.9,
            bucket_member_count=1,
            count=1,
        )
        node.vsumm = TextSummary(broken)
        found = _violations_for(audit_synopsis(corrupted), "summary-internal")
        assert any(
            v.node_id == node.node_id and "end-biased" in v.message
            for v in found
        )

    def test_summary_larger_than_extent_is_caught(self, xmark_reference):
        corrupted = copy.deepcopy(xmark_reference)
        node = max(
            (n for n in corrupted.valued_nodes() if n.vsumm.count > 1),
            key=lambda n: n.vsumm.count,
        )
        node.count = int(node.vsumm.count) - 1
        found = audit_synopsis(corrupted)
        assert any(
            v.invariant == "summary-extent" and v.node_id == node.node_id
            for v in found
        )

    def test_violation_str_names_node_and_invariant(self):
        violation = Violation("summary-internal", "boom", node_id=17)
        assert "summary-internal" in str(violation)
        assert "node 17" in str(violation)


class TestBuilderAuditKnob:
    def test_audited_build_reports_no_violations(self, bibliography):
        config = BuildConfig(
            structural_budget=512, value_budget=2048, audit=True
        )
        builder = XClusterBuilder(config)
        builder.build(bibliography.tree, bibliography.value_paths)
        assert builder.stats.audit_violations == []

    def test_audit_off_by_default(self, bibliography):
        builder = XClusterBuilder(
            BuildConfig(structural_budget=512, value_budget=2048)
        )
        builder.build(bibliography.tree, bibliography.value_paths)
        assert builder.stats.audit_violations == []


class TestScoringProfileAudit:
    def test_profiles_clean_after_build(self, bibliography):
        builder = XClusterBuilder(
            BuildConfig(structural_budget=512, value_budget=2048)
        )
        builder.build(bibliography.tree, bibliography.value_paths)
        assert builder._engine is not None
        assert builder._engine.audit_profiles() == []

    def test_missed_invalidation_is_reported(self, bibliography_reference):
        from repro.core.scoring import ScoringEngine

        synopsis = copy.deepcopy(bibliography_reference)
        engine = ScoringEngine(synopsis)
        node = next(n for n in synopsis if n.children)
        engine.profile_for(node)
        # Mutate the neighborhood without telling the engine — the
        # protocol breach audit_profiles exists to catch.
        child_id = next(iter(node.children))
        node.children[child_id] += 1.0
        issues = engine.audit_profiles()
        assert any(str(node.node_id) in issue for issue in issues)
