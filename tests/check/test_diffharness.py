"""The differential harness: determinism, parity, shrinking, failure paths.

Fuzz depth is bounded for tier-1 (two rounds by default); set
``REPRO_CHECK_ROUNDS`` for deep runs — the same knob ``python -m repro
check`` reads.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.check import (
    DifferentialHarness,
    DocumentConfig,
    DocumentGenerator,
    HarnessConfig,
    run_differential_check,
)
from repro.check.shrink import (
    copy_query,
    copy_tree,
    shrink_document,
    shrink_query,
    shrink_text,
)
from repro.query.xpath import parse_twig
from repro.xmltree.parser import parse_string
from repro.xmltree.serializer import serialize

BOUNDED_ROUNDS = max(1, int(os.environ.get("REPRO_CHECK_ROUNDS", "2")))


class TestDocumentGenerator:
    def test_deterministic_per_seed(self):
        generator = DocumentGenerator()
        first = generator.generate(random.Random(11))
        second = generator.generate(random.Random(11))
        assert serialize(first) == serialize(second)
        assert serialize(first) != serialize(generator.generate(random.Random(12)))

    def test_respects_size_bounds(self, seeded_rng):
        config = DocumentConfig(min_elements=10, max_elements=40)
        for _ in range(5):
            document = DocumentGenerator(config).generate(seeded_rng)
            document.validate()
            assert 2 <= len(document) <= 40

    def test_generated_documents_round_trip(self, seeded_rng):
        """Labels, types, and values all survive serialize -> parse."""
        generator = DocumentGenerator()
        for _ in range(3):
            document = generator.generate(seeded_rng)
            restored = parse_string(serialize(document), text_word_threshold=2)
            originals = list(document)
            replicas = list(restored)
            assert len(originals) == len(replicas)
            for original, replica in zip(originals, replicas):
                assert original.label == replica.label
                assert original.value_type is replica.value_type
                assert original.value == replica.value


class TestHarnessRuns:
    def test_bounded_fuzz_rounds_pass(self):
        report = run_differential_check(rounds=BOUNDED_ROUNDS)
        assert report.ok, report.format_text()
        assert report.rounds == BOUNDED_ROUNDS
        assert report.queries_checked > 0

    def test_runs_are_deterministic(self):
        config = HarnessConfig(seed=77, rounds=1)
        first = DifferentialHarness(config).run()
        second = DifferentialHarness(config).run()
        assert first.to_dict() == second.to_dict()

    def test_round_reproducible_from_seed_alone(self):
        """A failure's printed seed is all that's needed to replay it."""
        seed = 424242
        first = DifferentialHarness(HarnessConfig()).run_round(seed)
        second = DifferentialHarness(HarnessConfig()).run_round(seed)
        assert first.to_dict() == second.to_dict()

    def test_report_accumulates_rounds(self):
        report = DifferentialHarness(HarnessConfig(rounds=2, seed=5)).run()
        assert report.rounds == 2
        assert report.seed == 5


class TestFailurePaths:
    def test_impossible_tolerance_reports_and_shrinks(self):
        """A negative tolerance makes every comparison diverge, driving
        the failure-recording and query-shrinking machinery without a
        real bug."""
        config = HarnessConfig(seed=31337, rounds=1, tolerance=-1.0)
        report = DifferentialHarness(config).run()
        assert not report.ok
        divergences = [
            f for f in report.failures if f.kind == "estimate-divergence"
        ]
        assert divergences
        for failure in divergences:
            assert failure.seed is not None
            assert failure.query
            assert failure.shrunk_query  # shrinking ran
        # Serialization re-checks diverge under the same tolerance.
        assert any(
            f.kind == "serialization-divergence" for f in report.failures
        )
        # ... as do the columnar-substrate baseline comparisons.
        assert any(
            f.kind == "columnar-divergence" for f in report.failures
        )

    def test_forced_columnar_divergence_is_reported(self, monkeypatch):
        """Ingesting different bytes than the parser saw must surface as
        a columnar-divergence failure, not pass silently."""
        import repro.check.diffharness as diffharness_module

        real_ingest = diffharness_module.ingest_string

        def skewed(text, *args, **kwargs):
            renamed = text.replace("<root", "<toor").replace("</root", "</toor")
            return real_ingest(renamed, *args, **kwargs)

        monkeypatch.setattr(diffharness_module, "ingest_string", skewed)
        harness = DifferentialHarness(HarnessConfig(seed=11, rounds=1))
        report = harness.run()
        failures = [
            f for f in report.failures if f.kind == "columnar-divergence"
        ]
        assert len(failures) == 1
        assert "reference synopses" in failures[0].message

    def test_forced_build_divergence_shrinks_document(self, monkeypatch):
        config = HarnessConfig(seed=9, rounds=1, shrink_attempts=40)
        harness = DifferentialHarness(config)

        def forced(self, document, value_paths):
            return None, "forced divergence"

        monkeypatch.setattr(DifferentialHarness, "_build_pair", forced)
        report = harness.run_round(101)
        failures = [f for f in report.failures if f.kind == "build-divergence"]
        assert len(failures) == 1
        failure = failures[0]
        assert failure.seed == 101
        assert failure.shrunk_size is not None
        assert failure.shrunk_size <= failure.document_size
        assert failure.shrunk_document  # serialized counterexample

    def test_forced_tokenizer_divergence_is_reported_and_shrunk(
        self, monkeypatch
    ):
        """A byte scanner that mangles one label must surface as a
        tokenizer-divergence failure with a character-shrunk input."""
        import repro.check.diffharness as diffharness_module

        real_iter_events = diffharness_module.iter_events

        def skewed(source, *args, **kwargs):
            for event in real_iter_events(source, *args, **kwargs):
                if event[0] == "start" and event[1] == "item":
                    yield ("start", "meti")
                else:
                    yield event

        monkeypatch.setattr(diffharness_module, "iter_events", skewed)
        harness = DifferentialHarness(
            HarnessConfig(seed=11, rounds=1, shrink_attempts=400)
        )
        report = harness.run()
        failures = [
            f for f in report.failures if f.kind == "tokenizer-divergence"
        ]
        assert failures  # the pristine document already diverges
        failure = failures[0]
        assert "char-scan oracle" in failure.message
        assert failure.shrunk_size is not None
        assert failure.shrunk_size <= failure.document_size
        # The shrunk counterexample still reproduces the divergence and
        # still contains the mangled label.
        assert "item" in failure.shrunk_document
        assert harness._tokenizer_diverges(failure.shrunk_document)

    def test_tokenizer_round_probes_malformed_variants(self):
        """The mutator must actually produce malformed documents —
        otherwise the error-parity half of the round never runs."""
        from repro.check.diffharness import _stream_outcome
        from repro.check.oracles import iter_events_str

        harness = DifferentialHarness(HarnessConfig(seed=3))
        rng = random.Random(1234)
        pristine = serialize(DocumentGenerator().generate(rng))
        outcomes = [
            _stream_outcome(
                iter_events_str, harness._mutate_text(pristine, rng)
            )[1]
            for _ in range(30)
        ]
        errors = [outcome for outcome in outcomes if outcome is not None]
        assert len(errors) >= 15
        for message, offset in errors:
            assert isinstance(offset, int) and offset >= 0

    def test_forced_evaluator_divergence_is_reported_and_shrunk(
        self, monkeypatch
    ):
        """An interval engine that miscounts by one must surface as an
        evaluator-divergence failure with a shrunk twig."""
        from repro.query.interval import IntervalEvaluator

        real_selectivity = IntervalEvaluator.selectivity

        def skewed(self, query):
            return real_selectivity(self, query) + 1

        monkeypatch.setattr(IntervalEvaluator, "selectivity", skewed)
        report = DifferentialHarness(
            HarnessConfig(seed=11, rounds=1)
        ).run()
        failures = [
            f for f in report.failures if f.kind == "evaluator-divergence"
        ]
        assert failures  # every probe diverges under the skew
        for failure in failures:
            assert "tree-walk oracle" in failure.message
            assert failure.query
            assert failure.shrunk_query  # shrinking ran

    def test_round_crash_is_reported_not_raised(self, monkeypatch):
        def boom(self, seed):
            raise RuntimeError("injected crash")

        monkeypatch.setattr(DifferentialHarness, "run_round", boom)
        report = DifferentialHarness(HarnessConfig(rounds=1)).run()
        assert not report.ok
        assert report.failures[0].kind == "crash"
        assert "injected crash" in report.failures[0].message


class TestEvaluatorRounds:
    def test_evaluator_only_rounds_pass(self):
        config = HarnessConfig(seed=20060402, rounds=BOUNDED_ROUNDS)
        report = DifferentialHarness(config).run_evaluator()
        assert report.ok, report.format_text()
        assert report.rounds == BOUNDED_ROUNDS
        assert report.queries_checked > 0

    def test_evaluator_rounds_are_deterministic(self):
        config = HarnessConfig(seed=77, rounds=1)
        first = DifferentialHarness(config).run_evaluator()
        second = DifferentialHarness(config).run_evaluator()
        assert first.queries_checked == second.queries_checked
        assert first.to_dict() == second.to_dict()

    def test_twig_mutation_preserves_validity_and_varies_axes(self):
        """Mutated probes parse-compatible twigs with // or * injected."""
        harness = DifferentialHarness(HarnessConfig(seed=5))
        query = parse_twig("/item/entry[./name >= 3]/info")
        rng = random.Random(99)
        mutated = [harness._mutate_twig(query, rng) for _ in range(20)]
        texts = {twig.to_xpath() for twig in mutated}
        assert query.to_xpath() not in texts or len(texts) > 1
        assert any("//" in text for text in texts)
        for twig in mutated:
            parse_twig(twig.to_xpath())  # still well-formed

    def test_mutation_uses_a_private_stream(self):
        """The evaluator stage must not perturb later stages' rng draws:
        two full rounds with different evaluator_variants settings agree
        on every non-evaluator failure seed (here: no failures at all,
        but the reports' query counts must match)."""
        few = DifferentialHarness(
            HarnessConfig(seed=13, rounds=1, evaluator_variants=0)
        ).run()
        many = DifferentialHarness(
            HarnessConfig(seed=13, rounds=1, evaluator_variants=5)
        ).run()
        assert few.ok and many.ok
        assert few.queries_checked == many.queries_checked


class TestShrinking:
    def test_document_shrink_is_smaller_and_still_failing(self, seeded_rng):
        document = DocumentGenerator().generate(seeded_rng)
        label = next(
            e.label for e in document if e.parent is not None
        )

        def fails(tree):
            return any(e.label == label for e in tree)

        shrunk = shrink_document(document, fails)
        shrunk.validate()
        assert len(shrunk) <= len(document)
        assert fails(shrunk)

    def test_document_shrink_never_mutates_input(self, seeded_rng):
        document = DocumentGenerator().generate(seeded_rng)
        snapshot = serialize(document)
        shrink_document(document, lambda tree: True)
        assert serialize(document) == snapshot

    def test_unshrinkable_failure_returns_copy(self, seeded_rng):
        document = DocumentGenerator().generate(seeded_rng)
        size = len(document)

        def only_full_document_fails(tree):
            return len(tree) == size

        shrunk = shrink_document(document, only_full_document_fails)
        assert len(shrunk) == size

    def test_query_shrink_drops_irrelevant_branches(self):
        query = parse_twig("//item[./name contains(ab)]/entry[./info >= 3]")

        def fails(candidate):
            return any(
                node.edge and node.edge.target_label == "entry"
                for node in candidate.nodes()
            )

        shrunk = shrink_query(query, fails)
        assert fails(shrunk)
        assert shrunk.variable_count <= query.variable_count
        assert shrunk.predicate_count == 0  # both predicates irrelevant

    def test_query_shrink_never_returns_bare_root(self):
        query = parse_twig("//item")
        shrunk = shrink_query(query, lambda candidate: True)
        assert shrunk.variable_count >= 2  # root + one variable

    def test_text_shrink_minimizes_to_the_failing_core(self):
        text = "aaaa<bad>bbbb</bad>cccc"
        shrunk = shrink_text(text, lambda t: "<bad" in t)
        assert shrunk == "<bad"

    def test_text_shrink_respects_the_attempt_budget(self):
        calls = []

        def fails(candidate):
            calls.append(candidate)
            return "x" in candidate

        shrink_text("x" * 64, fails, max_attempts=10)
        assert len(calls) <= 10

    def test_text_shrink_returns_input_when_nothing_smaller_fails(self):
        text = "irreducible"
        assert shrink_text(text, lambda t: t == text) == text

    def test_copy_helpers_are_deep(self, seeded_rng):
        document = DocumentGenerator().generate(seeded_rng)
        duplicate = copy_tree(document)
        assert serialize(duplicate) == serialize(document)
        assert duplicate.root is not document.root
        query = parse_twig("//item/entry")
        replica = copy_query(query)
        assert replica.to_xpath() == query.to_xpath()
        assert replica.root is not query.root
