"""The seeded engine-parity fuzzer.

The codebase keeps two implementations of everything hot: scalar vs
vectorized candidate scoring, reference vs kernel value compression,
the scalar estimation oracle vs the compiled twig-plan engine.  The
paper's fixtures exercise them on two dataset families; this harness
exercises them on *arbitrary* documents, generated from a seed:

1. generate a random document, require its two-pass reference
   partition to equal the fixpoint oracle's
   (:mod:`repro.check.oracles`), and derive its reference synopsis;
2. **audit** the reference with the :class:`InvariantAuditor`;
3. build the budgeted synopsis twice — once per engine stack — and
   require identical shapes (node multiset + structural bytes);
4. audit the compressed synopsis;
5. generate a positive + negative twig workload and require the scalar
   oracle and the compiled estimator to agree within ``tolerance``;
6. round-trip the synopsis through serialization and require the
   restored synopsis to reproduce every estimate;
7. serialize the document and feed the identical bytes to the
   object-tree parser and the event-stream columnar ingestor: the
   reference synopses and the budgeted builds must be bit-identical
   across substrates, and the columnar build must reproduce the
   round's baseline estimates;
8. grade the round's workload — plus ``//``-heavy and wildcard mutated
   variants of every query — with both exact evaluators: the tree-walk
   oracle over ``XMLElement`` objects and the pre/post interval-join
   engine over the frozen columnar document.  Binding-tuple counts
   must be **bit-equal** (the paper's Section 2 path-multiplicity
   semantics leave no tolerance); a diverging twig is shrunk with
   :func:`repro.check.shrink.shrink_query`;
9. pit the production byte-level tokenizer against the character-scan
   oracle (:func:`repro.xmltree.events.iter_events_str`) on the
   serialized document *and* on mutated — usually malformed — variants
   of it, whole and randomly chunked: token streams, error messages,
   and error offsets must all agree.  Diverging inputs are shrunk
   character-wise (:func:`repro.check.shrink.shrink_text`).

A tenth, update-focused round (``run_updates`` / ``python -m repro
check --updates``) fuzzes incremental maintenance: seeded random
subtree inserts / deletes / value changes are applied to a columnar
document through the :class:`~repro.update.maintainer.
IncrementalMaintainer` **and** to an object-tree twin, and after every
single step the mutated columns must equal ``freeze(twin)``'s, the
maintained synopsis must equal a rebuild-from-scratch bit-exactly
(``synopsis_to_dict``), and the invariant auditor must stay green.  A
failing sequence is minimized with :func:`repro.check.shrink.
shrink_updates` (ddmin over ops, mirroring ``shrink_text``).

Every failure records the round seed — re-running the harness with
``HarnessConfig(seed=<that seed>, rounds=1)`` reproduces it exactly —
and is shrunk to a minimal counterexample before reporting (see
:mod:`repro.check.shrink`).  Determinism is strict: all randomness
flows from per-round ``random.Random`` instances; no global RNG state
is touched.
"""

from __future__ import annotations

import json
import random
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.invariants import InvariantAuditor
from repro.check.oracles import fixpoint_reference_classes
from repro.check.report import CheckReport, Failure
from repro.check.shrink import (
    copy_query,
    shrink_document,
    shrink_query,
    shrink_text,
    shrink_updates,
)
from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.estimation import CompiledEstimator
from repro.core.estimator import XClusterEstimator
from repro.core.reference import build_reference_synopsis, reference_classes
from repro.core.serialization import synopsis_from_dict, synopsis_to_dict
from repro.core.snapshot import snapshot_to_bytes, synopsis_from_snapshot
from repro.core.sizing import structural_size_bytes, value_size_bytes
from repro.core.synopsis import XClusterSynopsis
from repro.datasets.dataset import Dataset
from repro.query.ast import WILDCARD, AxisStep, EdgePath, TwigQuery
from repro.query.evaluator import TreeWalkEvaluator
from repro.query.interval import IntervalEvaluator
from repro.update.maintainer import IncrementalMaintainer
from repro.update.ops import (
    DeleteSubtree,
    InsertSubtree,
    UpdateOp,
    ValueChange,
    apply_update_tree,
    update_to_dict,
    validate_update,
)
from repro.values.summary import SummaryConfig
from repro.workload.generator import TwigWorkloadGenerator, WorkloadConfig
from repro.workload.negative import make_negative_workload
from repro.xmltree.columnar import freeze, ingest_string, thaw
from repro.xmltree.events import iter_events, iter_events_str
from repro.xmltree.parser import XMLParseError, parse_string
from repro.xmltree.serializer import serialize
from repro.xmltree.tree import XMLElement, XMLTree
from repro.xmltree.types import ValueType

_SYLLABLES = (
    "ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
    "ka", "ke", "ki", "ko", "ku", "la", "le", "li", "lo", "lu",
    "ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
    "ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su",
    "ta", "te", "ti", "to", "tu", "va", "ve", "vi", "vo", "vu",
)

_TERM_POOL = tuple(
    first + second
    for first in ("data", "meta", "node", "tree", "leaf", "path", "term", "word")
    for second in ("alpha", "beta", "gamma", "delta", "omega", "sigma")
)

#: Characters the tokenizer-round mutator splices into serialized
#: documents: markup delimiters, entity machinery, quotes — the inputs
#: most likely to desynchronize a byte scanner from a character scanner.
_MUTATION_CHARS = "<>&;/='\"!?-#x "

#: Larger splices: well-formed and malformed entity references, plus
#: non-ASCII text (2-, 3-, and 4-byte UTF-8, and a non-ASCII space that
#: ``str.isspace`` accepts but the byte scanner's ASCII tables must not).
_MUTATION_SNIPPETS = (
    "&amp;", "&lt;", "&#65;", "&#x41;",
    "&amp", "&#;", "&#xg;", "&nosuch;",
    "é", "Ωλ", "日本語", "\U0001f642", " ",
)


@dataclass
class DocumentConfig:
    """Shape knobs for generated documents.

    Defaults keep documents small enough that a full round (two builds,
    a workload, dozens of estimates) stays fast, yet deep and varied
    enough to exercise merging, all three summary families, and both
    axes.  The generated values are **round-trip safe**: serializing
    the document and re-parsing it with ``text_word_threshold=2``
    reconstructs identical labels, types, and values (STRING values are
    single non-numeric words; TEXT values carry at least two terms).
    """

    min_elements: int = 30
    max_elements: int = 120
    max_depth: int = 6
    max_children: int = 4
    labels: Sequence[str] = ("item", "entry", "name", "info", "note", "mark")
    value_probability: float = 0.75
    numeric_high: int = 500
    min_text_terms: int = 2
    max_text_terms: int = 4


def _graft_subtree(parent: XMLElement, source: XMLElement) -> None:
    """Deep-copy ``source`` (from another tree) as a child of ``parent``."""
    node = parent.add(source.label, source.value)
    for child in source.children:
        _graft_subtree(node, child)


class DocumentGenerator:
    """Seeded random XML documents (see :class:`DocumentConfig`)."""

    def __init__(self, config: Optional[DocumentConfig] = None) -> None:
        self.config = config if config is not None else DocumentConfig()

    def generate(self, rng: random.Random) -> XMLTree:
        """One random document, fully determined by ``rng``'s state."""
        config = self.config
        # Each label carries one value type for the whole document, so
        # per-path clusters look like real datasets (and the workload
        # generator finds usable predicate pools).
        label_types: Dict[str, ValueType] = {
            label: rng.choice(
                (ValueType.NUMERIC, ValueType.STRING, ValueType.TEXT)
            )
            for label in config.labels
        }
        target = rng.randint(config.min_elements, config.max_elements)
        root = XMLElement("root")
        produced = 1
        frontier: List[Tuple[XMLElement, int]] = [(root, 0)]
        while frontier and produced < target:
            parent, depth = frontier.pop(rng.randrange(len(frontier)))
            for _ in range(rng.randint(1, config.max_children)):
                if produced >= target:
                    break
                label = rng.choice(config.labels)
                child = parent.add(label)
                produced += 1
                if depth + 1 < config.max_depth and rng.random() < 0.7:
                    frontier.append((child, depth + 1))
                elif rng.random() < config.value_probability:
                    child.set_value(self._value(label_types[child.label], rng))
        return XMLTree(root)

    def _value(self, value_type: ValueType, rng: random.Random):
        config = self.config
        if value_type is ValueType.NUMERIC:
            return rng.randint(0, config.numeric_high)
        if value_type is ValueType.STRING:
            return "".join(
                rng.choice(_SYLLABLES)
                for _ in range(rng.randint(2, 4))
            )
        terms = rng.sample(
            _TERM_POOL, rng.randint(config.min_text_terms, config.max_text_terms)
        )
        return frozenset(terms)


@dataclass
class HarnessConfig:
    """Knobs of one differential run.

    Attributes:
        seed: the master seed; every round seed derives from it, and
            any failure is reproducible from its printed round seed via
            ``HarnessConfig(seed=<round seed>, rounds=1)``.
        rounds: number of independent fuzz rounds.
        tolerance: maximum relative estimate divergence between the
            scalar oracle and the compiled engine (parity is pinned at
            1e-9 elsewhere in the test suite; keep them aligned).
        structural_fraction: compressed structural budget as a fraction
            of the reference synopsis's structural bytes.
        value_fraction: same for the value budget.
        queries_per_class: workload size per query class per round.
        shrink: whether failing documents/queries are minimized.
        shrink_attempts: predicate-evaluation budget per shrink.
        audit_predicate_limit: atomic predicates probed per summary.
        tokenizer_variants: mutated-document probes per tokenizer round
            (the pristine serialization is always probed as well).
        evaluator_variants: mutated (``//``-heavy / wildcard) twig
            probes derived from each workload query in the evaluator
            round (every unmutated query is always probed as well).
        updates_per_round: seeded random update ops applied per update
            round (``run_updates``), with maintained-vs-rebuilt parity
            asserted after every single op.
        document: document-shape configuration.
    """

    seed: int = 20060402
    rounds: int = 3
    tolerance: float = 1e-9
    structural_fraction: float = 0.6
    value_fraction: float = 0.6
    queries_per_class: int = 2
    shrink: bool = True
    shrink_attempts: int = 120
    audit_predicate_limit: int = 8
    tokenizer_variants: int = 6
    evaluator_variants: int = 3
    updates_per_round: int = 40
    document: DocumentConfig = field(default_factory=DocumentConfig)


def _stream_outcome(tokenizer, source) -> Tuple:
    """``(events, error)`` from draining one tokenizer on one source.

    ``error`` is ``None`` on success, else ``(message, offset)``.  Two
    tokenizers agree exactly when their outcomes compare equal: same
    events in order, and — on malformed input — the same error at the
    same character offset after the same event prefix.
    """
    events = []
    try:
        for event in tokenizer(source):
            events.append(event)
    except XMLParseError as err:
        return tuple(events), (str(err), err.position)
    return tuple(events), None


def _outcome_summary(outcome: Tuple) -> str:
    events, error = outcome
    if error is None:
        return f"{len(events)} events, clean"
    return f"{len(events)} events, then {error[0]!r}"


def _random_chunks(data, rng: random.Random) -> List:
    """Split ``data`` (str or bytes) at random 1-7 unit boundaries."""
    chunks = []
    pos = 0
    while pos < len(data):
        step = rng.randint(1, 7)
        chunks.append(data[pos:pos + step])
        pos += step
    return chunks


def _build_shape(synopsis: XClusterSynopsis) -> Tuple:
    """The equivalence key for build parity (mirrors the benchmarks)."""
    return (
        len(synopsis),
        structural_size_bytes(synopsis),
        sorted(
            (node.label, node.value_type.value, node.count) for node in synopsis
        ),
    )


class DifferentialHarness:
    """Runs seeded differential rounds and aggregates a report."""

    def __init__(self, config: Optional[HarnessConfig] = None) -> None:
        self.config = config if config is not None else HarnessConfig()
        self.documents = DocumentGenerator(self.config.document)
        self.auditor = InvariantAuditor(
            predicate_limit=self.config.audit_predicate_limit
        )

    # -- entry points -------------------------------------------------------

    def run(self) -> CheckReport:
        """All configured rounds; every failure carries its round seed."""
        master = random.Random(self.config.seed)
        report = CheckReport(seed=self.config.seed)
        for _ in range(self.config.rounds):
            round_seed = master.randrange(2**32)
            try:
                report.extend(self.run_round(round_seed))
            except Exception:  # noqa: BLE001 - a crash IS a finding
                report.failures.append(
                    Failure(
                        kind="crash",
                        seed=round_seed,
                        message=traceback.format_exc(limit=6).strip(),
                    )
                )
                report.rounds += 1
        return report

    def run_round(self, seed: int) -> CheckReport:
        """One full differential round, reproducible from ``seed``."""
        report = CheckReport(rounds=1)
        rng = random.Random(seed)
        document = self.documents.generate(rng)
        dataset = Dataset("fuzz", document, document.value_paths())

        if reference_classes(document) != fixpoint_reference_classes(document):
            report.failures.append(
                Failure(
                    kind="partition-divergence",
                    seed=seed,
                    message="two-pass reference partition differs from "
                    "the fixpoint oracle",
                    document_size=len(document),
                )
            )
        reference = build_reference_synopsis(document, dataset.value_paths)
        self._audit(reference, seed, "reference synopsis", document, report)

        synopsis, divergence = self._build_pair(document, dataset.value_paths)
        if divergence is not None:
            report.failures.append(
                self._shrunk_build_failure(seed, document, divergence)
            )
            return report  # downstream parity on a diverged build is noise
        self._audit(synopsis, seed, "compressed synopsis", document, report)

        queries = self._workload(dataset, rng)
        report.queries_checked = len(queries)
        oracle = XClusterEstimator(synopsis)
        compiled = CompiledEstimator(synopsis)
        baseline: List[float] = []
        for query in queries:
            expected = oracle.estimate(query)
            baseline.append(expected)
            actual = compiled.estimate(query)
            if self._diverges(expected, actual):
                report.failures.append(
                    self._shrunk_estimate_failure(
                        seed, document, synopsis, query, expected, actual
                    )
                )
        for issue in compiled.index.invariant_issues():
            report.failures.append(
                Failure(
                    kind="audit",
                    seed=seed,
                    message=f"synopsis index: {issue}",
                    document_size=len(document),
                )
            )
        report.failures.extend(
            self._serialization_failures(seed, synopsis, queries, baseline)
        )
        report.failures.extend(
            self._snapshot_failures(seed, synopsis, queries)
        )
        report.failures.extend(
            self._columnar_failures(seed, document, queries, baseline)
        )
        # Draws only from a private seed-derived stream, so the round
        # rng's draws (and thus every other stage) stay untouched.
        report.failures.extend(self._evaluator_failures(seed, document, queries))
        # Last stage, so its rng draws never perturb the seeds that
        # reproduce failures from the earlier stages.
        report.failures.extend(self._tokenizer_failures(seed, document, rng))
        return report

    def run_evaluator(self) -> CheckReport:
        """Evaluator-focused rounds: document + workload + stage 8 only.

        The full :meth:`run` already includes the evaluator stage; this
        entry point (behind ``python -m repro check --evaluator``) skips
        the synopsis builds and estimator stages so many more
        interval-vs-treewalk probes fit in the same wall-clock.
        """
        master = random.Random(self.config.seed)
        report = CheckReport(seed=self.config.seed)
        for _ in range(self.config.rounds):
            round_seed = master.randrange(2**32)
            try:
                report.extend(self.run_evaluator_round(round_seed))
            except Exception:  # noqa: BLE001 - a crash IS a finding
                report.failures.append(
                    Failure(
                        kind="crash",
                        seed=round_seed,
                        message=traceback.format_exc(limit=6).strip(),
                    )
                )
                report.rounds += 1
        return report

    def run_evaluator_round(self, seed: int) -> CheckReport:
        """One evaluator-only round, reproducible from ``seed``."""
        report = CheckReport(rounds=1)
        rng = random.Random(seed)
        document = self.documents.generate(rng)
        dataset = Dataset("fuzz", document, document.value_paths())
        queries = self._workload(dataset, rng)
        report.queries_checked = len(queries)
        report.failures.extend(self._evaluator_failures(seed, document, queries))
        return report

    def run_updates(self) -> CheckReport:
        """Update-maintenance rounds (``python -m repro check --updates``).

        Each round applies :attr:`HarnessConfig.updates_per_round`
        seeded random ops and asserts, after **every** op: mutated
        columns equal ``freeze``-of-twin columns, maintained synopsis
        equals rebuild-from-scratch bit-exactly, invariant auditor
        green.  A failing sequence is ddmin-minimized.
        """
        master = random.Random(self.config.seed)
        report = CheckReport(seed=self.config.seed)
        for _ in range(self.config.rounds):
            round_seed = master.randrange(2**32)
            try:
                report.extend(self.run_update_round(round_seed))
            except Exception:  # noqa: BLE001 - a crash IS a finding
                report.failures.append(
                    Failure(
                        kind="crash",
                        seed=round_seed,
                        message=traceback.format_exc(limit=6).strip(),
                    )
                )
                report.rounds += 1
        return report

    def run_update_round(self, seed: int) -> CheckReport:
        """One update-maintenance round, reproducible from ``seed``."""
        report = CheckReport(rounds=1)
        rng = random.Random(seed)
        document = self.documents.generate(rng)
        xml = serialize(document)
        # Updates draw from a private seed-derived stream, so document
        # generation (shared with the other rounds) stays untouched.
        update_rng = random.Random(seed ^ 0x0BDA7E5)
        maintainer = IncrementalMaintainer(
            ingest_string(xml, text_word_threshold=2),
            None,
            text_word_threshold=2,
        )
        twin = parse_string(xml, text_word_threshold=2)
        ops: List[UpdateOp] = []
        for step in range(self.config.updates_per_round):
            op = self._random_update(maintainer.doc, update_rng)
            ops.append(op)
            problem = self._update_step_problem(maintainer, twin, op)
            if problem is not None:
                report.failures.append(
                    self._shrunk_update_failure(
                        seed, xml, ops, f"step {step}: {problem}"
                    )
                )
                return report  # later steps on a diverged state are noise
        report.queries_checked = len(ops)
        return report

    # -- update round ---------------------------------------------------------

    def _random_update(self, doc, rng: random.Random) -> UpdateOp:
        """One random op against the doc's *current* state.

        Ops are recorded before validation, so replay (and ddmin) is a
        pure function of the recorded list — ops the mutated state no
        longer admits are skipped identically on both substrates.
        """
        size = len(doc)
        roll = rng.random()
        if roll < 0.25:
            parent = rng.randrange(size)
            position = rng.randint(0, sum(1 for _ in doc.children(parent)))
            return InsertSubtree(parent, position, self._fragment(rng))
        if roll < 0.40 and size > 1:  # a copy of an element, as its next sibling
            index = rng.randrange(1, size)
            parent = doc.parent_of(index)
            position = list(doc.children(parent)).index(index) + 1
            return InsertSubtree(parent, position, serialize(thaw(doc, index)))
        if roll < 0.60 and size > 1:
            return DeleteSubtree(rng.randrange(1, size))
        return ValueChange(rng.randrange(size), self._random_value_text(rng))

    def _fragment(self, rng: random.Random) -> str:
        """Serialized XML for a small insertable fragment (1-5 elements).

        Values go only on childless nodes, mirroring the generator's
        round-trip-safety rule: both substrates parse the fragment from
        its serialized form, so mixed content would desynchronize them.
        """
        config = self.config.document
        root = XMLElement(rng.choice(config.labels))
        nodes = [root]
        for _ in range(rng.randrange(5)):
            parent = rng.choice(nodes)
            nodes.append(parent.add(rng.choice(config.labels)))
        for node in nodes:
            if not node.children and rng.random() < config.value_probability:
                vtype = rng.choice(
                    (ValueType.NUMERIC, ValueType.STRING, ValueType.TEXT)
                )
                node.set_value(self.documents._value(vtype, rng))
        return serialize(XMLTree(root))

    def _random_value_text(self, rng: random.Random) -> str:
        """Raw text for a ``ValueChange``, covering every typing path."""
        roll = rng.randrange(6)
        if roll == 0:
            return str(rng.randint(0, self.config.document.numeric_high))
        if roll == 1:
            return str(-rng.randint(1, 50))
        if roll == 2:  # int64 overflow -> side-table path
            return str(2**63 + rng.randint(0, 9))
        if roll == 3:  # single non-numeric word -> STRING
            return "".join(
                rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4))
            )
        if roll == 4:  # >= text_word_threshold words -> TEXT
            return " ".join(rng.sample(_TERM_POOL, rng.randint(2, 4)))
        return "  "  # whitespace-only -> value removal (NULL)

    def _update_step_problem(
        self, maintainer: IncrementalMaintainer, twin: XMLTree, op: UpdateOp
    ) -> Optional[str]:
        """Apply one op to both substrates; first parity violation or None.

        Inapplicable ops (stale index after a delete, etc.) are skipped
        — a deterministic no-op on both sides, which keeps ddmin replay
        honest.  After an applied op the maintained columns must equal
        ``freeze(twin)``'s semantically, the maintained synopsis must
        equal a rebuild-from-scratch bit-exactly, and the invariant
        auditor must stay green.
        """
        if validate_update(maintainer.doc, op) is not None:
            return None
        maintainer.apply(op)
        apply_update_tree(twin, op, 2)
        oracle_doc = freeze(twin)
        mismatch = self._columns_mismatch(maintainer.doc, oracle_doc)
        if mismatch is not None:
            return f"column divergence after {op.op}: {mismatch}"
        rebuilt = build_reference_synopsis(oracle_doc, None, SummaryConfig())
        if synopsis_to_dict(maintainer.synopsis) != synopsis_to_dict(rebuilt):
            return (
                f"maintained synopsis diverges from rebuild after {op.op} "
                f"({len(maintainer.synopsis)} vs {len(rebuilt)} nodes)"
            )
        violations = self.auditor.audit(maintainer.synopsis)
        if violations:
            return (
                f"maintained synopsis fails audit after {op.op}: "
                f"{violations[0]}"
            )
        return None

    @staticmethod
    def _columns_mismatch(doc, oracle) -> Optional[str]:
        """First column disagreement between two columnar documents.

        Structural columns hold element indices, so they compare raw;
        labels, paths, and values compare *semantically* (interned ids
        may renumber once mutation history diverges from ingest order —
        a deleted label keeps its slot in the mutated doc's table).
        """
        if len(doc) != len(oracle):
            return f"element count {len(doc)} vs {len(oracle)}"
        for name in ("parent", "first_child", "next_sibling", "post", "level"):
            mine = getattr(doc, name)
            theirs = getattr(oracle, name)
            for index in range(len(doc)):
                if mine[index] != theirs[index]:
                    return f"{name}[{index}] = {mine[index]} vs {theirs[index]}"
        for index in range(len(doc)):
            if doc.label(index) != oracle.label(index):
                return (
                    f"label[{index}] = {doc.label(index)!r} "
                    f"vs {oracle.label(index)!r}"
                )
            if doc.label_path(index) != oracle.label_path(index):
                return (
                    f"path[{index}] = {doc.label_path(index)!r} "
                    f"vs {oracle.label_path(index)!r}"
                )
            if doc.value(index) != oracle.value(index):
                return (
                    f"value[{index}] = {doc.value(index)!r} "
                    f"vs {oracle.value(index)!r}"
                )
        return None

    def _updates_diverge(self, xml: str, ops: Sequence[UpdateOp]) -> bool:
        """ddmin predicate: does replaying ``ops`` from ``xml`` still fail?"""
        try:
            maintainer = IncrementalMaintainer(
                ingest_string(xml, text_word_threshold=2),
                None,
                text_word_threshold=2,
            )
            twin = parse_string(xml, text_word_threshold=2)
            for op in ops:
                if self._update_step_problem(maintainer, twin, op) is not None:
                    return True
        except Exception:  # noqa: BLE001 - a crash still reproduces a bug
            return True
        return False

    def _shrunk_update_failure(
        self, seed: int, xml: str, ops: List[UpdateOp], message: str
    ) -> Failure:
        """An ``update-divergence`` failure; size fields count *ops*."""
        failure = Failure(
            kind="update-divergence",
            seed=seed,
            message=message,
            document_size=len(ops),
        )
        if not self.config.shrink:
            return failure
        shrunk = shrink_updates(
            list(ops),
            lambda sequence: self._updates_diverge(xml, sequence),
            max_attempts=self.config.shrink_attempts,
        )
        failure.shrunk_size = len(shrunk)
        failure.shrunk_document = json.dumps(
            [update_to_dict(op) for op in shrunk]
        )
        return failure

    # -- stages ---------------------------------------------------------------

    def _audit(
        self,
        synopsis: XClusterSynopsis,
        seed: int,
        stage: str,
        document: XMLTree,
        report: CheckReport,
    ) -> None:
        for violation in self.auditor.audit(synopsis):
            report.failures.append(
                Failure(
                    kind="audit",
                    seed=seed,
                    message=f"{stage}: {violation}",
                    document_size=len(document),
                )
            )

    def _build_pair(
        self, document: XMLTree, value_paths
    ) -> Tuple[Optional[XClusterSynopsis], Optional[str]]:
        """Both engine stacks' builds; (synopsis, None) on parity."""
        reference = build_reference_synopsis(document, value_paths)
        structural = max(
            256,
            int(structural_size_bytes(reference) * self.config.structural_fraction),
        )
        value = max(
            256, int(value_size_bytes(reference) * self.config.value_fraction)
        )
        shapes = {}
        synopsis = None
        for scoring, value_engine in (
            ("scalar", "reference"),
            ("vectorized", "kernel"),
        ):
            config = BuildConfig(
                structural_budget=structural,
                value_budget=value,
                scoring=scoring,
                value_engine=value_engine,
            )
            built = XClusterBuilder(config).build(document, value_paths)
            shapes[scoring] = _build_shape(built)
            synopsis = built  # keep the optimized build for estimation
        if shapes["scalar"] != shapes["vectorized"]:
            return None, (
                "scalar/reference and vectorized/kernel builds diverge: "
                f"{shapes['scalar'][:2]} vs {shapes['vectorized'][:2]}"
            )
        return synopsis, None

    def _workload(self, dataset: Dataset, rng: random.Random) -> List[TwigQuery]:
        workload_seed = rng.randrange(2**32)
        generator = TwigWorkloadGenerator(
            dataset,
            seed=workload_seed,
            config=WorkloadConfig(
                queries_per_class=self.config.queries_per_class,
                max_attempts=20,
                pool_size=16,
            ),
        )
        positive = generator.generate()
        negative = make_negative_workload(dataset, positive, seed=workload_seed)
        return [wq.query for wq in positive.queries] + [
            wq.query for wq in negative.queries
        ]

    def _diverges(self, expected: float, actual: float) -> bool:
        scale = max(1.0, abs(expected))
        return abs(expected - actual) > self.config.tolerance * scale

    # -- failure construction (with shrinking) ----------------------------------

    def _shrunk_build_failure(
        self, seed: int, document: XMLTree, message: str
    ) -> Failure:
        failure = Failure(
            kind="build-divergence",
            seed=seed,
            message=message,
            document_size=len(document),
        )
        if not self.config.shrink:
            return failure

        def still_diverges(tree: XMLTree) -> bool:
            if len(tree) < 2:
                return False
            try:
                _, divergence = self._build_pair(tree, tree.value_paths())
            except Exception:  # noqa: BLE001 - a crash still reproduces a bug
                return True
            return divergence is not None

        shrunk = shrink_document(
            document, still_diverges, max_attempts=self.config.shrink_attempts
        )
        failure.shrunk_size = len(shrunk)
        failure.shrunk_document = serialize(shrunk)
        return failure

    def _shrunk_estimate_failure(
        self,
        seed: int,
        document: XMLTree,
        synopsis: XClusterSynopsis,
        query: TwigQuery,
        expected: float,
        actual: float,
    ) -> Failure:
        failure = Failure(
            kind="estimate-divergence",
            seed=seed,
            message=(
                f"scalar oracle {expected!r} vs compiled engine {actual!r}"
            ),
            query=query.to_xpath(),
            document_size=len(document),
        )
        if not self.config.shrink:
            return failure

        oracle = XClusterEstimator(synopsis)

        def still_diverges(candidate: TwigQuery) -> bool:
            try:
                return self._diverges(
                    oracle.estimate(candidate),
                    CompiledEstimator(synopsis).estimate(candidate),
                )
            except Exception:  # noqa: BLE001
                return True

        shrunk = shrink_query(query, still_diverges)
        failure.shrunk_query = shrunk.to_xpath()
        return failure

    def _columnar_failures(
        self,
        seed: int,
        document: XMLTree,
        queries: List[TwigQuery],
        baseline: List[float],
    ) -> List[Failure]:
        """The streaming-ingest round.

        Serialize the round's document, then feed the identical bytes
        to both front ends: the object-tree parser and the event-stream
        columnar ingestor.  The reference synopses and the budgeted
        builds must be bit-identical across substrates, and the
        columnar-substrate build must reproduce the round's baseline
        estimates within tolerance.  (The generated documents are
        round-trip safe at ``text_word_threshold=2`` — see
        :class:`DocumentConfig`.)
        """
        failures: List[Failure] = []
        xml = serialize(document)
        parsed = parse_string(xml, text_word_threshold=2)
        columnar = ingest_string(xml, text_word_threshold=2)
        value_paths = parsed.value_paths()

        object_reference = build_reference_synopsis(parsed, value_paths)
        columnar_reference = build_reference_synopsis(columnar, value_paths)
        if synopsis_to_dict(object_reference) != synopsis_to_dict(
            columnar_reference
        ):
            failures.append(
                Failure(
                    kind="columnar-divergence",
                    seed=seed,
                    message=(
                        "event-stream ingest and object-tree parse yield "
                        "different reference synopses"
                    ),
                    document_size=len(document),
                )
            )
            return failures  # a diverged substrate makes the build moot

        structural = max(
            256,
            int(
                structural_size_bytes(object_reference)
                * self.config.structural_fraction
            ),
        )
        value = max(
            256,
            int(value_size_bytes(object_reference) * self.config.value_fraction),
        )
        config = BuildConfig(
            structural_budget=structural,
            value_budget=value,
            scoring="vectorized",
            value_engine="kernel",
        )
        object_built = XClusterBuilder(config).build(parsed, value_paths)
        columnar_built = XClusterBuilder(config).build(columnar, value_paths)
        if synopsis_to_dict(object_built) != synopsis_to_dict(columnar_built):
            failures.append(
                Failure(
                    kind="columnar-divergence",
                    seed=seed,
                    message=(
                        "budgeted builds diverge between the columnar and "
                        "object-tree substrates"
                    ),
                    document_size=len(document),
                )
            )
            return failures

        estimator = XClusterEstimator(columnar_built)
        for query, expected in zip(queries, baseline):
            actual = estimator.estimate(query)
            if self._diverges(expected, actual):
                failures.append(
                    Failure(
                        kind="columnar-divergence",
                        seed=seed,
                        message=(
                            f"columnar-substrate build estimates {actual!r}, "
                            f"object baseline {expected!r}"
                        ),
                        query=query.to_xpath(),
                        document_size=len(document),
                    )
                )
        return failures

    def _evaluator_failures(
        self, seed: int, document: XMLTree, queries: List[TwigQuery]
    ) -> List[Failure]:
        """The exact-evaluation parity round.

        Freeze the round's document into columns and require the
        interval-join engine to reproduce the tree-walk oracle's
        binding-tuple count **bit-exactly** on every workload query and
        on mutated variants that stress the paper's path-multiplicity
        rule: child steps flipped to ``//`` (one element reachable via
        several step-paths) and name tests widened to ``*``.  Mutation
        randomness comes from a private seed-derived stream, so earlier
        stages' failure seeds stay reproducible.
        """
        failures: List[Failure] = []
        oracle = TreeWalkEvaluator(document)
        engine = IntervalEvaluator(freeze(document))
        mutation_rng = random.Random(seed ^ 0x5E1EC7)
        probes = list(queries)
        for query in queries:
            probes.extend(
                self._mutate_twig(query, mutation_rng)
                for _ in range(self.config.evaluator_variants)
            )
        for query in probes:
            expected = oracle.selectivity(query)
            actual = engine.selectivity(query)
            if expected != actual:
                failures.append(
                    self._shrunk_evaluator_failure(
                        seed, document, oracle, engine, query, expected, actual
                    )
                )
        return failures

    def _mutate_twig(self, query: TwigQuery, rng: random.Random) -> TwigQuery:
        """A ``//``-heavier / wildcarded variant of one twig query."""
        mutated = copy_query(query)
        for node in mutated.nodes():
            if node.edge is None:
                continue
            steps = []
            for step in node.edge.steps:
                axis = step.axis
                label = step.label
                if axis == "child" and rng.random() < 0.4:
                    axis = "descendant"
                if rng.random() < 0.2:
                    label = WILDCARD
                steps.append(AxisStep(axis, label))
            node.edge = EdgePath(tuple(steps))
        return mutated

    def _shrunk_evaluator_failure(
        self,
        seed: int,
        document: XMLTree,
        oracle: TreeWalkEvaluator,
        engine: IntervalEvaluator,
        query: TwigQuery,
        expected: int,
        actual: int,
    ) -> Failure:
        failure = Failure(
            kind="evaluator-divergence",
            seed=seed,
            message=(
                f"tree-walk oracle counts {expected!r}, "
                f"interval engine counts {actual!r}"
            ),
            query=query.to_xpath(),
            document_size=len(document),
        )
        if not self.config.shrink:
            return failure

        def still_diverges(candidate: TwigQuery) -> bool:
            try:
                return oracle.selectivity(candidate) != engine.selectivity(
                    candidate
                )
            except Exception:  # noqa: BLE001 - a crash still reproduces a bug
                return True

        shrunk = shrink_query(query, still_diverges)
        failure.shrunk_query = shrunk.to_xpath()
        return failure

    def _tokenizer_failures(
        self, seed: int, document: XMLTree, rng: random.Random
    ) -> List[Failure]:
        """The tokenizer-parity round.

        Serialize the round's document, derive mutated — usually
        malformed — variants of it, and require the production byte
        scanner (:func:`iter_events`) to reproduce the character-scan
        oracle (:func:`iter_events_str`) exactly on every variant:
        identical event streams on well-formed input, identical error
        message and character offset on malformed input, whole and
        randomly chunked (byte chunks may split inside multi-byte
        UTF-8 sequences).  A diverging input is shrunk character-wise
        with :func:`shrink_text`; for this kind, ``document_size`` and
        ``shrunk_size`` count characters, not elements.
        """
        failures: List[Failure] = []
        pristine = serialize(document)
        variants = [pristine] + [
            self._mutate_text(pristine, rng)
            for _ in range(self.config.tokenizer_variants)
        ]
        for variant in variants:
            message = self._tokenizer_diverges(variant)
            if message is None:
                continue
            failure = Failure(
                kind="tokenizer-divergence",
                seed=seed,
                message=message,
                document_size=len(variant),
            )
            if self.config.shrink:
                shrunk = shrink_text(
                    variant,
                    lambda text: self._tokenizer_diverges(text) is not None,
                    max_attempts=self.config.shrink_attempts,
                )
                failure.shrunk_size = len(shrunk)
                failure.shrunk_document = shrunk
            failures.append(failure)
        return failures

    def _mutate_text(self, text: str, rng: random.Random) -> str:
        """One mutated variant of a serialized document (1-3 edits)."""
        for _ in range(rng.randint(1, 3)):
            op = rng.randrange(5)
            if op == 0 and len(text) > 1:  # delete a span
                start = rng.randrange(len(text))
                text = text[:start] + text[start + rng.randint(1, 8):]
            elif op == 1:  # splice in a markup character
                at = rng.randint(0, len(text))
                text = text[:at] + rng.choice(_MUTATION_CHARS) + text[at:]
            elif op == 2 and text:  # overwrite one character
                at = rng.randrange(len(text))
                text = text[:at] + rng.choice(_MUTATION_CHARS) + text[at + 1:]
            elif op == 3:  # splice in an entity/unicode snippet
                at = rng.randint(0, len(text))
                text = text[:at] + rng.choice(_MUTATION_SNIPPETS) + text[at:]
            else:  # truncate the tail
                text = text[: rng.randint(0, len(text))]
        return text

    def _tokenizer_diverges(self, text: str) -> Optional[str]:
        """First tokenizer-parity violation on ``text``, or ``None``.

        Chunk boundaries come from a fixed-seed rng, so the verdict is
        a pure function of ``text`` — which is what makes
        :func:`shrink_text`'s predicate re-runs meaningful.
        """
        expected = _stream_outcome(iter_events_str, text)
        chunk_rng = random.Random(0xC0FFEE)
        data = text.encode("utf-8", "surrogatepass")
        probes = (
            ("byte scan of the whole str", iter_events, text),
            ("byte scan of the whole bytes", iter_events, data),
            (
                "byte scan over random byte chunks",
                iter_events,
                iter(_random_chunks(data, chunk_rng)),
            ),
            (
                "char scan over random str chunks",
                iter_events_str,
                iter(_random_chunks(text, chunk_rng)),
            ),
        )
        for name, tokenizer, source in probes:
            actual = _stream_outcome(tokenizer, source)
            if actual != expected:
                return (
                    f"{name} disagrees with the char-scan oracle: "
                    f"{_outcome_summary(actual)} vs "
                    f"{_outcome_summary(expected)}"
                )
        return None

    def _serialization_failures(
        self,
        seed: int,
        synopsis: XClusterSynopsis,
        queries: List[TwigQuery],
        baseline: List[float],
    ) -> List[Failure]:
        restored = synopsis_from_dict(synopsis_to_dict(synopsis))
        failures: List[Failure] = []
        violations = self.auditor.audit(restored)
        for violation in violations:
            failures.append(
                Failure(
                    kind="serialization-divergence",
                    seed=seed,
                    message=f"restored synopsis fails audit: {violation}",
                )
            )
        oracle = XClusterEstimator(restored)
        for query, expected in zip(queries, baseline):
            actual = oracle.estimate(query)
            if self._diverges(expected, actual):
                failures.append(
                    Failure(
                        kind="serialization-divergence",
                        seed=seed,
                        message=(
                            f"estimate {expected!r} became {actual!r} after "
                            "a serialization round-trip"
                        ),
                        query=query.to_xpath(),
                    )
                )
        return failures

    def _snapshot_failures(
        self,
        seed: int,
        synopsis: XClusterSynopsis,
        queries: List[TwigQuery],
    ) -> List[Failure]:
        """The binary-snapshot round.

        Encode the round's synopsis both ways — interchange JSON and the
        mmap snapshot format — reload each, and demand *bit-identical*
        estimates (``!=`` on floats, no tolerance) across the fuzzed
        workload.  The snapshot loader defers summary decoding, so the
        audit plus estimation here also exercises every lazy-decode
        thunk; a diverging query is shrunk to a minimal counterexample.
        """
        failures: List[Failure] = []
        encoded = synopsis_to_dict(synopsis)
        json_loaded = synopsis_from_dict(encoded)
        snapshot_loaded = synopsis_from_snapshot(snapshot_to_bytes(synopsis))

        if synopsis_to_dict(snapshot_loaded) != encoded:
            failures.append(
                Failure(
                    kind="snapshot-divergence",
                    seed=seed,
                    message=(
                        "snapshot round-trip does not reproduce "
                        "synopsis_to_dict"
                    ),
                )
            )
        for violation in self.auditor.audit(snapshot_loaded):
            failures.append(
                Failure(
                    kind="snapshot-divergence",
                    seed=seed,
                    message=f"snapshot-loaded synopsis fails audit: {violation}",
                )
            )

        json_estimator = CompiledEstimator(json_loaded)
        snapshot_estimator = CompiledEstimator(snapshot_loaded)
        for query in queries:
            expected = json_estimator.estimate(query)
            actual = snapshot_estimator.estimate(query)
            if actual != expected:
                failure = Failure(
                    kind="snapshot-divergence",
                    seed=seed,
                    message=(
                        f"JSON load estimates {expected!r} but snapshot "
                        f"load estimates {actual!r} (bit-exact required)"
                    ),
                    query=query.to_xpath(),
                )
                if self.config.shrink:

                    def still_diverges(candidate: TwigQuery) -> bool:
                        try:
                            return json_estimator.estimate(
                                candidate
                            ) != snapshot_estimator.estimate(candidate)
                        except Exception:  # noqa: BLE001
                            return True

                    shrunk = shrink_query(query, still_diverges)
                    failure.shrunk_query = shrunk.to_xpath()
                failures.append(failure)
        return failures

    # -- collection rounds (python -m repro check --collection) -------------

    def run_collection(self) -> CheckReport:
        """Collection-store rounds: shard routing vs a monolithic oracle.

        Each round builds a real on-disk collection (exact mode, no
        compression) from seeded random documents with repeated
        structures, then requires, per structural workload query:

        * **routed parity** — ``store.estimate(doc_id, q)`` bit-equals
          the estimate of a synopsis built directly from that document
          (the snapshot/container/routing stack adds zero drift);
        * **oracle parity** — the collection-wide exact sum equals both
          the summed per-document interval-join counts and the estimate
          of one monolithic synopsis built over the merged document
          (via :func:`~repro.collection.rollup.merged_document_events`).

        Queries whose merged-document count differs from the per-document
        sum (root-binding twigs: merging documents under one shared root
        changes their semantics) are skipped — additivity is the
        precondition of the oracle, not a claim about such queries.
        """
        master = random.Random(self.config.seed)
        report = CheckReport(seed=self.config.seed)
        for _ in range(self.config.rounds):
            round_seed = master.randrange(2**32)
            try:
                report.extend(self.run_collection_round(round_seed))
            except Exception:  # noqa: BLE001 - a crash IS a finding
                report.failures.append(
                    Failure(
                        kind="crash",
                        seed=round_seed,
                        message=traceback.format_exc(limit=6).strip(),
                    )
                )
                report.rounds += 1
        return report

    def run_collection_round(self, seed: int) -> CheckReport:
        """One collection round, reproducible from ``seed``."""
        import tempfile

        from repro.collection import (
            CollectionConfig,
            CollectionStore,
            build_collection,
            merged_document_events,
        )
        from repro.xmltree.columnar import from_events

        report = CheckReport(rounds=1)
        rng = random.Random(seed)
        sources = [
            serialize(self.documents.generate(rng)) for _ in range(4)
        ]
        documents = [
            (f"doc-{index:03d}", sources[rng.randrange(len(sources))])
            for index in range(10)
        ]

        # The monolithic oracle: one merged document, built through the
        # same event-splice a monolithic ingest of the corpus would see.
        merged_doc = from_events(
            merged_document_events(xml for _, xml in documents),
            text_word_threshold=2,
        )
        merged_reference = build_reference_synopsis(
            merged_doc, merged_doc.value_paths()
        )
        merged_estimator = CompiledEstimator(merged_reference)
        merged_exact = IntervalEvaluator(merged_doc)

        # Workload over the merged shape, structural queries only (value
        # summaries are sampled, so only structure is exactly additive).
        parsed = {
            xml: parse_string(xml, text_word_threshold=2)
            for xml in sources
        }
        merged_root = XMLElement(parsed[documents[0][1]].root.label)
        for _, xml in documents:
            for child in parsed[xml].root.children:
                _graft_subtree(merged_root, child)
        merged_tree = XMLTree(merged_root)
        dataset = Dataset(
            "collection-fuzz", merged_tree, merged_tree.value_paths()
        )
        queries = [
            query for query in self._workload(dataset, rng)
            if query.is_structural
        ]
        report.queries_checked = len(queries)

        # Per-distinct direct estimators and exact evaluators — the
        # "no collection machinery" baseline.
        direct: Dict[str, CompiledEstimator] = {}
        exact: Dict[str, IntervalEvaluator] = {}
        for _, xml in documents:
            if xml in direct:
                continue
            doc = ingest_string(xml, text_word_threshold=2)
            direct[xml] = CompiledEstimator(
                build_reference_synopsis(doc, doc.value_paths())
            )
            exact[xml] = IntervalEvaluator(doc)

        with tempfile.TemporaryDirectory() as root:
            build_collection(
                root,
                documents,
                CollectionConfig(shard_count=3, compress=False),
            )
            store = CollectionStore(root, max_open_shards=2, verify=True)
            for query in queries:
                for doc_id, xml in documents:
                    routed = store.estimate(doc_id, query)
                    expected = direct[xml].estimate(query)
                    if routed != expected:
                        report.failures.append(
                            Failure(
                                kind="collection-divergence",
                                seed=seed,
                                message=(
                                    f"routed estimate for {doc_id} is "
                                    f"{routed!r} but the direct synopsis "
                                    f"gives {expected!r} (bit-exact "
                                    f"required)"
                                ),
                                query=query.to_xpath(),
                            )
                        )
                exact_sum = sum(
                    exact[xml].selectivity(query) for _, xml in documents
                )
                if merged_exact.selectivity(query) != exact_sum:
                    continue  # root-binding twig: additivity doesn't apply
                collection_estimate = store.estimate_collection(query)
                oracle_estimate = merged_estimator.estimate(query)
                scale = max(1.0, abs(float(exact_sum)))
                for name, actual in (
                    ("exact per-document sum", float(exact_sum)),
                    ("monolithic merged-document synopsis", oracle_estimate),
                ):
                    if (
                        abs(collection_estimate - actual)
                        > self.config.tolerance * scale
                    ):
                        report.failures.append(
                            Failure(
                                kind="collection-divergence",
                                seed=seed,
                                message=(
                                    f"collection-wide estimate "
                                    f"{collection_estimate!r} diverges from "
                                    f"the {name} {actual!r}"
                                ),
                                query=query.to_xpath(),
                            )
                        )
        return report


def run_differential_check(
    seed: int = 20060402,
    rounds: int = 3,
    config: Optional[HarnessConfig] = None,
) -> CheckReport:
    """Convenience wrapper: run the harness with default settings."""
    if config is None:
        config = HarnessConfig(seed=seed, rounds=rounds)
    else:
        config = replace(config, seed=seed, rounds=rounds)
    return DifferentialHarness(config).run()
