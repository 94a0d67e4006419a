"""The uniform value-summary interface consumed by the synopsis core.

Each XCluster node with values carries a ``vsumm`` — one of the three
concrete summaries below — behind a single interface providing exactly
what construction and estimation need:

* ``selectivity(predicate)`` — the fraction σ_p(u) of the node's values
  satisfying a predicate (Path-Value Independence, Section 5);
* ``atomic_predicates(limit)`` — the atomic predicates of the Δ metric
  (Section 4.1): prefix ranges for histograms, indexed substrings for
  PSTs, individual terms for term histograms;
* ``fuse(other)`` — the type-specific fusion function f() applied during
  node merges;
* ``compress(amount)`` — one value-compression step (``hist_cmprs``,
  ``st_cmprs``, ``tv_cmprs``), returning a *new* summary so the builder
  can score Δ(S, S′) against the uncompressed original;
* ``size_bytes()`` — byte-accurate storage accounting.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.query.predicates import (
    AtLeastKPredicate,
    KeywordPredicate,
    Predicate,
    RangePredicate,
    SubstringPredicate,
)
from repro.values.ebth import EndBiasedTermHistogram
from repro.values.histogram import Histogram
from repro.values.kernels.ebth import fuse_ebth
from repro.values.kernels.histogram import compress_histogram
from repro.values.kernels.pst import fuse_psts
from repro.values.pst import PrunedSuffixTree, _Node
from repro.values.termvector import TermCentroid, Vocabulary
from repro.values.wavelet import HaarWavelet
from repro.xmltree.types import ValueType


@dataclass
class SummaryConfig:
    """Knobs for building the *detailed* reference-synopsis summaries.

    Attributes:
        histogram_buckets: bucket budget of a detailed NUMERIC histogram.
        pst_max_depth: maximum indexed substring length.
        pst_max_nodes: hard node cap for a detailed PST.
        pst_nodes_per_string: per-cluster PST detail scales with the
            number of summarized strings (full substring tries for tiny
            clusters would bloat the reference synopsis with redundant
            detail; the paper's reference summaries approximate value
            distributions "with low error", not losslessly).
        vocabulary: the synopsis-wide term-id space for TEXT summaries.
        atomic_predicate_limit: cap on atomic predicates per summary when
            evaluating the Δ metric.
    """

    histogram_buckets: int = 64
    #: NUMERIC summarization mechanism: "histogram" (default) or
    #: "wavelet" (the paper's named alternative, §3).
    numeric_summary: str = "histogram"
    wavelet_coefficients: int = 64
    pst_max_depth: int = 5
    pst_max_nodes: int = 2048
    pst_nodes_per_string: int = 16
    vocabulary: Vocabulary = field(default_factory=Vocabulary)
    atomic_predicate_limit: int = 48


class ValueSummary:
    """Abstract value-distribution summary attached to a synopsis node."""

    value_type: ValueType = ValueType.NULL

    @property
    def count(self) -> float:
        """Number of element values summarized."""
        raise NotImplementedError

    def selectivity(self, predicate: Predicate) -> float:
        """Estimated fraction of values satisfying ``predicate``."""
        raise NotImplementedError

    def fast_selectivity(self, predicate: Predicate) -> float:
        """``selectivity`` via the cheapest equivalent evaluation path.

        The candidate-scoring engine resolves selectivities in bulk, so
        summaries may serve it from sub-linear structures (the histogram
        answers range predicates from a cached CDF).  The default simply
        delegates; overrides must stay numerically equivalent to
        :meth:`selectivity` up to float rounding.
        """
        return self.selectivity(predicate)

    def atomic_predicates(self, limit: int = 48) -> List[Predicate]:
        """The localized micro-benchmark predicates for the Δ metric."""
        raise NotImplementedError

    def canonical_atomic_predicates(self, limit: int = 48) -> Tuple[Predicate, ...]:
        """The atomic predicates as a stable, memoized tuple.

        Summaries are immutable once attached to a synopsis node (fusion
        and compression both return *new* objects), so the atomic set is
        a pure function of the summary and can be canonicalized once:
        the candidate-scoring engine keys selectivity profiles on it and
        avoids re-enumerating predicate sets per candidate pair (for
        suffix-tree summaries each enumeration walks and sorts the whole
        trie).  The tuple preserves ``atomic_predicates`` order exactly.
        """
        memo = self.__dict__.get("_canonical_predicates")
        if memo is None:
            memo = {}
            self.__dict__["_canonical_predicates"] = memo
        canonical = memo.get(limit)
        if canonical is None:
            canonical = tuple(self.atomic_predicates(limit))
            memo[limit] = canonical
        return canonical

    def fuse(self, other: "ValueSummary") -> "ValueSummary":
        """Combine with another summary of the same type (node merge)."""
        raise NotImplementedError

    @property
    def can_compress(self) -> bool:
        """Whether a further compression step is possible."""
        raise NotImplementedError

    def compress(self, amount: int = 1) -> Optional["ValueSummary"]:
        """A new summary one compression step smaller, or ``None``."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Storage footprint of the summary in bytes."""
        raise NotImplementedError

    def invariant_issues(self, tolerance: float = 1e-6) -> List[str]:
        """Issues with the summary's internal invariants (empty = healthy).

        The introspection hook consumed by the invariant auditor
        (:mod:`repro.check.invariants`): each concrete summary delegates
        to its kernel structure's own ``invariant_issues`` so corruption
        is reported in the structure's vocabulary (bucket index, trie
        substring, term id).  The base implementation reports nothing.
        """
        del tolerance
        return []

    def sample_value(self, rng: random.Random):
        """Draw one synthetic value from the summarized distribution.

        Used by approximate query answering to synthesize documents from
        a synopsis (in the spirit of the TreeSketch line of work the
        paper builds on).
        """
        raise NotImplementedError


class HistogramSummary(ValueSummary):
    """NUMERIC summary: a bucketed frequency histogram."""

    value_type = ValueType.NUMERIC

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram

    @classmethod
    def from_values(
        cls, values: Iterable[int], config: SummaryConfig
    ) -> "HistogramSummary":
        return cls(Histogram.from_values(values, config.histogram_buckets))

    @property
    def count(self) -> float:
        return self.histogram.total

    def selectivity(self, predicate: Predicate) -> float:
        if not isinstance(predicate, RangePredicate):
            raise TypeError(f"NUMERIC summary cannot evaluate {predicate!r}")
        return self.histogram.selectivity(predicate.low, predicate.high)

    def fast_selectivity(self, predicate: Predicate) -> float:
        if not isinstance(predicate, RangePredicate):
            raise TypeError(f"NUMERIC summary cannot evaluate {predicate!r}")
        return self.histogram.selectivity_cdf(predicate.low, predicate.high)

    def atomic_predicates(self, limit: int = 48) -> List[Predicate]:
        domain_low = self.histogram.domain[0]
        boundaries = self.histogram.boundaries()
        if len(boundaries) > limit:
            step = len(boundaries) / limit
            boundaries = [boundaries[int(index * step)] for index in range(limit)]
        return [RangePredicate(domain_low, high) for high in boundaries]

    def fuse(self, other: "ValueSummary") -> "HistogramSummary":
        if not isinstance(other, HistogramSummary):
            raise TypeError("can only fuse NUMERIC with NUMERIC")
        return HistogramSummary(self.histogram.fuse(other.histogram))

    @property
    def can_compress(self) -> bool:
        return self.histogram.bucket_count > 1

    def compress(self, amount: int = 1) -> Optional["HistogramSummary"]:
        if not self.can_compress:
            return None
        return HistogramSummary(compress_histogram(self.histogram, amount))

    def size_bytes(self) -> int:
        """Storage footprint (see :mod:`repro.values.histogram`)."""
        return self.histogram.size_bytes()

    def invariant_issues(self, tolerance: float = 1e-6) -> List[str]:
        return self.histogram.invariant_issues(tolerance)

    def sample_value(self, rng: random.Random) -> int:
        buckets = self.histogram.buckets
        if not buckets:
            return 0
        pick = rng.uniform(0.0, self.histogram.total)
        acc = 0.0
        for bucket in buckets:
            acc += bucket.count
            if acc >= pick:
                return rng.randint(bucket.lo, bucket.hi)
        return buckets[-1].hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HistogramSummary({self.histogram!r})"


class WaveletSummary(ValueSummary):
    """NUMERIC summary backed by a truncated Haar wavelet (extension).

    Interchangeable with :class:`HistogramSummary` behind the uniform
    interface, per the paper's remark that the framework extends to
    other numeric summarization techniques.
    """

    value_type = ValueType.NUMERIC

    def __init__(self, wavelet: HaarWavelet) -> None:
        self.wavelet = wavelet

    @classmethod
    def from_values(
        cls, values: Iterable[int], config: SummaryConfig
    ) -> "WaveletSummary":
        return cls(
            HaarWavelet.from_values(values, config.wavelet_coefficients)
        )

    @property
    def count(self) -> float:
        return self.wavelet.total

    def selectivity(self, predicate: Predicate) -> float:
        if not isinstance(predicate, RangePredicate):
            raise TypeError(f"NUMERIC summary cannot evaluate {predicate!r}")
        return self.wavelet.selectivity(predicate.low, predicate.high)

    def atomic_predicates(self, limit: int = 48) -> List[Predicate]:
        domain_lo, domain_hi = self.wavelet.domain
        width = max(1, (domain_hi - domain_lo + 1) // max(1, limit))
        edges = list(range(domain_lo + width - 1, domain_hi + 1, width))[:limit]
        if not edges:
            edges = [domain_hi]
        return [RangePredicate(domain_lo, edge) for edge in edges]

    def fuse(self, other: "ValueSummary") -> "WaveletSummary":
        if not isinstance(other, WaveletSummary):
            raise TypeError("can only fuse wavelet with wavelet summaries")
        return WaveletSummary(self.wavelet.fuse(other.wavelet))

    @property
    def can_compress(self) -> bool:
        return self.wavelet.coefficient_count > 1

    def compress(self, amount: int = 1) -> Optional["WaveletSummary"]:
        if not self.can_compress:
            return None
        return WaveletSummary(self.wavelet.compress(amount))

    def size_bytes(self) -> int:
        """Storage footprint (see :mod:`repro.values.wavelet`)."""
        return self.wavelet.size_bytes()

    def invariant_issues(self, tolerance: float = 1e-6) -> List[str]:
        return self.wavelet.invariant_issues(tolerance)

    def sample_value(self, rng: random.Random) -> int:
        vector = [max(0.0, mass) for mass in self.wavelet.reconstruct()]
        total = sum(vector)
        if total <= 0.0:
            return self.wavelet.domain[0]
        pick = rng.uniform(0.0, total)
        acc = 0.0
        for cell, mass in enumerate(vector):
            acc += mass
            if acc >= pick:
                lo = self.wavelet.domain_lo + cell * self.wavelet.cell_width
                return rng.randint(lo, lo + self.wavelet.cell_width - 1)
        return self.wavelet.domain[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WaveletSummary({self.wavelet!r})"


def _copy_pst(tree: PrunedSuffixTree) -> PrunedSuffixTree:
    """Structural deep copy of a PST (iterative, avoids recursion limits)."""
    clone = PrunedSuffixTree(tree.max_depth)
    clone.root.count = tree.root.count
    stack = [(tree.root, clone.root)]
    nodes = 0
    while stack:
        source, target = stack.pop()
        for char, child in source.children.items():
            copied = _Node(char, target)
            copied.count = child.count
            target.children[char] = copied
            nodes += 1
            stack.append((child, copied))
    clone._node_count = nodes
    return clone


class StringSummary(ValueSummary):
    """STRING summary: a pruned suffix tree."""

    value_type = ValueType.STRING

    def __init__(
        self,
        pst: PrunedSuffixTree,
        ranked: Optional[List[Tuple[int, str]]] = None,
    ) -> None:
        self.pst = pst
        #: Optional ``sorted((-count, substring))`` over ``pst``, kept by
        #: the phase-2 stepper so the atomic predicates need no trie walk.
        self._ranked = ranked

    @classmethod
    def from_values(
        cls, values: Iterable[str], config: SummaryConfig
    ) -> "StringSummary":
        strings = list(values)
        max_nodes = min(
            config.pst_max_nodes,
            max(24, config.pst_nodes_per_string * len(strings)),
        )
        tree = PrunedSuffixTree.from_strings(
            strings, max_depth=config.pst_max_depth, max_nodes=max_nodes
        )
        return cls(tree)

    @property
    def count(self) -> float:
        return float(self.pst.string_count)

    def selectivity(self, predicate: Predicate) -> float:
        if not isinstance(predicate, SubstringPredicate):
            raise TypeError(f"STRING summary cannot evaluate {predicate!r}")
        return self.pst.selectivity(predicate.needle)

    def atomic_predicates(self, limit: int = 48) -> List[Predicate]:
        """Indexed substrings, mixing frequent and rare ones.

        Using only top-count substrings would make leaf pruning look free
        in the Δ metric (pruning damages *rare* substrings first), so the
        atomic set takes half from the top and half from the bottom of
        the count ranking.  Both ends are heap-selected (O(n log limit)),
        preserving the full-sort order exactly — the ``(-count,
        substring)`` key is unique per substring, so head and tail slices
        are well defined without materializing the middle.  A summary
        built with a ranked list slices it directly instead.
        """
        ranked = self._ranked
        if ranked is not None:
            if len(ranked) > limit:
                tail = limit // 2
                ranked = ranked[: limit - tail] + ranked[len(ranked) - tail :]
            return [SubstringPredicate(substring) for _, substring in ranked]
        items = list(self.pst.substrings())
        key = lambda item: (-item[1], item[0])  # noqa: E731
        if len(items) <= limit:
            chosen = sorted(items, key=key)
        else:
            head = limit - limit // 2
            chosen = heapq.nsmallest(head, items, key=key)
            chosen.extend(reversed(heapq.nlargest(limit // 2, items, key=key)))
        return [SubstringPredicate(substring) for substring, _ in chosen]

    def fuse(self, other: "ValueSummary") -> "StringSummary":
        if not isinstance(other, StringSummary):
            raise TypeError("can only fuse STRING with STRING")
        return StringSummary(fuse_psts(self.pst, other.pst))

    @property
    def can_compress(self) -> bool:
        return self.pst.can_prune

    def compress(self, amount: int = 1) -> Optional["StringSummary"]:
        if not self.can_compress:
            return None
        clone = _copy_pst(self.pst)
        pruned = clone.prune_leaves(amount)
        if pruned == 0:
            return None
        return StringSummary(clone)

    def size_bytes(self) -> int:
        """Storage footprint (see :mod:`repro.values.pst`)."""
        return self.pst.size_bytes()

    def invariant_issues(self, tolerance: float = 1e-6) -> List[str]:
        del tolerance  # trie counts are integral; no float comparisons
        return self.pst.invariant_issues()

    def sample_value(self, rng: random.Random, max_length: int = 24) -> str:
        """Generate a plausible string by a count-weighted trie walk.

        Produces Markov-style text whose substring statistics follow the
        summarized distribution (it is *not* guaranteed to be one of the
        original strings).
        """
        chars: List[str] = []
        node = self.pst.root
        while len(chars) < max_length:
            children = node.children
            if not children:
                break
            total = sum(child.count for child in children.values())
            # Allow termination proportional to the count drop-off.
            stop_weight = max(0.0, node.count - total) if node is not self.pst.root else 0.0
            pick = rng.uniform(0.0, total + stop_weight)
            if pick > total:
                break
            acc = 0.0
            for char, child in children.items():
                acc += child.count
                if acc >= pick:
                    chars.append(char)
                    node = child
                    break
        return "".join(chars)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StringSummary({self.pst!r})"


class TextSummary(ValueSummary):
    """TEXT summary: an end-biased term histogram.

    The detailed reference form indexes every non-zero term exactly;
    compression demotes terms into the uniform bucket.
    """

    value_type = ValueType.TEXT

    def __init__(self, ebth: EndBiasedTermHistogram) -> None:
        self.ebth = ebth

    @classmethod
    def from_values(
        cls, values: Iterable[frozenset], config: SummaryConfig
    ) -> "TextSummary":
        centroid = TermCentroid.from_term_sets(values)
        return cls(
            EndBiasedTermHistogram.from_centroid(centroid, config.vocabulary)
        )

    @property
    def count(self) -> float:
        return float(self.ebth.count)

    def selectivity(self, predicate: Predicate) -> float:
        if isinstance(predicate, KeywordPredicate):
            return self.ebth.selectivity(predicate.terms)
        if isinstance(predicate, AtLeastKPredicate):
            return self._at_least_k(predicate)
        raise TypeError(f"TEXT summary cannot evaluate {predicate!r}")

    def _at_least_k(self, predicate: AtLeastKPredicate) -> float:
        """P(at least k of the probe terms occur), assuming per-term
        independence within the cluster: the Poisson-binomial tail,
        computed by the standard O(m*k) dynamic program."""
        probabilities = [
            self.ebth.frequency(term) for term in predicate.sorted_terms()
        ]
        threshold = predicate.threshold
        # distribution[j] = P(exactly j matches among terms seen so far),
        # with counts >= threshold collapsed into the tail slot.
        distribution = [1.0] + [0.0] * threshold
        for probability in probabilities:
            updated = [0.0] * (threshold + 1)
            for count, mass in enumerate(distribution):
                if mass == 0.0:
                    continue
                hit = min(threshold, count + 1)
                updated[hit] += mass * probability
                updated[count] += mass * (1.0 - probability)
            # The tail slot absorbs its own hits correctly because
            # min(threshold, threshold + 1) == threshold.
            distribution = updated
        return distribution[threshold]

    def atomic_predicates(self, limit: int = 48) -> List[Predicate]:
        ranked = heapq.nsmallest(
            limit, self.ebth.exact.items(), key=lambda item: (-item[1], item[0])
        )
        predicates = [
            KeywordPredicate([self.ebth.vocabulary.term_of(term_id)])
            for term_id, _ in ranked
        ]
        if len(predicates) < limit:
            # Include a few bucket terms so compression of the uniform
            # bucket average is also observable in the Δ metric.
            extra = [
                term_id
                for term_id in self.ebth.bitmap
                if term_id not in self.ebth.exact
            ]
            for term_id in extra[: limit - len(predicates)]:
                predicates.append(
                    KeywordPredicate([self.ebth.vocabulary.term_of(term_id)])
                )
        return predicates

    def fuse(self, other: "ValueSummary") -> "TextSummary":
        if not isinstance(other, TextSummary):
            raise TypeError("can only fuse TEXT with TEXT")
        return TextSummary(fuse_ebth(self.ebth, other.ebth))

    @property
    def can_compress(self) -> bool:
        return self.ebth.can_compress

    def compress(self, amount: int = 1) -> Optional["TextSummary"]:
        if not self.can_compress:
            return None
        return TextSummary(self.ebth.compress(amount))

    def size_bytes(self) -> int:
        """Storage footprint (see :mod:`repro.values.ebth`)."""
        return self.ebth.size_bytes()

    def invariant_issues(self, tolerance: float = 1e-6) -> List[str]:
        return self.ebth.invariant_issues(tolerance)

    def sample_value(self, rng: random.Random, max_terms: int = 64) -> frozenset:
        """Draw a synthetic term set: each term kept with its frequency."""
        terms = []
        vocabulary = self.ebth.vocabulary
        for term_id in self.ebth.bitmap:
            if len(terms) >= max_terms:
                break
            if rng.random() < self.ebth.frequency_by_id(term_id):
                terms.append(vocabulary.term_of(term_id))
        return frozenset(terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TextSummary({self.ebth!r})"


def build_summary(
    value_type: ValueType,
    values: Sequence,
    config: SummaryConfig,
) -> Optional[ValueSummary]:
    """Construct the detailed summary for a collection of typed values."""
    if value_type is ValueType.NULL:
        return None
    if value_type is ValueType.NUMERIC:
        if config.numeric_summary == "wavelet":
            return WaveletSummary.from_values(values, config)
        if config.numeric_summary != "histogram":
            raise ValueError(
                f"unknown numeric_summary {config.numeric_summary!r}"
            )
        return HistogramSummary.from_values(values, config)
    if value_type is ValueType.STRING:
        return StringSummary.from_values(values, config)
    if value_type is ValueType.TEXT:
        return TextSummary.from_values(values, config)
    raise ValueError(f"unknown value type {value_type!r}")


def fuse_summaries(
    first: Optional[ValueSummary], second: Optional[ValueSummary]
) -> Optional[ValueSummary]:
    """Fuse two (possibly absent) summaries of the same type."""
    if first is None:
        return second
    if second is None:
        return first
    return first.fuse(second)
