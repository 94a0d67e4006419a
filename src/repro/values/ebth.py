"""End-biased term histograms (the paper's novel TEXT summary, Section 3).

An :class:`EndBiasedTermHistogram` compresses a term-vector centroid
``w`` with two components:

1. the **exact part** — the top-few term frequencies of ``w``, retained
   exactly (term id → frequency);
2. the **uniform bucket** — a *lossless* run-length-compressed encoding of
   the binary version of ``w`` (bit ``t`` set iff ``w[t] > 0``), plus one
   average frequency for all non-exact non-zero terms.

Frequency lookup for term ``t``: exact value if indexed; otherwise the
bucket average if ``t``'s bit is set; otherwise exactly 0.  Keeping the
0/1 bitmap lossless is what lets the summary answer *negative* point
queries with zero error — the failure mode of conventional range-bucket
histograms on term vectors that motivates the design.

The detailed (reference) form indexes *every* non-zero term exactly; the
``tv_cmprs`` compression operation then demotes the lowest-frequency
indexed terms into the uniform bucket, re-averaging its frequency.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.values.rle import RunLengthBitmap
from repro.values.termvector import TermCentroid, Vocabulary

#: Bytes per exact term entry: term id (4) + frequency (4).
EXACT_ENTRY_BYTES = 8
#: Fixed overhead: average bucket frequency (4) + member count (4).
FIXED_BYTES = 8


def check_encoding(
    exact: Mapping[int, float], bitmap: RunLengthBitmap, bucket_member_count: int
) -> None:
    """Raise ``ValueError`` unless every exact term has its bitmap bit set
    and the bucket covers exactly the remaining set bits."""
    if not all(term_id in bitmap for term_id in exact):
        raise ValueError("every exactly-indexed term must have its bitmap bit set")
    if bucket_member_count < 0:
        raise ValueError("bucket_member_count must be non-negative")
    if bucket_member_count != len(bitmap) - len(exact):
        raise ValueError(
            "bucket_member_count must equal non-exact set bits "
            f"({len(bitmap) - len(exact)}), got {bucket_member_count}"
        )


class EndBiasedTermHistogram:
    """A compressed term-vector centroid (see module docstring).

    Instances are immutable; compression and fusion return new histograms.
    All histograms sharing a synopsis must share one :class:`Vocabulary`.
    """

    __slots__ = (
        "vocabulary",
        "exact",
        "bitmap",
        "bucket_average",
        "bucket_member_count",
        "count",
    )

    def __init__(
        self,
        vocabulary: Vocabulary,
        exact: Mapping[int, float],
        bitmap: RunLengthBitmap,
        bucket_average: float,
        bucket_member_count: int,
        count: int,
    ) -> None:
        check_encoding(exact, bitmap, bucket_member_count)
        self.vocabulary = vocabulary
        self.exact: Dict[int, float] = dict(exact)
        self.bitmap = bitmap
        self.bucket_average = bucket_average
        self.bucket_member_count = bucket_member_count
        self.count = count

    @classmethod
    def trusted(
        cls,
        vocabulary: Vocabulary,
        exact: Dict[int, float],
        bitmap: RunLengthBitmap,
        bucket_average: float,
        bucket_member_count: int,
        count: int,
    ) -> "EndBiasedTermHistogram":
        """A histogram over ``exact`` as given: neither validated nor
        copied.  For callers that keep the encoding invariants by
        construction (the ``tv_cmprs`` kernel validates its source once
        and only ever demotes exact terms into the bucket)."""
        histogram = cls.__new__(cls)
        histogram.vocabulary = vocabulary
        histogram.exact = exact
        histogram.bitmap = bitmap
        histogram.bucket_average = bucket_average
        histogram.bucket_member_count = bucket_member_count
        histogram.count = count
        return histogram

    # -- construction -------------------------------------------------------

    @classmethod
    def from_centroid(
        cls,
        centroid: TermCentroid,
        vocabulary: Vocabulary,
        exact_terms: Optional[int] = None,
        bitmap: Optional[RunLengthBitmap] = None,
    ) -> "EndBiasedTermHistogram":
        """Build from an exact centroid.

        Args:
            centroid: the term-vector centroid to compress.
            vocabulary: the shared term-id space (terms are interned).
            exact_terms: how many top frequencies to retain exactly;
                ``None`` retains all (the detailed reference form).
            bitmap: the bitmap of the centroid's term ids, when the
                caller holds it (its terms kept their ids).
        """
        weights = centroid.weights
        # New terms take ids in sorted order, never in ``weights`` order,
        # which follows set iteration and so the hash seed.
        by_id = dict(zip(vocabulary.intern_all(weights, sort_fresh=True), weights.values()))
        order = sorted(by_id)
        # Stable, so ties keep ascending ids: the order of sorted
        # (-weight, id) pairs.
        ranked = sorted(order, key=by_id.__getitem__, reverse=True)
        top = ranked[:exact_terms]
        exact = dict(zip(top, map(by_id.__getitem__, top)))
        rest = ranked[len(top):]
        average = sum(map(by_id.__getitem__, rest)) / len(rest) if rest else 0.0
        if bitmap is None:
            bitmap = RunLengthBitmap.from_ids(order)
        elif len(bitmap) != len(order):
            raise ValueError("the given bitmap does not hold the centroid's terms")
        return cls.trusted(vocabulary, exact, bitmap, average, len(rest), centroid.count)

    def remapped(self, mapping: Sequence[int], cut: int = 0) -> "EndBiasedTermHistogram":
        """This histogram with each term id ``i`` moved to ``mapping[i]``, the identity
        below ``cut``: an increasing map keeps the ``(-frequency, id)`` order of the
        exact part and of ``tv_cmprs``, and the bitmap rewrites only its runs past ``cut``."""
        exact = dict(zip(map(mapping.__getitem__, self.exact), self.exact.values()))
        return self.trusted(
            self.vocabulary, exact, self.bitmap.remapped(mapping, cut),
            self.bucket_average, self.bucket_member_count, self.count,
        )

    @classmethod
    def empty(cls, vocabulary: Vocabulary) -> "EndBiasedTermHistogram":
        return cls(vocabulary, {}, RunLengthBitmap.empty(), 0.0, 0, 0)

    # -- lookups ----------------------------------------------------------------

    def frequency_by_id(self, term_id: int) -> float:
        """Estimated fractional frequency of a term id."""
        exact = self.exact.get(term_id)
        if exact is not None:
            return exact
        if term_id in self.bitmap:
            return self.bucket_average
        return 0.0

    def frequency(self, term: str) -> float:
        """Estimated fractional frequency of a term."""
        term_id = self.vocabulary.get(term)
        if term_id < 0:
            return 0.0
        return self.frequency_by_id(term_id)

    def selectivity(self, terms: Iterable[str]) -> float:
        """Estimated fraction of texts containing *all* of ``terms``.

        Terms are combined under independence within the cluster, the
        Boolean-model analogue of the histogram uniformity assumption.
        """
        result = 1.0
        for term in terms:
            result *= self.frequency(term)
            if result == 0.0:
                return 0.0
        return result

    @property
    def exact_term_count(self) -> int:
        return len(self.exact)

    def indexed_term_ids(self) -> List[int]:
        """Ids of exactly-indexed terms, lowest frequency first."""
        return [
            term_id
            for term_id, _ in sorted(
                self.exact.items(), key=lambda item: (item[1], item[0])
            )
        ]

    # -- compression (tv_cmprs) ---------------------------------------------------

    @property
    def can_compress(self) -> bool:
        return bool(self.exact)

    def compress(self, demote: int = 1) -> "EndBiasedTermHistogram":
        """``tv_cmprs``: move the ``demote`` lowest-frequency indexed terms
        into the uniform bucket and re-average its frequency."""
        if demote < 0:
            raise ValueError("demote must be >= 0")
        # Heap-select the victims: O(n log demote) vs the full sort of
        # indexed_term_ids(), with the same (frequency, id) order.
        victims = [
            term_id
            for term_id, _ in heapq.nsmallest(
                demote, self.exact.items(), key=lambda item: (item[1], item[0])
            )
        ]
        if not victims:
            return self
        exact = dict(self.exact)
        bucket_total = self.bucket_average * self.bucket_member_count
        for term_id in victims:
            bucket_total += exact.pop(term_id)
        members = self.bucket_member_count + len(victims)
        average = bucket_total / members if members else 0.0
        return EndBiasedTermHistogram(
            self.vocabulary, exact, self.bitmap, average, members, self.count
        )

    # -- fusion ---------------------------------------------------------------------

    def fuse(self, other: "EndBiasedTermHistogram") -> "EndBiasedTermHistogram":
        """Weighted combination of two histograms (node-merge fusion).

        Reconstructs each side's approximate centroid over the union of
        non-zero terms, combines with weights ``|u|/|w|`` and ``|v|/|w|``,
        and keeps as many exact terms as both inputs combined (so fusing
        uncompressed histograms stays lossless, exactly like histogram
        alignment-fusion and PST union-fusion; ``tv_cmprs`` is the only
        operation that sheds detail).
        """
        if self.vocabulary is not other.vocabulary:
            raise ValueError("cannot fuse histograms over different vocabularies")
        total = self.count + other.count
        if total == 0:
            return EndBiasedTermHistogram.empty(self.vocabulary)
        union = self.bitmap.union(other.bitmap)
        weights: Dict[int, float] = {}
        for term_id in union:
            weights[term_id] = (
                self.frequency_by_id(term_id) * self.count
                + other.frequency_by_id(term_id) * other.count
            ) / total
        keep = min(len(weights), len(self.exact) + len(other.exact))
        ranked = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
        exact = dict(ranked[:keep])
        rest = ranked[keep:]
        average = sum(weight for _, weight in rest) / len(rest) if rest else 0.0
        return EndBiasedTermHistogram(
            self.vocabulary, exact, union, average, len(rest), total
        )

    # -- integrity ---------------------------------------------------------------------

    def invariant_issues(self, tolerance: float = 1e-6) -> List[str]:
        """Structural issues of the end-biased encoding (empty = healthy).

        The machine-checkable form of the summary's design contract:

        * **exact/bucket disjointness** — every exactly-indexed term has
          its bitmap bit set, and the uniform bucket covers exactly the
          remaining set bits (``bucket_member_count`` consistency);
        * **end-biased ordering** — the exact part holds the *top*
          frequencies, so no exact frequency may fall below the uniform
          bucket average (``from_centroid``, ``fuse``, and ``compress``
          all preserve this);
        * frequencies are fractions in ``[0, 1]``, the bucket average is
          non-negative, and the text count is non-negative;
        * the underlying run-length bitmap is well-formed.
        """
        issues: List[str] = []
        for term_id, frequency in self.exact.items():
            if term_id not in self.bitmap:
                issues.append(
                    f"exact term {term_id} has no bitmap bit (exact/bucket overlap)"
                )
            if frequency < -tolerance or frequency > 1.0 + tolerance:
                issues.append(
                    f"exact term {term_id} frequency {frequency!r} outside [0, 1]"
                )
        expected_members = len(self.bitmap) - len(self.exact)
        if self.bucket_member_count != expected_members:
            issues.append(
                f"bucket member count {self.bucket_member_count} != "
                f"{expected_members} non-exact set bits"
            )
        if self.bucket_average < -tolerance or self.bucket_average > 1.0 + tolerance:
            issues.append(
                f"bucket average {self.bucket_average!r} outside [0, 1]"
            )
        if self.bucket_member_count > 0 and self.exact:
            floor = min(self.exact.values())
            if floor < self.bucket_average - tolerance:
                issues.append(
                    f"exact frequency {floor!r} below the bucket average "
                    f"{self.bucket_average!r} (end-biased ordering)"
                )
        if self.count < 0:
            issues.append(f"text count {self.count} is negative")
        issues.extend(self.bitmap.invariant_issues())
        return issues

    # -- accounting --------------------------------------------------------------------

    def size_bytes(self) -> int:
        """Storage footprint: exact entries + bitmap runs + header."""
        return (
            EXACT_ENTRY_BYTES * len(self.exact)
            + self.bitmap.size_bytes()
            + FIXED_BYTES
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EndBiasedTermHistogram(exact={len(self.exact)}, "
            f"bucket={self.bucket_member_count}, texts={self.count})"
        )
