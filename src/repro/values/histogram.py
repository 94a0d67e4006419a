"""Bucketed frequency histograms for NUMERIC element values.

XCluster uses classical relational histogram machinery (paper Section 3)
with three operations the synopsis core drives:

* **construction** — equi-depth bucketing of a value collection into a
  detailed reference histogram;
* **fusion** (node merges, Section 4.1) — *bucket alignment* splits both
  histograms at the union of their boundaries (apportioning counts under
  the standard continuous-uniformity assumption) and then sums the
  frequency counts across aligned buckets;
* **compression** (``hist_cmprs``, Section 4.2) — merging adjacent bucket
  pairs to shed a requested number of buckets.

Values live in an integer domain ``{0 .. M-1}``; buckets cover inclusive
integer ranges and carry fractional counts (fractions arise from bucket
splitting during alignment).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from math import ceil
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

#: Bytes per stored bucket: lo (4) + hi (4) + count (4).
BUCKET_BYTES = 12


@dataclass(frozen=True)
class HistogramBucket:
    """One bucket: the inclusive integer range ``[lo, hi]`` and its count."""

    lo: int
    hi: int
    count: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"invalid bucket [{self.lo}, {self.hi}]")
        if self.count < 0:
            raise ValueError("bucket count must be non-negative")

    @property
    def width(self) -> int:
        """Number of integer points covered by the bucket."""
        return self.hi - self.lo + 1

    def overlap_fraction(self, low: int, high: int) -> float:
        """Fraction of this bucket's count falling inside ``[low, high]``.

        Uses the uniform-spread assumption within the bucket.
        """
        overlap = min(self.hi, high) - max(self.lo, low) + 1
        if overlap <= 0:
            return 0.0
        return overlap / self.width


class Histogram:
    """An immutable bucketed frequency distribution over integers."""

    __slots__ = ("buckets", "total", "_cdf", "_boundaries")

    def __init__(self, buckets: Sequence[HistogramBucket]) -> None:
        previous_hi = None
        for bucket in buckets:
            if previous_hi is not None and bucket.lo <= previous_hi:
                raise ValueError("histogram buckets must be sorted and disjoint")
            previous_hi = bucket.hi
        self.buckets: Tuple[HistogramBucket, ...] = tuple(buckets)
        self.total = sum(bucket.count for bucket in self.buckets)
        #: Lazily built (upper edges, cumulative counts) for CDF queries.
        self._cdf: Optional[Tuple[List[int], List[float]]] = None
        #: Lazily built upper-edge list for atomic-predicate anchoring.
        self._boundaries: Optional[Tuple[int, ...]] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_values(cls, values: Iterable[int], max_buckets: int = 64) -> "Histogram":
        """Build an equi-depth histogram from a collection of integers."""
        return cls.from_counts(Counter(values), max_buckets)

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[int, int],
        max_buckets: int = 64,
        ordered: Optional[Sequence[int]] = None,
    ) -> "Histogram":
        """Build an equi-depth histogram from value -> positive count.

        Bucket boundaries are chosen so each bucket holds roughly the same
        number of values; ties never split a distinct value across buckets,
        so heavily skewed distributions get singleton buckets for their
        heavy hitters.  ``ordered`` is ``sorted(counts)`` when the caller
        keeps it.
        """
        if max_buckets < 1:
            raise ValueError("max_buckets must be >= 1")
        if ordered is None:
            ordered = sorted(counts)
        if len(ordered) <= max_buckets:
            return cls([HistogramBucket(v, v, counts[v]) for v in ordered])
        running = list(accumulate(map(counts.__getitem__, ordered)))
        # A bucket closes at the first value where it reaches the target
        # depth (an integer count, so its ceiling), but never leaves fewer
        # distinct values than buckets still to fill; the last one takes
        # the rest.
        depth = ceil(running[-1] / max_buckets)
        buckets: List[HistogramBucket] = []
        start, below, last = 0, 0, len(ordered) - 1
        while start <= last:
            remaining = max_buckets - len(buckets) - 1
            end = max(start, last - remaining)
            if remaining > 0:
                end = min(end, bisect_left(running, below + depth, start))
            buckets.append(HistogramBucket(ordered[start], ordered[end], running[end] - below))
            start, below = end + 1, running[end]
        return cls(buckets)

    # -- estimation ----------------------------------------------------------

    def estimate_range(self, low: int, high: int) -> float:
        """Estimated number of values in ``[low, high]``."""
        if low > high:
            return 0.0
        return sum(
            bucket.count * bucket.overlap_fraction(low, high)
            for bucket in self.buckets
        )

    def selectivity(self, low: int, high: int) -> float:
        """Estimated fraction of values in ``[low, high]``."""
        if self.total == 0:
            return 0.0
        return self.estimate_range(low, high) / self.total

    # -- CDF-based estimation (the candidate-scoring fast path) ---------------

    def _cumulative(self) -> Tuple[List[int], List[float]]:
        cdf = self._cdf
        if cdf is None:
            upper_edges = [bucket.hi for bucket in self.buckets]
            running = 0.0
            cumulative = [0.0]
            for bucket in self.buckets:
                running += bucket.count
                cumulative.append(running)
            cdf = (upper_edges, cumulative)
            self._cdf = cdf
        return cdf

    def _point_cdf(self, point: int) -> float:
        """Estimated mass at or below ``point``."""
        buckets = self.buckets
        upper_edges, cumulative = self._cumulative()
        if point < buckets[0].lo:
            return 0.0
        if point >= upper_edges[-1]:
            return cumulative[-1]
        index = bisect_left(upper_edges, point)
        bucket = buckets[index]
        if point < bucket.lo:
            return cumulative[index]  # point falls in the gap before it
        return cumulative[index] + bucket.count * (
            (point - bucket.lo + 1) / bucket.width
        )

    def estimate_range_cdf(self, low: int, high: int) -> float:
        """``estimate_range`` in O(log buckets) via the cached CDF.

        Numerically this is the same per-bucket uniform-spread model
        (full buckets contribute exactly their count; at most the two
        boundary buckets contribute fractions), evaluated as a CDF
        difference instead of a linear bucket scan.  Candidate scoring
        resolves thousands of range selectivities per pool build, which
        makes the O(buckets) scan of :meth:`estimate_range` the hot
        path; the scalar reference path keeps using the linear form.
        """
        if low > high or not self.buckets:
            return 0.0
        return self._point_cdf(high) - self._point_cdf(low - 1)

    def selectivity_cdf(self, low: int, high: int) -> float:
        """Estimated fraction of values in ``[low, high]`` (CDF path)."""
        if self.total == 0:
            return 0.0
        return self.estimate_range_cdf(low, high) / self.total

    @property
    def domain(self) -> Tuple[int, int]:
        """The covered integer range (lo of first bucket, hi of last)."""
        if not self.buckets:
            return (0, 0)
        return (self.buckets[0].lo, self.buckets[-1].hi)

    @property
    def bucket_count(self) -> int:
        return len(self.buckets)

    def boundaries(self) -> Tuple[int, ...]:
        """All bucket upper edges (the atomic-predicate anchor points).

        Cached on the instance (the histogram is immutable): the Δ metric
        re-anchors atomic predicates on the same summary many times per
        candidate-pool build.
        """
        cached = self._boundaries
        if cached is None:
            cached = tuple(bucket.hi for bucket in self.buckets)
            self._boundaries = cached
        return cached

    # -- fusion (bucket alignment + merge) ------------------------------------

    def _aligned_counts(self, edges: Sequence[Tuple[int, int]]) -> List[float]:
        """Counts of this histogram re-apportioned onto aligned ``edges``.

        Both sequences are sorted and disjoint, so a two-pointer sweep
        visits each (bucket, edge) overlap once: edges ending before the
        current bucket can never overlap a later bucket and are skipped
        permanently, making the sweep O(buckets + edges) instead of the
        quadratic rescan-from-zero.
        """
        counts = [0.0] * len(edges)
        edge_count = len(edges)
        start = 0
        for bucket in self.buckets:
            while start < edge_count and edges[start][1] < bucket.lo:
                start += 1
            index = start
            while index < edge_count and edges[index][0] <= bucket.hi:
                fraction = bucket.overlap_fraction(*edges[index])
                if fraction > 0.0:
                    counts[index] += bucket.count * fraction
                index += 1
        return counts

    def fuse(self, other: "Histogram") -> "Histogram":
        """Merge two histograms by bucket alignment + count summation."""
        if not self.buckets:
            return other
        if not other.buckets:
            return self
        cuts = set()
        for histogram in (self, other):
            for bucket in histogram.buckets:
                cuts.add(bucket.lo - 1)
                cuts.add(bucket.hi)
        lo = min(self.domain[0], other.domain[0])
        hi = max(self.domain[1], other.domain[1])
        edges: List[Tuple[int, int]] = []
        start = lo
        for cut in sorted(cut for cut in cuts if lo <= cut <= hi):
            edges.append((start, cut))
            start = cut + 1
        if start <= hi:
            edges.append((start, hi))
        mine = self._aligned_counts(edges)
        theirs = other._aligned_counts(edges)
        buckets = [
            HistogramBucket(lo_, hi_, a + b)
            for (lo_, hi_), a, b in zip(edges, mine, theirs)
            if a + b > 0.0
        ]
        return Histogram(buckets)

    # -- compression ----------------------------------------------------------

    def merge_adjacent(self, index: int) -> "Histogram":
        """Merge buckets ``index`` and ``index + 1`` into one bucket."""
        if not 0 <= index < len(self.buckets) - 1:
            raise IndexError(f"no adjacent pair at {index}")
        left = self.buckets[index]
        right = self.buckets[index + 1]
        merged = HistogramBucket(left.lo, right.hi, left.count + right.count)
        return Histogram(self.buckets[:index] + (merged,) + self.buckets[index + 2 :])

    def best_merge_index(self) -> int:
        """The adjacent pair whose merge least perturbs range estimates.

        Scores each pair by the squared estimation-error increase on the
        prefix ranges anchored at the pair's internal boundary — the exact
        quantity the Δ metric would measure locally — and returns the
        argmin.  Requires at least two buckets.
        """
        if len(self.buckets) < 2:
            raise ValueError("nothing to merge")
        best_index = 0
        best_score = None
        for index in range(len(self.buckets) - 1):
            left = self.buckets[index]
            right = self.buckets[index + 1]
            merged_width = right.hi - left.lo + 1
            merged_count = left.count + right.count
            # After the merge, the estimate for [lo, left.hi] becomes the
            # merged bucket's uniform share; before, it was left.count.
            merged_estimate = merged_count * (left.width / merged_width)
            score = (left.count - merged_estimate) ** 2
            if best_score is None or score < best_score:
                best_score = score
                best_index = index
        return best_index

    def compress(self, buckets_to_remove: int = 1) -> "Histogram":
        """``hist_cmprs``: drop ``buckets_to_remove`` buckets via pair merges."""
        if buckets_to_remove < 0:
            raise ValueError("buckets_to_remove must be >= 0")
        histogram = self
        for _ in range(buckets_to_remove):
            if histogram.bucket_count < 2:
                break
            histogram = histogram.merge_adjacent(histogram.best_merge_index())
        return histogram

    # -- integrity -------------------------------------------------------------

    def invariant_issues(self, tolerance: float = 1e-6) -> List[str]:
        """Structural issues of the bucket encoding (empty = healthy).

        Re-derives, from the stored state, the equi-depth bucket
        invariants the constructor enforces plus the consistency of the
        lazily built CDF and boundary caches with the buckets:

        * buckets sorted, disjoint, with ``lo <= hi`` and counts >= 0;
        * ``total`` equals the bucket-count sum;
        * the cached CDF is monotone non-decreasing and sums to ``total``;
        * the cached boundary tuple matches the bucket upper edges;
        * full-domain selectivity is 1 for non-empty histograms.
        """
        issues: List[str] = []
        previous_hi = None
        for position, bucket in enumerate(self.buckets):
            if bucket.lo > bucket.hi:
                issues.append(f"bucket {position} range [{bucket.lo}, {bucket.hi}] inverted")
            if bucket.count < 0:
                issues.append(f"bucket {position} has negative count {bucket.count!r}")
            if previous_hi is not None and bucket.lo <= previous_hi:
                issues.append(
                    f"bucket {position} starting at {bucket.lo} overlaps the "
                    f"previous bucket ending at {previous_hi}"
                )
            previous_hi = bucket.hi
        actual_total = sum(bucket.count for bucket in self.buckets)
        scale = max(1.0, abs(actual_total))
        if abs(self.total - actual_total) > tolerance * scale:
            issues.append(f"total {self.total!r} != bucket sum {actual_total!r}")
        if self._cdf is not None:
            upper_edges, cumulative = self._cdf
            if upper_edges != [bucket.hi for bucket in self.buckets]:
                issues.append("cached CDF edges diverged from bucket upper edges")
            if any(b < a - tolerance * scale for a, b in zip(cumulative, cumulative[1:])):
                issues.append("cached CDF is not monotone non-decreasing")
            if cumulative and abs(cumulative[-1] - actual_total) > tolerance * scale:
                issues.append(
                    f"cached CDF total {cumulative[-1]!r} != bucket sum {actual_total!r}"
                )
        if self._boundaries is not None and self._boundaries != tuple(
            bucket.hi for bucket in self.buckets
        ):
            issues.append("cached boundary tuple diverged from bucket upper edges")
        if self.buckets and actual_total > 0:
            full = self.selectivity(*self.domain)
            if abs(full - 1.0) > tolerance:
                issues.append(f"full-domain selectivity {full!r} != 1")
        return issues

    # -- accounting ------------------------------------------------------------

    def size_bytes(self) -> int:
        """Storage footprint: 12 bytes per bucket."""
        return BUCKET_BYTES * len(self.buckets)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Histogram) and self.buckets == other.buckets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(buckets={len(self.buckets)}, total={self.total:g})"
