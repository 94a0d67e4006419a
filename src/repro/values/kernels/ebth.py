"""EBTH kernels: id-array fusion and incremental ``tv_cmprs`` chains.

The reference :meth:`EndBiasedTermHistogram.fuse` resolves both sides'
frequencies per union term through ``frequency_by_id`` — a dict probe
plus an O(log runs) bitmap bisection each — and the reference
``tv_cmprs`` re-sorts the surviving exact terms on every step.  The
kernels keep the arithmetic verbatim (bit-exact parity) while walking
the run-length bitmaps with amortized-O(1) ascending cursors and
computing the global demotion order exactly once per source histogram.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.values.ebth import EndBiasedTermHistogram, check_encoding
from repro.values.rle import RunLengthBitmap


class _RunCursor:
    """Amortized-O(1) membership tests for ascending id queries."""

    __slots__ = ("_runs", "_index")

    def __init__(self, bitmap: RunLengthBitmap) -> None:
        self._runs = bitmap.runs
        self._index = 0

    def contains(self, position: int) -> bool:
        runs = self._runs
        index = self._index
        while index < len(runs) and runs[index][1] < position:
            index += 1
        self._index = index
        return index < len(runs) and runs[index][0] <= position


def fuse_ebth(
    left: EndBiasedTermHistogram, right: EndBiasedTermHistogram
) -> EndBiasedTermHistogram:
    """Fuse two EBTHs — bit-exact with the reference ``fuse``.

    The union bitmap is walked once in ascending id order with run
    cursors into both sides, so each term costs one dict probe per side
    instead of a probe plus a bitmap bisection; weights, the top-``keep``
    split, and the bucket re-average use the reference expressions on
    the same ranked order.
    """
    if left.vocabulary is not right.vocabulary:
        raise ValueError("cannot fuse histograms over different vocabularies")
    total = left.count + right.count
    if total == 0:
        return EndBiasedTermHistogram.empty(left.vocabulary)
    union = left.bitmap.union(right.bitmap)
    left_exact = left.exact
    right_exact = right.exact
    left_average = left.bucket_average
    right_average = right.bucket_average
    left_count = left.count
    right_count = right.count
    left_cursor = _RunCursor(left.bitmap)
    right_cursor = _RunCursor(right.bitmap)
    weights: Dict[int, float] = {}
    for term_id in union:
        frequency_left = left_exact.get(term_id)
        if frequency_left is None:
            frequency_left = (
                left_average if left_cursor.contains(term_id) else 0.0
            )
        frequency_right = right_exact.get(term_id)
        if frequency_right is None:
            frequency_right = (
                right_average if right_cursor.contains(term_id) else 0.0
            )
        weights[term_id] = (
            frequency_left * left_count + frequency_right * right_count
        ) / total
    keep = min(len(weights), len(left_exact) + len(right_exact))
    ranked = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
    exact = dict(ranked[:keep])
    rest = ranked[keep:]
    average = sum(weight for _, weight in rest) / len(rest) if rest else 0.0
    return EndBiasedTermHistogram(
        left.vocabulary, exact, union, average, len(rest), total
    )


class EBTHCompressionKernel:
    """Incremental ``tv_cmprs``: one global demotion order per source.

    The reference compress on a chain of histograms re-sorts the
    remaining exact terms every step; but each step demotes the current
    minimum-``(frequency, id)`` terms, so the victims of successive
    steps are consecutive slices of *one* ascending order computed from
    the source histogram.  The running bucket average is re-derived with
    the reference arithmetic (``average * members`` then re-divide), so
    chained snapshots are bit-identical to chained reference compresses.

    The source's encoding (exact terms inside the bitmap, bucket count
    consistent) is validated once, here; demotion preserves it, so
    snapshots skip the constructor's per-term re-validation.
    """

    __slots__ = ("_source", "_order", "_position", "_exact", "_average", "_members")

    def __init__(self, ebth: EndBiasedTermHistogram) -> None:
        check_encoding(ebth.exact, ebth.bitmap, ebth.bucket_member_count)
        self._source = ebth
        self._order: List[Tuple[int, float]] = sorted(
            ebth.exact.items(), key=lambda item: (item[1], item[0])
        )
        self._position = 0
        self._exact: Dict[int, float] = dict(ebth.exact)
        self._average = ebth.bucket_average
        self._members = ebth.bucket_member_count

    @property
    def exact_term_count(self) -> int:
        return len(self._exact)

    def demote(self, count: int) -> int:
        """Demote up to ``count`` more terms; returns the number demoted."""
        take = min(count, len(self._order) - self._position)
        if take <= 0:
            return 0
        bucket_total = self._average * self._members
        for term_id, _ in self._order[self._position : self._position + take]:
            bucket_total += self._exact.pop(term_id)
        self._position += take
        self._members += take
        self._average = bucket_total / self._members if self._members else 0.0
        return take

    def snapshot(self) -> EndBiasedTermHistogram:
        """The current state as an immutable histogram."""
        return EndBiasedTermHistogram.trusted(
            self._source.vocabulary,
            dict(self._exact),
            self._source.bitmap,
            self._average,
            self._members,
            self._source.count,
        )
