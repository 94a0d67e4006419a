"""Run-length-compressed bitmaps.

The uniform bucket of an end-biased term histogram stores the *binary*
version of a term-vector centroid (entry ``t`` is 1 iff the term occurs
anywhere in the summarized texts) losslessly, as runs of consecutive set
term ids.  :class:`RunLengthBitmap` provides exactly that: an immutable
sorted-interval representation with O(log r) membership tests, where ``r``
is the number of runs.
"""

from __future__ import annotations

import bisect
from itertools import chain, compress, count, islice, repeat
from operator import add, gt, itemgetter, ne, sub
from typing import Iterable, Iterator, List, Sequence, Tuple

#: An inclusive interval of consecutive set bits.
Run = Tuple[int, int]


class RunLengthBitmap:
    """An immutable bitmap stored as sorted runs of set bits: the runs'
    starts and (inclusive) ends, one list each."""

    __slots__ = ("_starts", "_ends", "_cardinality")

    def __init__(self, runs: Sequence[Run]) -> None:
        previous_end = None
        for start, end in runs:
            if start > end:
                raise ValueError(f"invalid run ({start}, {end})")
            if previous_end is not None and start <= previous_end + 1:
                raise ValueError("runs must be sorted, disjoint, and non-adjacent")
            previous_end = end
        self._starts = list(map(itemgetter(0), runs))
        self._ends = list(map(itemgetter(1), runs))
        self._cardinality = len(runs) + sum(map(sub, self._ends, self._starts))

    @classmethod
    def trusted(cls, starts: List[int], ends: List[int], cardinality: int) -> "RunLengthBitmap":
        """A bitmap over the runs ``zip(starts, ends)``, holding
        ``cardinality`` bits, as given, not validated.  For callers that
        keep runs sorted, disjoint and non-adjacent by construction."""
        bitmap = cls.__new__(cls)
        bitmap._starts, bitmap._ends, bitmap._cardinality = starts, ends, cardinality
        return bitmap

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "RunLengthBitmap":
        """Build from an arbitrary iterable of set-bit positions."""
        ordered = sorted(ids)
        # A run starts at each position more than one past its
        # predecessor; a repeated one (a step of 0) joins its run.
        steps = list(map(sub, islice(ordered, 1, None), ordered))
        cuts = list(compress(count(1), map(gt, steps, repeat(1))))
        starts = ordered[:1] + list(map(ordered.__getitem__, cuts))
        ends = list(map(ordered.__getitem__, map(sub, cuts, repeat(1)))) + ordered[-1:]
        return cls.trusted(starts, ends, len(ordered) - steps.count(0))

    @classmethod
    def empty(cls) -> "RunLengthBitmap":
        return cls(())

    def __contains__(self, position: int) -> bool:
        index = bisect.bisect_right(self._starts, position) - 1
        return index >= 0 and position <= self._ends[index]

    def __len__(self) -> int:
        """The number of set bits."""
        return self._cardinality

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(map(range, self._starts, map(add, self._ends, repeat(1))))

    @property
    def runs(self) -> Tuple[Run, ...]:
        return tuple(zip(self._starts, self._ends))

    @property
    def run_count(self) -> int:
        return len(self._starts)

    def union(self, other: "RunLengthBitmap") -> "RunLengthBitmap":
        """The bitwise OR of two bitmaps."""
        starts: List[int] = []
        ends: List[int] = []
        for start, end in sorted(zip(self._starts + other._starts, self._ends + other._ends)):
            if ends and start <= ends[-1] + 1:
                ends[-1] = max(ends[-1], end)
            else:
                starts.append(start)
                ends.append(end)
        return RunLengthBitmap.trusted(starts, ends, len(starts) + sum(map(sub, ends, starts)))

    def remapped(self, mapping: Sequence[int], cut: int = 0) -> "RunLengthBitmap":
        """The bitmap with each set position ``i`` moved to ``mapping[i]``, increasing on
        them and the identity below ``cut``: the runs before the one ``cut``
        falls after stay as they are.  When every later run moves whole
        (a shift), runs the map brings together merge; otherwise the bits
        are re-run.  An increasing map keeps the bit count."""
        first = max(bisect.bisect_left(self._starts, cut) - 1, 0)
        starts, ends = self._starts[first:], self._ends[first:]
        lows = list(map(mapping.__getitem__, starts))
        highs = list(map(mapping.__getitem__, ends))
        if any(map(ne, map(sub, highs, ends), map(sub, lows, starts))):
            return RunLengthBitmap.from_ids(map(mapping.__getitem__, self))
        opens = [True, *map(ne, islice(lows, 1, None), map(add, highs, repeat(1)))]
        return RunLengthBitmap.trusted(
            self._starts[:first] + list(compress(lows, opens)),
            self._ends[:first] + list(compress(highs, opens[1:] + [True])),
            self._cardinality,
        )

    def invariant_issues(self) -> List[str]:
        """Well-formedness issues of the run encoding (empty = healthy).

        The constructor enforces these for freshly built bitmaps; the
        hook re-derives them from the stored state so the invariant
        auditor can catch corruption introduced after construction
        (deserialization bugs, direct mutation of the run lists).
        """
        issues: List[str] = []
        previous_end = None
        for start, end in zip(self._starts, self._ends):
            if start > end:
                issues.append(f"bitmap run ({start}, {end}) is inverted")
            if previous_end is not None and start <= previous_end + 1:
                issues.append(
                    f"bitmap run starting at {start} overlaps or touches the "
                    f"previous run ending at {previous_end}"
                )
            previous_end = max(end, previous_end) if previous_end is not None else end
        actual = sum(end - start + 1 for start, end in self.runs if start <= end)
        if actual != self._cardinality:
            issues.append(
                f"bitmap cardinality {self._cardinality} != {actual} set bits"
            )
        if len(self._starts) != len(self._ends):
            issues.append("bitmap run starts and ends differ in number")
        return issues

    def size_bytes(self) -> int:
        """Storage footprint: 4 bytes per run (start + length packed)."""
        return 4 * len(self._starts)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RunLengthBitmap)
            and self._starts == other._starts
            and self._ends == other._ends
        )

    def __hash__(self) -> int:
        return hash(self.runs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLengthBitmap(runs={len(self._starts)}, bits={self._cardinality})"
