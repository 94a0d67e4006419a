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
from typing import Iterable, Iterator, List, Sequence, Tuple

#: An inclusive interval of consecutive set bits.
Run = Tuple[int, int]


class RunLengthBitmap:
    """An immutable bitmap stored as sorted runs of set bits."""

    __slots__ = ("_runs", "_starts", "_cardinality")

    def __init__(self, runs: Sequence[Run]) -> None:
        previous_end = None
        for start, end in runs:
            if start > end:
                raise ValueError(f"invalid run ({start}, {end})")
            if previous_end is not None and start <= previous_end + 1:
                raise ValueError("runs must be sorted, disjoint, and non-adjacent")
            previous_end = end
        self._fill(runs)

    @classmethod
    def trusted(cls, runs: Sequence[Run]) -> "RunLengthBitmap":
        """A bitmap over ``runs`` as given, not validated.  For callers
        that keep runs sorted, disjoint and non-adjacent by construction."""
        bitmap = cls.__new__(cls)
        bitmap._fill(runs)
        return bitmap

    def _fill(self, runs: Sequence[Run]) -> None:
        self._runs: Tuple[Run, ...] = tuple(runs)
        self._starts: List[int] = [start for start, _ in self._runs]
        self._cardinality = sum(end - start + 1 for start, end in self._runs)

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "RunLengthBitmap":
        """Build from an arbitrary iterable of set-bit positions."""
        ordered = sorted(set(ids))
        runs: List[Run] = []
        for position in ordered:
            if runs and position == runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], position)
            else:
                runs.append((position, position))
        return cls.trusted(runs)

    @classmethod
    def empty(cls) -> "RunLengthBitmap":
        return cls(())

    def __contains__(self, position: int) -> bool:
        index = bisect.bisect_right(self._starts, position) - 1
        if index < 0:
            return False
        start, end = self._runs[index]
        return start <= position <= end

    def __len__(self) -> int:
        """The number of set bits."""
        return self._cardinality

    def __iter__(self) -> Iterator[int]:
        for start, end in self._runs:
            yield from range(start, end + 1)

    @property
    def runs(self) -> Tuple[Run, ...]:
        return self._runs

    @property
    def run_count(self) -> int:
        return len(self._runs)

    def union(self, other: "RunLengthBitmap") -> "RunLengthBitmap":
        """The bitwise OR of two bitmaps."""
        merged = sorted(self._runs + other._runs)
        result: List[Run] = []
        for start, end in merged:
            if result and start <= result[-1][1] + 1:
                result[-1] = (result[-1][0], max(result[-1][1], end))
            else:
                result.append((start, end))
        return RunLengthBitmap.trusted(result)

    def remapped(self, mapping: Sequence[int]) -> "RunLengthBitmap":
        """The bitmap with each set position ``i`` moved to ``mapping[i]``, increasing on
        them: runs it brings together merge, and one it opens gaps in splits.
        An increasing map keeps runs sorted and disjoint, and the merge
        keeps them non-adjacent, so the result skips validation."""
        runs: List[Run] = []
        for start, end in self._runs:
            low = mapping[start]
            if mapping[end] - low != end - start:
                return RunLengthBitmap.from_ids(map(mapping.__getitem__, self))
            if runs and low == runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], low + end - start)
            else:
                runs.append((low, low + end - start))
        return RunLengthBitmap.trusted(runs)

    def invariant_issues(self) -> List[str]:
        """Well-formedness issues of the run encoding (empty = healthy).

        The constructor enforces these for freshly built bitmaps; the
        hook re-derives them from the stored state so the invariant
        auditor can catch corruption introduced after construction
        (deserialization bugs, direct mutation of ``_runs``).
        """
        issues: List[str] = []
        previous_end = None
        for start, end in self._runs:
            if start > end:
                issues.append(f"bitmap run ({start}, {end}) is inverted")
            if previous_end is not None and start <= previous_end + 1:
                issues.append(
                    f"bitmap run starting at {start} overlaps or touches the "
                    f"previous run ending at {previous_end}"
                )
            previous_end = max(end, previous_end) if previous_end is not None else end
        actual = sum(end - start + 1 for start, end in self._runs if start <= end)
        if actual != self._cardinality:
            issues.append(
                f"bitmap cardinality {self._cardinality} != {actual} set bits"
            )
        if self._starts != [start for start, _ in self._runs]:
            issues.append("bitmap start index diverged from its runs")
        return issues

    def size_bytes(self) -> int:
        """Storage footprint: 4 bytes per run (start + length packed)."""
        return 4 * len(self._runs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RunLengthBitmap) and self._runs == other._runs

    def __hash__(self) -> int:
        return hash(self._runs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLengthBitmap(runs={len(self._runs)}, bits={self._cardinality})"
