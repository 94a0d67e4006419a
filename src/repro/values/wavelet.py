"""Haar-wavelet summaries for NUMERIC values (paper §3, alternatives).

The paper names wavelets (Matias-Vitter-Wang style) alongside histograms
as interchangeable NUMERIC summarization tools: "our ideas can easily be
extended to other techniques".  This module provides that extension — a
:class:`HaarWavelet` over the value-frequency vector, keeping the ``B``
largest (normalized) coefficients — with the same operation surface the
synopsis core needs: range estimation, coefficient-dropping compression,
and linear fusion (the Haar transform is linear, so summaries over the
same grid fuse by adding coefficients).

The frequency vector is laid over a fixed power-of-two grid of the value
domain; grids of different domains are re-expanded and re-transformed on
fusion.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Bytes per retained coefficient: index (4) + value (4).
COEFFICIENT_BYTES = 8
#: Fixed header: domain lo (4) + cell width (4) + length (4).
HEADER_BYTES = 12

#: Maximum grid length; wider domains use coarser (multi-integer) cells.
MAX_GRID = 1024


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power *= 2
    return power


def haar_transform(vector: Sequence[float]) -> List[float]:
    """The (unnormalized) Haar decomposition of a power-of-two vector.

    Index 0 holds the overall average; detail coefficients follow in the
    standard wavelet ordering.
    """
    length = len(vector)
    if length & (length - 1):
        raise ValueError("haar_transform needs a power-of-two length")
    data = list(vector)
    output = [0.0] * length
    width = length
    while width > 1:
        half = width // 2
        for index in range(half):
            a = data[2 * index]
            b = data[2 * index + 1]
            data[index] = (a + b) / 2.0
            output[half + index] = (a - b) / 2.0
        width = half
    output[0] = data[0]
    return output


def inverse_haar(coefficients: Sequence[float]) -> List[float]:
    """Invert :func:`haar_transform`."""
    length = len(coefficients)
    if length & (length - 1):
        raise ValueError("inverse_haar needs a power-of-two length")
    data = list(coefficients)
    width = 1
    while width < length:
        next_data = [0.0] * (2 * width)
        for index in range(width):
            average = data[index]
            detail = coefficients[width + index] if width + index < length else 0.0
            next_data[2 * index] = average + detail
            next_data[2 * index + 1] = average - detail
        data[: 2 * width] = next_data
        width *= 2
    return data[:length]


class HaarWavelet:
    """A truncated Haar-wavelet synopsis of a value-frequency vector."""

    __slots__ = ("domain_lo", "cell_width", "length", "coefficients", "total")

    def __init__(
        self,
        domain_lo: int,
        cell_width: int,
        length: int,
        coefficients: Dict[int, float],
        total: float,
    ) -> None:
        if length & (length - 1):
            raise ValueError("grid length must be a power of two")
        if cell_width < 1:
            raise ValueError("cell width must be >= 1")
        self.domain_lo = domain_lo
        self.cell_width = cell_width
        self.length = length
        self.coefficients = dict(coefficients)
        self.total = total

    # -- construction -------------------------------------------------------

    @classmethod
    def from_values(
        cls, values: Iterable[int], max_coefficients: int = 64
    ) -> "HaarWavelet":
        return cls.from_counts(Counter(values), max_coefficients)

    @classmethod
    def from_counts(
        cls, counts: Mapping[int, int], max_coefficients: int = 64
    ) -> "HaarWavelet":
        """Build from value -> positive count (floats sum counts exactly)."""
        if not counts:
            return cls(0, 1, 1, {}, 0.0)
        lo, hi = min(counts), max(counts)
        span = hi - lo + 1
        cell_width = max(1, (span + MAX_GRID - 1) // MAX_GRID)
        length = _next_power_of_two(max(1, (span + cell_width - 1) // cell_width))
        vector = [0.0] * length
        for value, times in counts.items():
            vector[(value - lo) // cell_width] += times
        return cls.from_vector(lo, cell_width, vector, max_coefficients)

    @classmethod
    def from_vector(
        cls,
        domain_lo: int,
        cell_width: int,
        vector: Sequence[float],
        max_coefficients: int,
    ) -> "HaarWavelet":
        """Transform a frequency vector and keep the top coefficients.

        Retention uses the standard normalized-magnitude criterion
        (coefficient magnitude scaled by sqrt of its support), which
        minimizes the L2 reconstruction error.
        """
        coefficients = haar_transform(vector)
        total = sum(vector)

        def weight(index: int) -> float:
            if index == 0:
                return float("inf")  # the average is always kept
            level = index.bit_length() - 1
            support = len(vector) // (1 << level)
            return abs(coefficients[index]) * (support**0.5)

        ranked = sorted(range(len(coefficients)), key=weight, reverse=True)
        kept = {
            index: coefficients[index]
            for index in ranked[:max_coefficients]
            if coefficients[index] != 0.0 or index == 0
        }
        return cls(domain_lo, cell_width, len(vector), kept, total)

    # -- reconstruction and estimation -----------------------------------------

    def reconstruct(self) -> List[float]:
        """The approximate frequency vector."""
        dense = [0.0] * self.length
        for index, value in self.coefficients.items():
            dense[index] = value
        return inverse_haar(dense)

    @property
    def domain(self) -> Tuple[int, int]:
        return (
            self.domain_lo,
            self.domain_lo + self.length * self.cell_width - 1,
        )

    def estimate_range(self, low: int, high: int) -> float:
        """Estimated number of values in ``[low, high]``."""
        if high < low or self.total == 0:
            return 0.0
        vector = self.reconstruct()
        lo_cell = (low - self.domain_lo) // self.cell_width
        hi_cell = (high - self.domain_lo) // self.cell_width
        estimate = 0.0
        for cell in range(max(0, lo_cell), min(self.length - 1, hi_cell) + 1):
            cell_lo = self.domain_lo + cell * self.cell_width
            cell_hi = cell_lo + self.cell_width - 1
            overlap = min(cell_hi, high) - max(cell_lo, low) + 1
            fraction = overlap / self.cell_width
            estimate += max(0.0, vector[cell]) * fraction
        return estimate

    def selectivity(self, low: int, high: int) -> float:
        """Estimated fraction of values in ``[low, high]``, clamped."""
        if self.total == 0:
            return 0.0
        return min(1.0, max(0.0, self.estimate_range(low, high) / self.total))

    # -- compression and fusion ---------------------------------------------------

    @property
    def coefficient_count(self) -> int:
        return len(self.coefficients)

    def compress(self, drop: int = 1) -> "HaarWavelet":
        """Drop the ``drop`` smallest-weight detail coefficients."""

        def weight(item: Tuple[int, float]) -> float:
            index, value = item
            if index == 0:
                return float("inf")
            level = index.bit_length() - 1
            support = self.length // (1 << level)
            return abs(value) * (support**0.5)

        ranked = sorted(self.coefficients.items(), key=weight, reverse=True)
        kept = dict(ranked[: max(1, len(ranked) - drop)])
        return HaarWavelet(
            self.domain_lo, self.cell_width, self.length, kept, self.total
        )

    def fuse(self, other: "HaarWavelet") -> "HaarWavelet":
        """Combine two wavelets (sum of the underlying distributions)."""
        if self.total == 0:
            return other
        if other.total == 0:
            return self
        if (
            self.domain_lo == other.domain_lo
            and self.cell_width == other.cell_width
            and self.length == other.length
        ):
            # Same grid: the transform is linear, coefficients add.
            merged = dict(self.coefficients)
            for index, value in other.coefficients.items():
                merged[index] = merged.get(index, 0.0) + value
            return HaarWavelet(
                self.domain_lo,
                self.cell_width,
                self.length,
                merged,
                self.total + other.total,
            )
        # Different grids: re-expand over the union domain.
        lo = min(self.domain[0], other.domain[0])
        hi = max(self.domain[1], other.domain[1])
        span = hi - lo + 1
        cell_width = max(1, (span + MAX_GRID - 1) // MAX_GRID)
        length = _next_power_of_two(max(1, (span + cell_width - 1) // cell_width))
        vector = [0.0] * length
        for wavelet in (self, other):
            dense = wavelet.reconstruct()
            for cell, mass in enumerate(dense):
                if mass == 0.0:
                    continue
                cell_lo = wavelet.domain_lo + cell * wavelet.cell_width
                vector[(cell_lo - lo) // cell_width] += mass
        budget = max(len(self.coefficients), len(other.coefficients))
        return HaarWavelet.from_vector(lo, cell_width, vector, budget)

    def invariant_issues(self, tolerance: float = 1e-6) -> List[str]:
        """Structural issues of the truncated transform (empty = healthy).

        * the grid length is a power of two and coefficient indexes fall
          inside it;
        * coefficients are finite numbers;
        * the reconstructed vector's mass matches ``total`` (the Haar
          average coefficient carries the total exactly, so truncation
          never perturbs it);
        * ``total`` is non-negative.
        """
        issues: List[str] = []
        if self.length & (self.length - 1):
            issues.append(f"grid length {self.length} is not a power of two")
        for index, value in self.coefficients.items():
            if not 0 <= index < self.length:
                issues.append(f"coefficient index {index} outside the grid")
            if value != value or value in (float("inf"), float("-inf")):
                issues.append(f"coefficient {index} is not finite ({value!r})")
        if self.total < 0:
            issues.append(f"total {self.total!r} is negative")
        elif not issues:
            reconstructed = sum(self.reconstruct())
            scale = max(1.0, abs(self.total))
            if abs(reconstructed - self.total) > tolerance * scale:
                issues.append(
                    f"reconstructed mass {reconstructed!r} != total {self.total!r}"
                )
        return issues

    def size_bytes(self) -> int:
        """Storage footprint: header plus 8 bytes per coefficient."""
        return HEADER_BYTES + COEFFICIENT_BYTES * len(self.coefficients)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HaarWavelet(cells={self.length}, "
            f"coefficients={len(self.coefficients)}, total={self.total:g})"
        )
