"""Boolean term vectors and their centroids (paper Sections 2-3).

Under the set-theoretic IR model, a TEXT value is a Boolean vector over a
term dictionary.  The summary for a cluster of TEXT elements is the
*centroid* of the member vectors: ``w[t]`` is the fractional frequency of
term ``t`` (the fraction of texts containing ``t``).

:class:`Vocabulary` assigns stable integer ids to terms so that all
end-biased term histograms in a synopsis share one id space (their
run-length bitmaps must agree on term positions).  :class:`TermCentroid`
is the exact (uncompressed) centroid with the weighted-combination fusion
rule of Section 4.1.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple


class Vocabulary:
    """A bidirectional term <-> integer-id mapping shared per synopsis."""

    def __init__(self) -> None:
        self._term_to_id: Dict[str, int] = {}
        self._id_to_term: List[str] = []

    def intern(self, term: str) -> int:
        """Return the id of ``term``, assigning the next free id if new."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def id_of(self, term: str) -> int:
        """The id of a known term.

        Raises:
            KeyError: if the term was never interned.
        """
        return self._term_to_id[term]

    def get(self, term: str) -> int:
        """The id of ``term``, or -1 when unknown."""
        return self._term_to_id.get(term, -1)

    def term_of(self, term_id: int) -> str:
        """The term with the given id (IndexError if out of range)."""
        return self._id_to_term[term_id]

    def truncate(self, size: int) -> None:
        """Forget every term with id ``>= size``.

        Ids are assigned in interning order, so this rewinds the
        vocabulary to the state it had when it held ``size`` terms.
        """
        for term in self._id_to_term[size:]:
            del self._term_to_id[term]
        del self._id_to_term[size:]

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_term)


class TermCentroid:
    """The exact centroid of a collection of Boolean term vectors.

    Attributes:
        weights: mapping from term to fractional frequency in (0, 1].
        count: number of member vectors (texts).
    """

    __slots__ = ("weights", "count")

    def __init__(self, weights: Mapping[str, float], count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        for term, weight in weights.items():
            if weight <= 0.0 or weight > 1.0 + 1e-9:
                raise ValueError(f"weight of {term!r} out of (0, 1]: {weight}")
        self.weights: Dict[str, float] = dict(weights)
        self.count = count

    @classmethod
    def from_term_sets(cls, term_sets: Iterable[FrozenSet[str]]) -> "TermCentroid":
        """Build the centroid of a collection of texts (term sets)."""
        occurrences: Dict[str, int] = {}
        count = 0
        for terms in term_sets:
            count += 1
            for term in terms:
                occurrences[term] = occurrences.get(term, 0) + 1
        if count == 0:
            return cls({}, 0)
        weights = {term: hits / count for term, hits in occurrences.items()}
        return cls(weights, count)

    def frequency(self, term: str) -> float:
        """The fractional frequency ``w[t]`` (0.0 for absent terms)."""
        return self.weights.get(term, 0.0)

    def fuse(self, other: "TermCentroid") -> "TermCentroid":
        """The weighted combination ``(|u| w_u + |v| w_v) / (|u| + |v|)``."""
        total = self.count + other.count
        if total == 0:
            return TermCentroid({}, 0)
        weights: Dict[str, float] = {}
        for centroid in (self, other):
            share = centroid.count / total
            for term, weight in centroid.weights.items():
                weights[term] = weights.get(term, 0.0) + weight * share
        return TermCentroid(weights, total)

    def top_terms(self, limit: int) -> List[Tuple[str, float]]:
        """The ``limit`` highest-frequency terms, deterministic order.

        Heap-selected (O(n log limit)); the ``(-weight, term)`` key is
        unique per term, so the order matches the full sort exactly.
        """
        return heapq.nsmallest(
            limit, self.weights.items(), key=lambda item: (-item[1], item[0])
        )

    @property
    def term_count(self) -> int:
        return len(self.weights)

    def size_bytes(self) -> int:
        """Uncompressed footprint: 8 bytes per non-zero term entry."""
        return 8 * len(self.weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TermCentroid(terms={len(self.weights)}, count={self.count})"
