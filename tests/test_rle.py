"""Unit and property tests for the run-length bitmap."""

from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from repro.values import RunLengthBitmap


class TestRunLengthBitmap:
    def test_from_ids_merges_adjacent(self):
        bitmap = RunLengthBitmap.from_ids([1, 2, 3, 7, 8, 12])
        assert bitmap.runs == ((1, 3), (7, 8), (12, 12))

    def test_membership(self):
        bitmap = RunLengthBitmap.from_ids([1, 2, 3, 7])
        assert 2 in bitmap
        assert 7 in bitmap
        assert 0 not in bitmap
        assert 5 not in bitmap
        assert 100 not in bitmap

    def test_len_counts_bits(self):
        assert len(RunLengthBitmap.from_ids([5, 6, 7, 20])) == 4

    def test_empty(self):
        bitmap = RunLengthBitmap.empty()
        assert len(bitmap) == 0
        assert 0 not in bitmap

    def test_duplicates_ignored(self):
        assert len(RunLengthBitmap.from_ids([3, 3, 3])) == 1

    def test_invalid_runs_rejected(self):
        with pytest.raises(ValueError):
            RunLengthBitmap([(5, 3)])
        with pytest.raises(ValueError):
            RunLengthBitmap([(1, 2), (3, 4)])  # adjacent, should be merged
        with pytest.raises(ValueError):
            RunLengthBitmap([(5, 9), (1, 2)])  # unsorted

    def test_union(self):
        left = RunLengthBitmap.from_ids([1, 2, 10])
        right = RunLengthBitmap.from_ids([3, 9, 10, 11])
        union = left.union(right)
        assert sorted(union) == [1, 2, 3, 9, 10, 11]

    def test_size_bytes(self):
        bitmap = RunLengthBitmap.from_ids([1, 2, 3, 9])
        assert bitmap.size_bytes() == 4 * 2

    def test_iteration_order(self):
        bitmap = RunLengthBitmap.from_ids([9, 1, 2])
        assert list(bitmap) == [1, 2, 9]

    def test_equality_and_hash(self):
        a = RunLengthBitmap.from_ids([1, 2])
        b = RunLengthBitmap.from_ids([2, 1])
        assert a == b
        assert hash(a) == hash(b)


@given(st.sets(st.integers(min_value=0, max_value=2000), max_size=200))
def test_membership_matches_source_set(ids):
    bitmap = RunLengthBitmap.from_ids(ids)
    assert len(bitmap) == len(ids)
    probe = set(range(0, 2001, 13)) | ids
    for position in probe:
        assert (position in bitmap) == (position in ids)


@given(
    st.sets(st.integers(min_value=0, max_value=500), max_size=80),
    st.sets(st.integers(min_value=0, max_value=500), max_size=80),
)
def test_union_matches_set_union(left_ids, right_ids):
    left = RunLengthBitmap.from_ids(left_ids)
    right = RunLengthBitmap.from_ids(right_ids)
    assert set(left.union(right)) == left_ids | right_ids


@given(st.sets(st.integers(min_value=0, max_value=10_000), max_size=300))
def test_runs_are_canonical(ids):
    bitmap = RunLengthBitmap.from_ids(ids)
    previous_end = None
    for start, end in bitmap.runs:
        assert start <= end
        if previous_end is not None:
            assert start > previous_end + 1
        previous_end = end


@given(
    st.sets(st.integers(min_value=0, max_value=300), max_size=120),
    st.lists(st.integers(min_value=0, max_value=3), min_size=301, max_size=301),
)
def test_remapped_matches_rebuild_from_mapped_ids(ids, steps):
    # A map increasing on the set bits: each set position moves past the
    # last by 1 (runs stay together) or more (runs split); an unset one
    # may take no step, so the gap it was closes (runs merge), as when a
    # term leaves the vocabulary.
    mapping = list(accumulate(
        max(step, 1) if position in ids else step
        for position, step in enumerate(steps)
    ))
    bitmap = RunLengthBitmap.from_ids(ids)
    remapped = bitmap.remapped(mapping)
    assert remapped == RunLengthBitmap.from_ids(map(mapping.__getitem__, bitmap))
    assert remapped.invariant_issues() == []
