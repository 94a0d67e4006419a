"""The two-pass reference partition against the fixpoint oracle.

``repro.core.reference`` computes the coarsest count-stable partition
with one bottom-up and one top-down pass; ``repro.check.oracles`` keeps
the iterative both-ways refinement it replaced.  On every tree the two
must give the identical class column — the same partition *and* the
same first-occurrence numbering.  Small label and kind alphabets make
isomorphic sibling subtrees (the case the down pass must merge and the
up pass must keep apart by context) common; star and chain shapes are
the extremes of fan-out and depth.
"""

import random

import pytest

from repro.check.oracles import fixpoint_reference_classes, refine_to_fixpoint
from repro.core.reference import (
    build_reference_synopsis,
    down_pass,
    reference_classes,
    up_pass,
)
from repro.datasets import generate_imdb, generate_xmark
from repro.xmltree.columnar import freeze


def _random_preorder(rng, size):
    """A random tree's parent column, numbered in preorder.

    Each new element attaches to some element on the current rightmost
    path, which is exactly the set of parents preorder allows next.
    """
    parents = [-1]
    rightmost = [0]
    for index in range(1, size):
        del rightmost[rng.randrange(len(rightmost)) + 1:]
        parents.append(rightmost[-1])
        rightmost.append(index)
    return parents


def _star(size):
    return [-1] + [0] * (size - 1)


def _chain(size):
    return list(range(-1, size - 1))


def _broom(size):
    """A chain whose last element fans out into leaves."""
    handle = size // 2
    return list(range(-1, handle)) + [handle] * (size - handle - 1)


def _initial_keys(rng, parents, labels, kinds):
    """Dense ``(label path, kind)`` ids over random labels and kinds."""
    paths = []
    interned = {}
    keys = []
    for index, parent in enumerate(parents):
        label = rng.randrange(labels)
        path = (label,) if parent < 0 else paths[parent] + (label,)
        paths.append(path)
        keys.append(
            interned.setdefault((path, rng.randrange(kinds)), len(interned))
        )
    return keys


def _assert_matches_oracle(parents, keys):
    two_pass = up_pass(down_pass(parents, keys), parents)
    assert two_pass == refine_to_fixpoint(len(parents), parents, keys)


@pytest.mark.parametrize("seed", range(12))
def test_two_pass_matches_fixpoint_on_random_trees(seed):
    rng = random.Random(seed)
    for _ in range(60):
        size = rng.randint(1, 48)
        parents = _random_preorder(rng, size)
        keys = _initial_keys(rng, parents, rng.randint(1, 2), rng.randint(1, 2))
        _assert_matches_oracle(parents, keys)


@pytest.mark.parametrize("shape", [_star, _chain, _broom])
def test_two_pass_matches_fixpoint_on_extreme_shapes(shape):
    rng = random.Random(shape.__name__)
    for size in (1, 2, 3, 7, 30, 64):
        for labels in (1, 2):
            for kinds in (1, 2):
                parents = shape(size)
                keys = _initial_keys(rng, parents, labels, kinds)
                _assert_matches_oracle(parents, keys)


def test_symmetric_subtrees_share_a_class_only_in_equal_context():
    # One label throughout, so initial keys only encode depth: the root
    # has two children, one with two leaves (1 -> 2, 3) and one with a
    # single leaf (4 -> 5).
    parents = [-1, 0, 1, 1, 0, 4]
    keys = [0, 1, 2, 2, 1, 2]
    classes = up_pass(down_pass(parents, keys), parents)
    # The two leaves under element 1 are interchangeable; element 5 has
    # the same subtree type but sits under a parent of another type.
    assert classes[2] == classes[3]
    assert classes[1] != classes[4]
    assert classes[5] not in (classes[2], classes[3])
    assert classes == refine_to_fixpoint(len(parents), parents, keys)


@pytest.mark.parametrize(
    "document",
    [
        generate_xmark(scale=0.1, seed=3).tree,
        generate_imdb(scale=0.1, seed=3).tree,
    ],
    ids=["xmark", "imdb"],
)
def test_reference_classes_match_oracle_on_both_substrates(document):
    expected = fixpoint_reference_classes(document)
    assert reference_classes(document) == expected
    columnar = freeze(document)
    assert reference_classes(columnar) == expected
    assert fixpoint_reference_classes(columnar) == expected
    # One class per reference-synopsis node.
    assert len(set(expected)) == len(build_reference_synopsis(document))
