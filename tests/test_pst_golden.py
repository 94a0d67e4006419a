"""Golden bytes for encoded pruned suffix trees.

Pins the sha256 of the snapshot-encoded (and JSON-encoded) PST payloads
of the reference synopses of XMark 0.2 and IMDB 0.1, of the same PSTs
after fusing adjacent pairs, of each after a chain of kernel
``st_cmprs`` stepper advances that includes one rollback, and of each
after batches of the count-only ablation pruner.  The encoders
walk the trie in pre-order with children in insertion order, so these
bytes pin per-parent child order as well as the substrings and counts.
PST bytes depend only on document order, not on ``PYTHONHASHSEED`` or
the Python version.
"""

import copy
import hashlib
import json

import pytest

from repro.core import build_reference_synopsis
from repro.core.baselines import naive_prune_pst
from repro.core.serialization import _encode_summary
from repro.core.snapshot import _encode_pst
from repro.datasets import generate_imdb, generate_xmark
from repro.values.kernels.queue import make_stepper
from repro.values.summary import StringSummary

#: (dataset, case) -> sha256 of the concatenated PST payloads.
GOLDEN = {
    ("xmark", "reference"): (
        "8f44f23b14e8a4526eecbf6283a550f69ce414a85d191886bf1667951db81761"
    ),
    ("xmark", "fused"): (
        "a1fa78f7221d15ccbbdad27a8f6d4c0a3716ff5b2751557d9e48e93facc8c9d2"
    ),
    ("xmark", "stepped"): (
        "e2fb007a65a7c4672a5d41c9fbebb1ff53ad58bfec94110848c49efce5e6f608"
    ),
    ("imdb", "reference"): (
        "06a5da14e54581ceb504a541cce69f2696e36bd15479bcbe27762d278851c451"
    ),
    ("imdb", "fused"): (
        "28aeac6e542a4371d55ee9980c3bc9e789b7ab73d63959d100a733ef75192eaf"
    ),
    ("xmark", "naive"): (
        "2d782de0090b5110a3083313f234e535ca5e2b9e69dc4d7598d26c8fa440e51b"
    ),
    ("imdb", "naive"): (
        "db3a608572a37df45b6bc0e740c34efe6ae2e00f9ecd1f2aed7ec702eeb218e6"
    ),
    ("imdb", "stepped"): (
        "12414df8aa5fbc84d3647cae98ccb02d80a6916cdb5432bb9b875cfef993fb8a"
    ),
}


def _string_summaries(dataset):
    synopsis = build_reference_synopsis(dataset.tree, dataset.value_paths)
    return [
        node.vsumm
        for node in sorted(synopsis, key=lambda node: node.node_id)
        if isinstance(node.vsumm, StringSummary)
    ]


@pytest.fixture(scope="module")
def summaries():
    return {
        "xmark": _string_summaries(generate_xmark(scale=0.2, seed=7)),
        "imdb": _string_summaries(generate_imdb(scale=0.1, seed=42)),
    }


class _Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, summary):
        payload = bytearray()
        _encode_pst(summary, payload)
        self._hash.update(bytes(payload))
        encoded = json.dumps(_encode_summary(summary), sort_keys=True)
        self._hash.update(encoded.encode("utf-8"))

    def hexdigest(self):
        return self._hash.hexdigest()


def _reference(summaries):
    digest = _Digest()
    for summary in summaries:
        digest.add(summary)
    return digest.hexdigest()


def _fused(summaries):
    digest = _Digest()
    for left, right in zip(summaries[::2], summaries[1::2]):
        digest.add(left.fuse(right))
    return digest.hexdigest()


def _stepped(summaries):
    digest = _Digest()
    for summary in summaries:
        stepper = make_stepper(summary, "kernel")
        for amount in (3, 7):
            advanced = stepper.advance(amount)
            if advanced is not None:
                digest.add(advanced)
        stepper.rollback()
        digest.add(stepper.expected)
        for amount in (5, 2):
            advanced = stepper.advance(amount)
            if advanced is not None:
                digest.add(advanced)
        digest.add(summary)  # the node's own trie is never touched
    return digest.hexdigest()


def _naive(summaries):
    """The count-only ablation pruner, in batches that break count ties."""
    digest = _Digest()
    for summary in summaries:
        tree = copy.deepcopy(summary.pst)
        for batch in (7, 1, 25):
            naive_prune_pst(tree, batch)
            digest.add(StringSummary(tree))
    return digest.hexdigest()


CASES = {
    "reference": _reference,
    "fused": _fused,
    "stepped": _stepped,
    "naive": _naive,
}


@pytest.mark.parametrize("dataset,case", sorted(GOLDEN))
def test_pst_payload_bytes_are_pinned(summaries, dataset, case):
    assert summaries[dataset], "dataset has no STRING summaries"
    assert CASES[case](summaries[dataset]) == GOLDEN[(dataset, case)]
