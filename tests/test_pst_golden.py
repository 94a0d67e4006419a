"""Golden bytes for encoded pruned suffix trees.

Pins the sha256 of the snapshot-encoded (and JSON-encoded) PST payloads
of the reference synopses of XMark 0.2 and IMDB 0.1, of the same PSTs
after fusing adjacent pairs, of each after a chain of kernel
``st_cmprs`` stepper advances that includes one rollback, and of each
after batches of the count-only ablation pruner.  The encoders
walk the trie in pre-order with each parent's children sorted by
symbol, so these bytes pin the substrings and counts alone (the
ablation pruner breaks ties in dict order, which follows document
order).  None of it depends on ``PYTHONHASHSEED`` or the Python version.
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
        "c58f2ce2b6cceebe137cf32f8844d875f2036bbcfe29440c095fd84191a02328"
    ),
    ("xmark", "fused"): (
        "6d4d3212530e01a093a14d94d77755942f252b0822762407f084fc2ea5a01c04"
    ),
    ("xmark", "stepped"): (
        "b51391ebf407d87459e76ad7398dbb7e3fb73d0d1ba3b543115e9454df6ec0a3"
    ),
    ("imdb", "reference"): (
        "5080dd7a8090ff637d5ab716e04a52dcd8016d38b2084bee1f5c5495822144ae"
    ),
    ("imdb", "fused"): (
        "454b065b8cfab9345230f7d10879580be64fdc91767416b55399a86ae06a2501"
    ),
    ("xmark", "naive"): (
        "5ee2d570b6acea4ff59a7b452b9623218f4c036a0cf4e57ca3a95a44300f2439"
    ),
    ("imdb", "naive"): (
        "9d60aa791cd6ada2e132b2c242d8d3f9241b896e8c1d09b40acff21be3916902"
    ),
    ("imdb", "stepped"): (
        "13033106d9c435dc255fae4f634740ebbd1a44c4238b05811a56dfe55c1c8d21"
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
        stepper = make_stepper(summary)
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
