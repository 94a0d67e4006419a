"""Golden bytes for encoded pruned suffix trees.

Pins the sha256 of the snapshot-encoded and of the JSON-encoded PST payloads
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

#: (dataset, case) -> sha256 of the concatenated PST payloads, as
#: (snapshot-encoded, JSON-encoded).  The snapshot digests move with the
#: snapshot format version; the JSON digests pin the trie contents, so a
#: format change that re-pins the first must leave the second alone.
GOLDEN = {
    ("xmark", "reference"): (
        "b8ae79d844864d55b2db5d22e9cb9a89b3e61235f34330d6958a445ae02922f4",
        "859f8dfed23395e0e7bb3e43cc7b771b0534adebf8a136aee0e0e1374fdc1dc9",
    ),
    ("xmark", "fused"): (
        "1981314dcf1e387ecf6a2485c4980f621ff75935e5bdd41ffdbbd04d74129ca5",
        "0497eec90bc78d9374945ff2a03c95d2f393ad77a5dcb83705c8e96cfdb12f8d",
    ),
    ("xmark", "stepped"): (
        "9ae12ed4d531a518888b6771ec689a5ab74eac2ab1ec2fddc325d5ba0f4c7c1d",
        "4114985cbbeb7bafeaeafd884add98ade2b0072a63bbdd91ce328020dd600611",
    ),
    ("imdb", "reference"): (
        "33eeb9ac86d87c8c8529617aadfa15d7c244c33c8b74b63d5c8441b477456373",
        "891e80217987826f66937cc08d6e33c8d1d6e60618f4ce88fc4657095fadfacf",
    ),
    ("imdb", "fused"): (
        "47aa9933561a6c3ed7ecc6df64ea07d3570d9e266af32e829f9aa5d1baa7df80",
        "2c83b484480cc8b72d23c20b891bd803084b1d31d9ee21c9590b3eb00856a653",
    ),
    ("xmark", "naive"): (
        "436cc751e7b522c4c6a352811b4ffae731cc934a74e78c62f4a6c1b9877747bb",
        "47e102be3176e0c9726c94e689aad8258d981bdb12f75e678a0c4886b2dda3e5",
    ),
    ("imdb", "naive"): (
        "94ecb6a6122649b7c8e7993b310bfec814427133a5c3ecb042dd3a58f88deac4",
        "b456e2157cb02e768fcfb1eb34103da5cfbe461954dca9992851effa9edcfcf9",
    ),
    ("imdb", "stepped"): (
        "3d9917c57f64ad105661260f85d1bc0284b16c19ff549f77f936c38ce55c0a31",
        "235feb2276c7a78e8a4e05987fa88e9150b8d42fe8734f6819d4af6fbefc4cbf",
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
        self._snapshot = hashlib.sha256()
        self._json = hashlib.sha256()

    def add(self, summary):
        payload = bytearray()
        _encode_pst(summary, payload)
        self._snapshot.update(bytes(payload))
        encoded = json.dumps(_encode_summary(summary), sort_keys=True)
        self._json.update(encoded.encode("utf-8"))

    def hexdigest(self):
        return self._snapshot.hexdigest(), self._json.hexdigest()


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
