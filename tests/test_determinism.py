"""Builds are byte-identical under any ``PYTHONHASHSEED``.

Each build runs in a fresh interpreter with its own hash seed, so the
iteration order of sets and dicts of strings differs between them; the
snapshot bytes must not.  The value budget is tight enough that phase 2
compresses TEXT summaries, whose ``(-weight, id)`` tie-breaks read the
term ids.
"""

import os
import subprocess
import sys

import pytest

import repro

BUILD = """
import sys
from repro.core import build_xcluster
from repro.core.snapshot import snapshot_to_bytes
from repro.datasets import generate_imdb, generate_xmark

generator = {"xmark": generate_xmark, "imdb": generate_imdb}[sys.argv[1]]
dataset = generator(float(sys.argv[2]), 7)
synopsis = build_xcluster(dataset.tree, 2000, 6000, dataset.value_paths)
sys.stdout.buffer.write(snapshot_to_bytes(synopsis))
"""

SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _snapshot(dataset, scale, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE, os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", BUILD, dataset, str(scale)],
        env=env,
        capture_output=True,
        check=True,
        timeout=300,
    ).stdout


@pytest.mark.parametrize("dataset,scale", [("xmark", 0.2), ("imdb", 0.1)])
def test_snapshot_bytes_do_not_depend_on_the_hash_seed(dataset, scale):
    first = _snapshot(dataset, scale, "0")
    assert first
    assert _snapshot(dataset, scale, "1") == first
