"""Build one synopsis through the public API, in a fresh interpreter.

The ``build-imdb`` workload (and the ``serve-read`` set-up) run this
once per repetition: ``ingest_file`` -> ``build_xcluster`` ->
``save_snapshot``, exactly what a library user's build script does::

    PYTHONPATH=src python benchmarks/e2e/build_child.py doc.xml out.snap \
        --structural-budget 16384 --value-budget 4194304 --value-paths paths.json
"""

import argparse
import json
import sys

from repro.core import build_xcluster, save_snapshot
from repro.xmltree import ingest_file


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("document")
    parser.add_argument("output")
    parser.add_argument("--structural-budget", type=int, required=True)
    parser.add_argument("--value-budget", type=int, required=True)
    parser.add_argument("--value-paths", required=True,
                        help="JSON list of label paths to summarize")
    args = parser.parse_args(argv)
    with open(args.value_paths, encoding="utf-8") as handle:
        value_paths = [tuple(path) for path in json.load(handle)]
    doc = ingest_file(args.document)
    synopsis = build_xcluster(
        doc, args.structural_budget, args.value_budget, value_paths=value_paths
    )
    save_snapshot(synopsis, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
