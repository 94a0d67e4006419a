"""Optimized execution kernels for the value-summary families.

The classes in :mod:`repro.values` stay the bit-exact reference oracles
(the same pattern as the scoring and estimation engines): every kernel
here produces *identical* results — same prune/merge decisions, same
counts, same float arithmetic — while replacing the scalar hot loops:

* :mod:`repro.values.kernels.pst` — an incremental pruning-error
  priority queue for ``st_cmprs`` (lazy invalidation keyed on the one
  suffix each Markov estimate depends on);
* :mod:`repro.values.kernels.histogram` — heap-driven ``hist_cmprs``
  that replays the exact greedy merge sequence without rescanning all
  adjacent pairs per step;
* :mod:`repro.values.kernels.ebth` — vocabulary-id array fusion over
  run cursors and incremental ``tv_cmprs`` demotion chains;
* :mod:`repro.values.kernels.queue` — the per-node compression steppers
  the builder's phase-2 priority queue drives.
"""

from repro.values.kernels.ebth import EBTHCompressionKernel, fuse_ebth
from repro.values.kernels.histogram import (
    HistogramCompressionKernel,
    compress_histogram,
)
from repro.values.kernels.pst import PSTPruneKernel, prune_leaves_reference


def __getattr__(name):
    # The stepper layer imports repro.values.summary, which itself uses
    # the fusion/compression kernels above — loading it lazily keeps this
    # package importable from summary.py without a cycle (PEP 562).
    if name in ("SummaryStepper", "make_stepper"):
        from repro.values.kernels import queue

        return getattr(queue, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EBTHCompressionKernel",
    "HistogramCompressionKernel",
    "PSTPruneKernel",
    "SummaryStepper",
    "compress_histogram",
    "fuse_ebth",
    "make_stepper",
    "prune_leaves_reference",
]
