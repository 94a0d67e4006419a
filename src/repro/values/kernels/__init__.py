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

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "repro.values.kernels.ebth": ("EBTHCompressionKernel", "fuse_ebth"),
        "repro.values.kernels.histogram": (
            "HistogramCompressionKernel",
            "compress_histogram",
        ),
        "repro.values.kernels.pst": (
            "PSTPruneKernel",
            "prune_leaves_reference",
        ),
        "repro.values.kernels.queue": ("SummaryStepper", "make_stepper"),
    },
)
