"""Value-summary substrate for XCluster synopses (paper Section 3).

Three approximation mechanisms, one per value type:

* NUMERIC — :class:`~repro.values.histogram.Histogram`: bucketed frequency
  distributions with equi-depth construction, bucket *alignment + merge*
  fusion (used during node merges), and adjacent-pair compression (the
  ``hist_cmprs`` operation);
* STRING — :class:`~repro.values.pst.PrunedSuffixTree`: substring counts
  with greedy maximal-overlap Markovian estimation, and error-driven leaf
  pruning (the ``st_cmprs`` operation) that retains at least one node per
  symbol and preserves the PST monotonicity constraint;
* TEXT — :class:`~repro.values.ebth.EndBiasedTermHistogram`: the paper's
  novel summary for Boolean term-vector centroids, combining exact top
  frequencies with a run-length-compressed 0/1 uniform bucket (the
  ``tv_cmprs`` operation trims the exact part).

:mod:`repro.values.summary` wraps all three behind the uniform
:class:`~repro.values.summary.ValueSummary` interface that the synopsis
core consumes (selectivity lookup, fusion, compression, atomic predicates
for the Δ metric, and byte-accurate size accounting).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "repro.values.rle": ("RunLengthBitmap",),
        "repro.values.histogram": ("Histogram", "HistogramBucket"),
        "repro.values.pst": ("PrunedSuffixTree",),
        "repro.values.termvector": ("TermCentroid", "Vocabulary"),
        "repro.values.ebth": ("EndBiasedTermHistogram",),
        "repro.values.summary": (
            "ValueSummary",
            "HistogramSummary",
            "StringSummary",
            "TextSummary",
            "build_summary",
            "fuse_summaries",
        ),
    },
)
