"""Synthetic datasets standing in for the paper's evaluation corpora.

The paper evaluates on a subset of the real-life IMDB data set and the
XMark synthetic benchmark (Section 6.1, Table 1).  Neither corpus ships
with this reproduction, so deterministic generators rebuild documents
with the same element vocabulary, value-type mix, and skew profile:

* :func:`generate_imdb` — a movie database with STRING titles and names,
  NUMERIC years and ratings, and TEXT plot summaries, with built-in
  structure/value correlations (era vs. rating, genre vs. cast size);
* :func:`generate_xmark` — an auction site following the published XMark
  DTD shape (regions/items, people, open and closed auctions) whose TEXT
  descriptions draw from a large Zipfian vocabulary, reproducing XMark's
  very-low-selectivity keyword predicates;
* :func:`bibliography_tree` — the small bibliographic document of the
  paper's Figure 1, for examples and tests.

All generators are pure functions of ``(scale, seed)``.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "repro.datasets.dataset": ("Dataset",),
        "repro.datasets.imdb": ("IMDB_VALUE_PATHS", "generate_imdb"),
        "repro.datasets.xmark": ("XMARK_VALUE_PATHS", "generate_xmark"),
        "repro.datasets.bibliography": ("bibliography_tree",),
        "repro.datasets.text": ("ZipfTextGenerator",),
    },
)
