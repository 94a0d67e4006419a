"""Shared experiment context and the Figure 8 budget sweep.

The paper varies the *structural* budget from 0 KB to 50 KB while the
*value* budget stays fixed at 150 KB (Section 6.2).  Our corpora are
generator-scaled, so budgets are expressed as **fractions of the
reference synopsis size**: the sweep covers structural fractions from 0
(the tag-only summary, the smallest possible structural clustering) up
to 1 (the full reference structure), with the value budget fixed at a
fraction of the reference value size chosen to mirror the paper's
150 KB / 473 KB ≈ 1/3 ratio.

:class:`ExperimentContext` memoizes datasets, reference synopses, and
workloads so the per-figure benches do not recompute shared inputs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.reference import build_reference_synopsis, build_tag_synopsis
from repro.core.sizing import (
    structural_size_bytes,
    total_size_bytes,
    value_size_bytes,
)
from repro.core.synopsis import XClusterSynopsis
from repro.datasets import Dataset, generate_imdb, generate_xmark
from repro.values.summary import SummaryConfig
from repro.workload import (
    Workload,
    evaluate_synopsis,
    generate_workload,
    sanity_bound,
)
from repro.workload.metrics import ErrorReport

#: Default structural-budget fractions of the reference structural size.
DEFAULT_STRUCTURAL_FRACTIONS: Tuple[float, ...] = (
    0.0, 0.05, 0.1, 0.2, 0.35, 0.55, 0.8, 1.0,
)


@dataclass
class ExperimentConfig:
    """Scale and sweep parameters shared by all experiments."""

    scale: float = 0.25
    imdb_seed: int = 42
    xmark_seed: int = 7
    workload_seed: int = 1234
    queries_per_class: int = 25
    structural_fractions: Sequence[float] = DEFAULT_STRUCTURAL_FRACTIONS
    #: Value budget as a fraction of the reference value size (the paper
    #: fixes 150 KB against a 473 KB reference; just under half of the
    #: reference's value portion).
    value_fraction: float = 0.45
    pool_max: int = 10000
    pool_min: int = 5000


@dataclass
class SweepPoint:
    """One point of the Figure 8 sweep."""

    structural_fraction: float
    structural_bytes: int
    value_bytes: int
    total_bytes: int
    report: ErrorReport

    @property
    def total_kb(self) -> float:
        return self.total_bytes / 1024.0


class ExperimentContext:
    """Builds and caches every shared experiment input."""

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config if config is not None else ExperimentConfig()
        self._datasets: Dict[str, Dataset] = {}
        self._references: Dict[str, XClusterSynopsis] = {}
        self._workloads: Dict[str, Workload] = {}

    # -- cached inputs ------------------------------------------------------

    def dataset(self, name: str) -> Dataset:
        """The (cached) generated dataset with the given name."""
        cached = self._datasets.get(name)
        if cached is None:
            if name == "imdb":
                cached = generate_imdb(self.config.scale, self.config.imdb_seed)
            elif name == "xmark":
                cached = generate_xmark(self.config.scale, self.config.xmark_seed)
            else:
                raise KeyError(f"unknown dataset {name!r}")
            self._datasets[name] = cached
        return cached

    def reference(self, name: str) -> XClusterSynopsis:
        """The (cached) reference synopsis; callers must not mutate it."""
        cached = self._references.get(name)
        if cached is None:
            dataset = self.dataset(name)
            cached = build_reference_synopsis(dataset.tree, dataset.value_paths)
            self._references[name] = cached
        return cached

    def fresh_reference(self, name: str) -> XClusterSynopsis:
        """A mutable deep copy of the reference synopsis for compression."""
        return copy.deepcopy(self.reference(name))

    def workload(self, name: str) -> Workload:
        """The (cached) positive workload for the named dataset."""
        cached = self._workloads.get(name)
        if cached is None:
            cached = generate_workload(
                self.dataset(name),
                self.config.queries_per_class,
                self.config.workload_seed,
            )
            self._workloads[name] = cached
        return cached

    # -- synopsis construction at a budget point --------------------------------

    def _build_config(self, structural_budget: int, value_budget: int) -> BuildConfig:
        return BuildConfig(
            structural_budget=structural_budget,
            value_budget=value_budget,
            pool_max=self.config.pool_max,
            pool_min=self.config.pool_min,
        )

    def build_at_fraction(
        self, name: str, structural_fraction: float
    ) -> XClusterSynopsis:
        """Build a budgeted synopsis at one sweep point.

        Fraction 0 uses the tag-only summary (the paper's "0 KB" point);
        the value-compression phase still enforces the value budget.
        """
        reference = self.reference(name)
        value_budget = int(value_size_bytes(reference) * self.config.value_fraction)
        dataset = self.dataset(name)
        if structural_fraction <= 0.0:
            synopsis = build_tag_synopsis(
                dataset.tree, dataset.value_paths, SummaryConfig()
            )
            structural_budget = structural_size_bytes(synopsis)
        else:
            synopsis = self.fresh_reference(name)
            structural_budget = int(
                structural_size_bytes(reference) * structural_fraction
            )
        builder = XClusterBuilder(self._build_config(structural_budget, value_budget))
        return builder.compress(synopsis)

    # -- the Figure 8 sweep ---------------------------------------------------------

    def sweep(
        self,
        name: str,
        fractions: Optional[Sequence[float]] = None,
    ) -> List[SweepPoint]:
        """Run the error-vs-budget sweep for one dataset.

        The sanity bound is computed once from the workload (it depends
        only on true counts) and shared across budget points, exactly as
        in the paper.
        """
        fractions = (
            list(fractions)
            if fractions is not None
            else list(self.config.structural_fractions)
        )
        workload = self.workload(name)
        bound = sanity_bound([wq.exact for wq in workload.queries])
        points: List[SweepPoint] = []
        for fraction in fractions:
            synopsis = self.build_at_fraction(name, fraction)
            report = evaluate_synopsis(synopsis, workload, bound)
            points.append(
                SweepPoint(
                    structural_fraction=fraction,
                    structural_bytes=structural_size_bytes(synopsis),
                    value_bytes=value_size_bytes(synopsis),
                    total_bytes=total_size_bytes(synopsis),
                    report=report,
                )
            )
        return points
