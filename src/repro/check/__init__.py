"""Differential verification: invariant auditing + engine-parity fuzzing.

The correctness tooling behind ``python -m repro check``:

* :mod:`repro.check.invariants` — :class:`InvariantAuditor`, walking a
  synopsis and returning structured :class:`Violation` records for
  every breach of the paper's definitional invariants;
* :mod:`repro.check.diffharness` — :class:`DifferentialHarness`, the
  seeded fuzzer running reference-vs-production builds and scalar-vs-
  compiled estimation side by side on generated documents;
* :mod:`repro.check.oracles` — slow reference implementations kept off
  the production call path (the fixpoint partition and object-tree
  assembly oracles, the PST estimation oracle, the scalar
  :class:`~repro.check.oracles.ReferenceBuilder`, the scalar
  ``XClusterEstimator`` and the tree-walk exact evaluator);
* :mod:`repro.check.shrink` — delta-debugging minimization of failing
  documents and queries;
* :mod:`repro.check.report` — :class:`CheckReport` aggregation.
"""

from repro.check.diffharness import (
    DifferentialHarness,
    DocumentConfig,
    DocumentGenerator,
    HarnessConfig,
    run_differential_check,
)
from repro.check.invariants import InvariantAuditor, Violation, audit_synopsis
from repro.check.report import CheckReport, Failure
from repro.check.shrink import shrink_document, shrink_query, shrink_updates

__all__ = [
    "CheckReport",
    "DifferentialHarness",
    "DocumentConfig",
    "DocumentGenerator",
    "Failure",
    "HarnessConfig",
    "InvariantAuditor",
    "Violation",
    "audit_synopsis",
    "run_differential_check",
    "shrink_document",
    "shrink_query",
    "shrink_updates",
]
