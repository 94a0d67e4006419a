"""Structured result types for the verification subsystem.

A check run produces a :class:`CheckReport`: the invariant violations
found by the auditor plus the differential-harness failures, each
carrying the seed that reproduces it and (when shrinking succeeded) a
minimal counterexample.  Reports render to text for the CLI and to
plain dictionaries for ``--json`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.check.invariants import Violation


@dataclass
class Failure:
    """One differential-harness failure, reproducible from its seed.

    Attributes:
        kind: failure class (``"partition-divergence"``,
            ``"assembly-divergence"``, ``"build-divergence"``, ``"estimate-divergence"``, ``"audit"``,
            ``"serialization-divergence"``, ``"columnar-divergence"``,
            ``"evaluator-divergence"``, ``"tokenizer-divergence"``,
            ``"update-divergence"``, ``"crash"``).  For
            ``"tokenizer-divergence"`` the size fields count characters
            of the malformed input; for ``"update-divergence"`` the
            size fields count *update ops* (``document_size`` applied,
            ``shrunk_size`` after ddmin, ``shrunk_document`` their
            JSON-encoded minimal sequence).
        seed: the round seed; re-running the harness round with this
            seed reproduces the failure deterministically.
        message: what diverged, with both values where applicable.
        query: the offending twig query (XPath text) if query-level.
        document_size: element count of the failing document.
        shrunk_size: element count after shrinking, when a minimal
            counterexample was found (always <= ``document_size``).
        shrunk_document: serialized XML of the minimal counterexample.
        shrunk_query: the minimal failing query (XPath text).
    """

    kind: str
    seed: int
    message: str
    query: Optional[str] = None
    document_size: Optional[int] = None
    shrunk_size: Optional[int] = None
    shrunk_document: Optional[str] = None
    shrunk_query: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to JSON-serializable primitives (shrunk tree omitted)."""
        return {
            "kind": self.kind,
            "seed": self.seed,
            "message": self.message,
            "query": self.query,
            "document_size": self.document_size,
            "shrunk_size": self.shrunk_size,
            "shrunk_query": self.shrunk_query,
        }

    def __str__(self) -> str:
        parts = [f"[seed {self.seed}] {self.kind}: {self.message}"]
        if self.query:
            parts.append(f"  query: {self.query}")
        if self.shrunk_size is not None and self.document_size is not None:
            parts.append(
                f"  shrunk: {self.document_size} -> {self.shrunk_size} elements"
            )
            if self.shrunk_query:
                parts.append(f"  shrunk query: {self.shrunk_query}")
        return "\n".join(parts)


@dataclass
class CheckReport:
    """The aggregate outcome of a verification run."""

    violations: List[Violation] = field(default_factory=list)
    failures: List[Failure] = field(default_factory=list)
    rounds: int = 0
    queries_checked: int = 0
    seed: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.failures

    def extend(self, other: "CheckReport") -> None:
        """Fold another report into this one (for multi-stage runs)."""
        self.violations.extend(other.violations)
        self.failures.extend(other.failures)
        self.rounds += other.rounds
        self.queries_checked += other.queries_checked

    def to_dict(self) -> Dict[str, Any]:
        """Flatten the report for ``python -m repro check --json``."""
        return {
            "ok": self.ok,
            "seed": self.seed,
            "rounds": self.rounds,
            "queries_checked": self.queries_checked,
            "violations": [
                {
                    "invariant": violation.invariant,
                    "message": violation.message,
                    "node_id": violation.node_id,
                    "severity": violation.severity,
                }
                for violation in self.violations
            ],
            "failures": [failure.to_dict() for failure in self.failures],
        }

    def format_text(self) -> str:
        """Render the human-readable report the CLI prints by default."""
        lines: List[str] = []
        if self.seed is not None:
            lines.append(f"master seed: {self.seed}")
        if self.rounds:
            lines.append(
                f"{self.rounds} fuzz round(s), "
                f"{self.queries_checked} quer{'y' if self.queries_checked == 1 else 'ies'} checked"
            )
        if self.violations:
            lines.append(f"{len(self.violations)} invariant violation(s):")
            for violation in self.violations:
                lines.append(f"  {violation}")
        if self.failures:
            lines.append(f"{len(self.failures)} differential failure(s):")
            for failure in self.failures:
                for line in str(failure).splitlines():
                    lines.append(f"  {line}")
        if self.ok:
            lines.append("all checks passed")
        return "\n".join(lines)
