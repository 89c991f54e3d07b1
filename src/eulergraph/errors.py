"""Exception types shared across the package."""

from __future__ import annotations


class EulerGraphError(Exception):
    """Base class for all package-specific errors."""


class FormatError(EulerGraphError):
    """Malformed input text: hypergraph file or tour certificate."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class CertificateViolation(EulerGraphError):
    """An object that should be a valid certificate failed an internal consistency check."""


class InfeasibleDegreeError(EulerGraphError):
    """No anchor choice meets the degree rules, so no Euler family exists.

    Raised for an edge with fewer undecided vertices than anchors it still
    needs (such as a hyperedge of fewer than two vertices, which can never be
    traversed), or for a vertex with no choice left and an odd anchor count.
    """


class InadmissibleOrderError(EulerGraphError, ValueError):
    """Requested a Steiner triple system of an order for which none exists."""


class MergeExhaustedError(EulerGraphError):
    """Tour merging gave up: step budget spent or no productive move found.

    Carries the stuck certificate for diagnosis: ``anchors[e]``, the two
    vertex indices edge e is traversed between, as in ``FamilySubgraph``.
    """

    def __init__(self, reason: str, steps: int, anchors=None):
        self.reason = reason
        self.steps = steps
        self.anchors = anchors
        super().__init__(f"merge exhausted ({reason}) after {steps} interchange steps")
