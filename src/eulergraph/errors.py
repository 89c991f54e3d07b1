"""Exception types shared across the package.

Each type maps to one exit code of the command line: :class:`FormatError`
is a :class:`ValueError`, and with every other ``ValueError`` it is an input
error (exit 2); :class:`MergeExhaustedError` is a search that gave up (exit
3); :class:`CertificateViolation` is an internal error (exit 4).  A verified
"no Euler family" is a return value, not an exception.
"""

from __future__ import annotations


class EulerGraphError(Exception):
    """Base class for all package-specific errors."""


class FormatError(EulerGraphError, ValueError):
    """Malformed input text: hypergraph file or tour certificate."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class CertificateViolation(EulerGraphError):
    """An object that should be a valid certificate failed an internal consistency check."""


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
