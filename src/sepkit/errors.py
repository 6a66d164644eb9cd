"""Exception types shared across the toolkit.

Every error raised by the public API derives from SepkitError, so callers
(including the CLI) can catch one base class and map it to an exit code.
"""

from __future__ import annotations

__all__ = [
    "BadParams", "Disconnected", "DisconnectedSelection", "DivisionByZero",
    "EmptySelection", "FieldMismatch", "GorensteinInconsistent",
    "HypothesisUnmet", "InvalidNumberField", "NontrivialRepresentation",
    "NotATree", "SaddleNodePresent", "SchemaError", "SelfLoop", "SepkitError",
    "UnknownId", "ValidationFailed", "ZeroElement",
]


class SepkitError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(SepkitError):
    """The input document does not match the expected JSON shape."""


class InvalidNumberField(SchemaError):
    """The declared minimal polynomial fails a basic sanity screen."""


class BadFieldElement(SchemaError):
    """A coefficient vector is malformed or has the wrong length."""


class SelfLoop(SepkitError):
    """A crossing joins a component to itself."""


class Disconnected(SepkitError):
    """The dual graph is not connected."""


class UnknownId(SepkitError):
    """A referenced component or singularity id does not exist."""


class FieldMismatch(SepkitError):
    """Two elements from different number fields were combined."""


class DivisionByZero(SepkitError):
    """Division by zero, or by a non-invertible element."""


class ZeroElement(SepkitError):
    """The zero element was passed where a unit is required."""


class EmptySelection(SepkitError):
    """A subcurve selection contains no components."""


class DisconnectedSelection(SepkitError):
    """A subcurve selection does not induce a connected graph."""


class NotATree(SepkitError):
    """The operation requires a dual graph without cycles."""


class NontrivialRepresentation(SepkitError):
    """The residue representation is not trivial."""


class SaddleNodePresent(SepkitError):
    """A saddle-node crossing blocks residue propagation."""


class HypothesisUnmet(SepkitError):
    """A named hypothesis of the requested criterion does not hold."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        message = hypothesis if not detail else f"{hypothesis}: {detail}"
        super().__init__(message)


class GorensteinInconsistent(SepkitError):
    """Supplied normal-sheaf data contradicts the intersection matrix."""


class ValidationFailed(SepkitError):
    """The graph has error-level validation findings."""

    def __init__(self, findings):
        self.findings = list(findings)
        errors = [f for f in self.findings if f.severity == "error"]
        super().__init__(f"{len(errors)} validation error(s)")


class BadParams(SepkitError):
    """A fixture generator was called with unusable parameters."""
