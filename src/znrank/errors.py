"""Exception types shared across the package."""


class ZnrankError(Exception):
    """Base class for library errors."""


class InputFormatError(ZnrankError):
    """Malformed input text or JSON."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotIrreducible(ZnrankError):
    """The chain is not irreducible where irreducibility is required."""


class GuardExceeded(ZnrankError):
    """An enumeration or size guard would be exceeded."""


class TransientStatesPresent(ZnrankError):
    """Transient states present where a transient-free chain is required."""


class GammaReducible(ZnrankError):
    """The reduced class chain has more than one closed class."""


class SingularSystem(ZnrankError):
    """A linear system that should be regular turned out singular."""


class EpsOutOfRange(ZnrankError):
    """Perturbation size outside (0, 1]."""


class ZeroPolynomial(ZnrankError):
    """The zero polynomial has no minimal degree."""


class MissingReverseWeight(ZnrankError):
    """A comparison (i, j) is present without its reverse (j, i)."""


class NonpositiveWeight(ZnrankError):
    """Weights in this model must be strictly positive."""
