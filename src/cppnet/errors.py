"""Exception types shared across the package."""


class CppnetError(Exception):
    """Base class for all package-specific errors."""


class InvalidDensity(CppnetError, ValueError):
    """Obstacle density outside the supported [0, 0.5] range."""


class ParseError(CppnetError, ValueError):
    """Malformed or truncated input file."""


class FormatVersionMismatch(ParseError):
    """File carries an unknown format header or version."""


class Disconnected(CppnetError, ValueError):
    """Free cells not all reachable from each other under the connectivity
    a cost matrix or path was asked for."""


class CapacityExceeded(CppnetError, ValueError):
    """More free cells than graph slots."""


class TooLarge(CppnetError, ValueError):
    """Instance too big for exhaustive search."""


class ShapeMismatch(CppnetError, ValueError):
    """Tensor shapes inconsistent with the model configuration."""


class NonFiniteActivation(CppnetError, FloatingPointError):
    """Arithmetic overflowed, was invalid or divided by zero in a forward or
    backward pass, in training or eval mode, or a forward's heat is not
    finite."""


class CacheConsumed(CppnetError, ValueError):
    """Training forward cache passed to loss_and_grads a second time."""


class DegenerateBatch(CppnetError, ValueError):
    """Batch with only one label class; the weighted loss is undefined."""


class EmptyEvalSet(CppnetError, ValueError):
    """Metrics requested over zero scenarios."""


class EmptyRecords(CppnetError, ValueError):
    """Summary statistics requested over zero records."""
