"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible. Messages name both shapes."""


class ArgumentError(ValueError):
    """Raised for invalid argument values (bad ratios, ranks, variants, ...)."""


class NumericError(ArithmeticError):
    """Raised when a computation fails numerically (non-convergence, non-finite).

    Carries an optional ``step`` for failures inside loops.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class GraphError(RuntimeError):
    """Raised on tape misuse: dangling input ids, reuse of a consumed tape."""


class CheckpointFormatError(Exception):
    """Raised when a checkpoint file is malformed or has a bad magic/version."""
