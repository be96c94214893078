"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible. Messages name both shapes."""


class ArgumentError(ValueError):
    """Raised for invalid argument values (bad ratios, ranks, variants, ...)."""


class NumericError(ArithmeticError):
    """Raised when a computation fails numerically (non-convergence, non-finite).

    The handlers it passes through set ``layer`` (a layer or parameter name)
    and ``step``, which ``str`` adds: ``step 3: non-finite output of layers.1``.
    """

    step = None
    layer = None

    def __str__(self):
        text = super().__str__()
        if self.layer is not None:
            text = f"{text} of {self.layer}"
        return text if self.step is None else f"step {self.step}: {text}"


class GraphError(RuntimeError):
    """Raised on reuse of what runs once: a layer's backward context, a step's tape."""


class CheckpointFormatError(Exception):
    """Raised when a checkpoint file is malformed or has a bad magic/version."""
