"""Exception types shared across the package."""

from contextlib import contextmanager


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible. Messages name both shapes."""


class ArgumentError(ValueError):
    """Raised for invalid argument values (bad ratios, ranks, variants, ...)."""


class NumericError(ArithmeticError):
    """Raised when a computation fails numerically (non-convergence, non-finite).

    ``located`` sets ``layer`` (a layer or parameter name) and ``step``, which
    ``str`` adds: ``step 3: non-finite output of layers.1``.
    """

    step = None
    layer = None

    def __str__(self):
        text = super().__str__()
        if self.layer is not None:
            text = f"{text} of {self.layer}"
        return text if self.step is None else f"step {self.step}: {text}"


@contextmanager
def located(*, step=None, layer=None):
    """Set ``step`` or ``layer`` on a NumericError raised inside the block."""
    try:
        yield
    except NumericError as exc:
        if step is not None:
            exc.step = step
        if layer is not None:
            exc.layer = layer
        raise


class GraphError(RuntimeError):
    """Raised on tape misuse: dangling input ids, reuse of a consumed tape."""


class CheckpointFormatError(Exception):
    """Raised when a checkpoint file is malformed or has a bad magic/version."""
