"""Exception types shared across the package."""


class CureTauError(Exception):
    """Base class for all curetau errors."""


class ParseError(CureTauError):
    """Malformed input data; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EstimationError(CureTauError):
    """An estimator is undefined on the given data."""


class NoEventsError(EstimationError):
    """No observed events; tail-based estimators are undefined."""


class DegenerateWindowError(EstimationError):
    """The tail-extrapolation window is flat or its ratio equals one."""


class SelectionFailedError(EstimationError):
    """No usable grid point when tuning the extrapolation scale factor."""


class UnstableStatisticError(EstimationError):
    """More than half of the bootstrap replicates left the statistic undefined."""


class DomainError(CureTauError):
    """Evaluation outside a curve's supported range."""


class ToleranceError(CureTauError):
    """Numerical integration did not reach the requested accuracy."""
