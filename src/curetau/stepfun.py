"""Right-continuous step functions with left-limit evaluation."""

from itertools import islice

import numpy as np

from .data import _csv_columns, _csv_rows, _csv_text
from .errors import DomainError, ParseError


class StepFunction:
    """A piecewise-constant, right-continuous function on ``[0, inf)``.

    The function equals ``initial_value`` on ``[0, x[0])`` and ``y[k]`` on
    ``[x[k], x[k+1])``; beyond the last jump it stays at ``y[-1]``.  Left
    limits are available through ``side="left"``.

    Parameters
    ----------
    x : array-like
        Strictly increasing, positive jump locations.  May be empty for a
        constant function.
    y : array-like
        Value taken at and after each jump.
    initial_value : float
        Value on ``[0, x[0])``.
    domain_end : float, optional
        When set, evaluation beyond this point raises ``DomainError`` (used
        by curves whose defining ratio degenerates past the data range).
    """

    __slots__ = ("x", "y", "initial_value", "domain_end")

    def __init__(self, x, y, initial_value=1.0, domain_end=None):
        x = np.asarray(x, dtype=float).copy()
        y = np.asarray(y, dtype=float).copy()
        if x.ndim != 1 or y.shape != x.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if x.size:
            if not np.isfinite(x).all() or x[0] <= 0:
                raise ValueError("jump locations must be finite and positive")
            if np.any(np.diff(x) <= 0):
                raise ValueError("jump locations must be strictly increasing")
        if not np.isfinite(y).all() or not np.isfinite(initial_value):
            raise ValueError("values must be finite")
        x.setflags(write=False)
        y.setflags(write=False)
        self.x = x
        self.y = y
        self.initial_value = float(initial_value)
        self.domain_end = None if domain_end is None else float(domain_end)

    def __call__(self, t, side="right"):
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        if t_arr.size and (not np.isfinite(t_arr).all() or (t_arr < 0).any()):
            raise ValueError("evaluation points must be finite and non-negative")
        if self.domain_end is not None and t_arr.size and (t_arr > self.domain_end).any():
            raise DomainError(
                f"evaluation beyond the largest observation {self.domain_end!r}"
            )
        if self.x.size == 0:
            values = np.full(t_arr.shape, self.initial_value)
        else:
            idx = np.searchsorted(self.x, t_arr, side=side) - 1
            values = np.where(idx < 0, self.initial_value, self.y[np.maximum(idx, 0)])
        return float(values[0]) if scalar else values

    @property
    def terminal_value(self):
        return float(self.y[-1]) if self.x.size else self.initial_value

    def is_survival_curve(self, tol=0.0):
        """True when values start at 1, never increase, and stay in [0, 1]."""
        vals = np.concatenate(([self.initial_value], self.y))
        return (
            abs(vals[0] - 1.0) <= tol
            and np.all(np.diff(vals) <= tol)
            and np.all(vals >= -tol)
            and np.all(vals <= 1.0 + tol)
        )

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and self.initial_value == other.initial_value
        )

    def __repr__(self):
        return (
            f"StepFunction({self.x.size} jumps, start={self.initial_value!r}, "
            f"end={self.terminal_value!r})"
        )


def write_curve_csv(curve, bands=None):
    """Write a curve as ``t,value[,lo,hi]`` rows, starting with the t=0 value.

    ``bands`` is an optional ``(lo_values, hi_values)`` pair aligned with the
    written grid ``[0, x_0, x_1, ...]``.
    """
    columns = [[0.0, *curve.x.tolist()], [curve.initial_value, *curve.y.tolist()]]
    if bands is not None:
        columns += [np.asarray(band, dtype=float).tolist() for band in bands]
    return _csv_text(("t", "value", "lo", "hi")[:len(columns)], columns)


def read_curve_csv(source):
    """Parse ``t,value[,lo,hi]`` rows back into a StepFunction (bands ignored)."""
    text = source if isinstance(source, str) else source.read()
    ts, vs, *_ = _csv_columns(text, ("t", "value"), ("lo", "hi"))
    if not ts or ts[0] != 0.0:
        # The physical line of the first data row, or line 2 without one.
        line, _ = next(islice(_csv_rows(text), 1, None), (2, None))
        raise ParseError("curve must start with its t=0 value", line)
    return StepFunction(ts[1:], vs[1:], initial_value=vs[0])
