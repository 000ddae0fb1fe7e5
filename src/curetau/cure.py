"""Cure-fraction estimators: the KM tail value and its extrapolated correction.

The tail estimator reads the survival curve at the last observed event time
and is consistent under sufficient follow-up.  When follow-up is too short,
an extreme-value extrapolation corrects the tail using the survival drop over
two geometrically shrunken windows; a bootstrap criterion tunes the window
scale factor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWindowError, NoEventsError, SelectionFailedError
from .km import _count_chunks, _count_rows, _km_rows, km_fit

DEFAULT_B_GRID = tuple(np.round(np.arange(0.10, 0.91, 0.05), 2))


@dataclass(frozen=True)
class CureRateEstimate:
    """A cure-fraction estimate, clamped into [0, 1] with the raw value kept.

    ``method`` is ``"tail"`` for the KM tail value or ``"extrapolated"`` for
    the corrected estimate; the latter records the scale factor ``b`` and the
    tail-ratio diagnostic ``b_gamma_check``.
    """

    value: float
    method: str
    raw_value: float
    b: float | None = None
    b_gamma_check: float | None = None

    def __post_init__(self):
        if self.method not in ("tail", "extrapolated"):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"value must lie in [0, 1], got {self.value}")
        if self.method == "extrapolated" and self.b is None:
            raise ValueError("extrapolated estimates must record b")


def _last_event_time(event_curve):
    """The largest event time: the last jump of a KM event curve."""
    if event_curve.x.size == 0:
        raise NoEventsError("no events: the adjusted risk table is undefined")
    return float(event_curve.x[-1])


def eta_tail(event_curve):
    """Tail estimate: the event-survival curve at the largest event time."""
    value = event_curve(_last_event_time(event_curve))
    return CureRateEstimate(value=value, method="tail", raw_value=value)


def eta_tail_from_sample(sample):
    """Convenience wrapper: fit the event curve and take its tail value."""
    return eta_tail(km_fit(sample, "event"))


def _check_b(b):
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie in (0, 1), got {b}")


def _extrapolate(s_tail, s_outer, s_inner):
    """Window ratio and raw corrected cure rate from the event curve at
    ``t_k``, ``b * t_k`` and ``b * b * t_k``; elementwise on arrays.

    Returns ``(ratio, raw, flat, unit)``: ``flat`` marks a flat outer window
    and ``unit`` a ratio of exactly one, where the correction is undefined
    and ``ratio``/``raw`` carry no meaning.
    """
    outer_drop = s_tail - s_outer
    flat = outer_drop == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (s_outer - s_inner) / np.where(flat, 1.0, outer_drop)
        raw = s_tail - (s_outer - s_tail) / (ratio - 1.0)
    return ratio, raw, flat, ratio == 1.0


def _window_fault(flat, unit, b, t_k):
    """Why the window at scale factor ``b`` is degenerate, or None."""
    if flat:
        return f"flat tail window: curve equal at {b * t_k!r} and {t_k!r}"
    if unit:
        return "window ratio equals one; correction undefined"
    return None


def _clamp_unit(raw):
    return np.minimum(np.maximum(raw, 0.0), 1.0)


def eta_extrapolated(event_curve, b, t_k):
    """Extrapolated cure-rate estimate from the tail of the event curve.

    Evaluates the curve at ``b**2 * t_k``, ``b * t_k`` and ``t_k``, forms the
    window ratio, and subtracts the implied remaining tail mass from the tail
    estimate.  Raises ``DegenerateWindowError`` when the outer window is flat
    or the ratio equals one.
    """
    _check_b(b)
    if t_k <= 0:
        raise ValueError(f"largest event time must be positive, got {t_k}")
    s_outer = event_curve(b * t_k)
    s_inner = event_curve(b * b * t_k)
    s_tail = event_curve(t_k)
    ratio, raw, flat, unit = _extrapolate(s_tail, s_outer, s_inner)
    fault = _window_fault(flat, unit, b, t_k)
    if fault:
        raise DegenerateWindowError(fault)
    return CureRateEstimate(
        value=float(_clamp_unit(raw)),
        method="extrapolated",
        raw_value=float(raw),
        b=float(b),
        b_gamma_check=float(ratio),
    )


def _cure_rate(event_curve, b=None):
    """Cure rate of one sample from its event curve: the tail value, or with
    ``b`` the extrapolated value.  The scalar form of ``_cure_rate_rows``."""
    if b is None:
        return eta_tail(event_curve)
    return eta_extrapolated(event_curve, b, _last_event_time(event_curve))


def _cure_rate_rows(km, b=None):
    """Cure rate of each count-weighted replicate in ``km`` (a ``_KMRows``).

    The tail value, or with ``b`` the extrapolated value, computed as
    ``eta_tail`` and ``eta_extrapolated`` compute it on the resample.  NaN
    marks the rows on which that scalar path raises: no events or a
    degenerate window.  ``b`` is None, one scale factor (a value per row)
    or a 1-d sequence of them, read in one pass: a (rows x len(b)) array
    whose column j is bit for bit the value for ``b[j]`` alone, since every
    column takes the same IEEE operations ``b * t_k`` and ``(b * b) * t_k``.
    The tail value is the event curve's last column (``_KMRows``).
    """
    tail = km.surv[:, -1]
    if b is None:
        return np.where(km.has_events, tail, np.nan)
    for factor in b if np.ndim(b) else (b,):
        _check_b(factor)
    factors = np.atleast_1d(np.asarray(b, dtype=float))
    t_k = km.last_event_time[:, None]
    _, raw, flat, unit = _extrapolate(
        tail[:, None], km.at(factors * t_k), km.at((factors * factors) * t_k))
    # has_events, read off the columns already found.
    values = np.where((km.last_event > 0)[:, None] & ~flat & ~unit, _clamp_unit(raw), np.nan)
    return values if np.ndim(b) else values[:, 0]


@dataclass(frozen=True)
class BGridPoint:
    """Diagnostics for one candidate scale factor."""

    b: float
    eta_check: float
    boot_mean: float
    criterion: float
    n_missing: int
    skipped: bool
    reason: str = ""


def select_b(sample, grid=DEFAULT_B_GRID, replicates=500, seed=0):
    """Pick the scale factor whose estimate best matches its bootstrap mean.

    For every usable grid point the criterion is the absolute gap between the
    original-sample estimate and the average of the estimate over
    nonparametric bootstrap resamples (one shared set of resamples, so the
    comparison uses common random numbers and is invariant to grid order).
    Ties break toward the larger ``b``.  Returns ``(b_star, diagnostics)``.

    The sample's row of ones (``km._count_rows``) gives every original
    estimate and decides each point once: live, or skipped with a reason.
    Each chunk of replicates fills the live columns of one (replicates x
    grid) NaN matrix with one ``_cure_rate_rows`` call; a live point whose
    column is all NaN is skipped too.  Replicate ``r`` is the resample drawn
    from ``stream(seed, r)``, held as its row of cell counts
    (``km._count_chunks``); rows are evaluated at most
    ``km.COUNT_CHUNK_ELEMENTS // n`` at a time (81 at n = 200), so memory
    stays at a few (rows x n) arrays.  Every estimate, the original and each
    replicate's, is bit-identical to ``eta_extrapolated`` on ``km_fit`` of
    its sample, a skipped point has the reason that call gives, and a
    replicate is missing exactly where that call raises or the resample has
    no events.  The errors are those of that scalar path too.
    """
    if len(grid) == 0:
        raise ValueError("grid must be non-empty")
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    grid = sorted(float(b) for b in grid)
    ones = _count_rows(sample)  # km_fit's errors, so t_k > 0 below
    if not ones.has_events[0]:
        raise NoEventsError("no events: the adjusted risk table is undefined")
    for b in grid:
        _check_b(b)
    t_k = float(ones.last_event_time[0])
    factors = np.array(grid)
    ratio, raw, flat, unit = (column[0] for column in _extrapolate(
        ones.surv[0, -1], ones.at(factors[None] * t_k),
        ones.at((factors * factors)[None] * t_k)))

    reasons = []  # None for a live point
    for j, b in enumerate(grid):
        reason = _window_fault(flat[j], unit[j], b, t_k)
        # The correction extrapolates a geometric decay of tail-window mass,
        # which only exists when the window ratio exceeds 1; and a saturated
        # estimate matches its own bootstrap average trivially while making
        # the mixture degenerate downstream.  Skip both regimes.
        if reason is None and ratio[j] <= 1.0:
            reason = "window ratio at or below 1: tail mass is not decaying"
        if reason is None and not 0.0 < raw[j] < 1.0:
            reason = "corrected cure rate saturates outside (0, 1)"
        reasons.append(reason)
    live = np.array([reason is None for reason in reasons])
    if not live.any():
        raise SelectionFailedError("every grid point is degenerate on this sample")

    boot_values = np.full((replicates, len(grid)), np.nan)
    for start, (cells,) in _count_chunks((ones.summary,), seed, replicates):
        boot_values[start:start + cells.shape[0], live] = _cure_rate_rows(
            _km_rows(ones.summary, cells), factors[live])

    diagnostics, best = [], None
    for b, reason, column, value in zip(grid, reasons, boot_values.T, raw):
        defined = column[~np.isnan(column)]
        # For 0 < raw < 1 the clamp returns raw unchanged.
        original = np.nan if reason else float(value)
        if reason is None and defined.size == 0:
            reason = "estimate undefined on every resample"
        if reason:
            diagnostics.append(BGridPoint(b, original, np.nan, np.nan, replicates, True, reason))
            continue
        boot_mean = float(defined.mean())
        criterion = abs(original - boot_mean)
        diagnostics.append(BGridPoint(b, original, boot_mean, criterion,
                                      replicates - defined.size, False))
        if best is None or criterion <= best[0]:
            best = (criterion, b)
    if best is None:
        raise SelectionFailedError("no grid point has a defined bootstrap mean")
    return best[1], diagnostics


def resolve_cure_rate(sample, method, b="auto", *, grid=DEFAULT_B_GRID, replicates=500,
                      seed=0):
    """The cure-rate estimate of a sample under ``method``: the paper's rule.

    ``"tail"`` gives the KM tail value.  ``"extrapolate"`` gives the
    extrapolated value at scale factor ``b``, or with ``b="auto"`` at the one
    ``select_b(sample, grid, replicates, seed)`` picks; it falls back to the
    tail value when no b can be selected, the window degenerates or the
    corrected cure rate reaches 1.  Returns ``(estimate, fallback)``, where
    ``fallback`` is None or the note saying why the tail value was used, and
    ``estimate.b`` is None exactly when the estimate is the tail value.
    """
    if method not in ("tail", "extrapolate"):
        raise ValueError(f"method must be 'tail' or 'extrapolate', got {method!r}")
    curve = km_fit(sample, "event")
    tail = eta_tail(curve)
    if method == "tail":
        return tail, None
    try:
        if b == "auto":
            b, _ = select_b(sample, grid=grid, replicates=replicates, seed=seed)
        estimate = _cure_rate(curve, b)
    except (DegenerateWindowError, SelectionFailedError) as exc:
        return tail, f"extrapolation fell back to the tail estimate: {exc}"
    if estimate.value >= 1.0:
        return tail, ("extrapolation fell back to the tail estimate: "
                      "corrected cure rate reached 1")
    return estimate, None
