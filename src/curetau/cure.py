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
from .km import _count_chunks, _km_rows, _sort_sample, km_fit

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
    if flat:
        raise DegenerateWindowError(
            f"flat tail window: curve equal at {b * t_k!r} and {t_k!r}"
        )
    if unit:
        raise DegenerateWindowError("window ratio equals one; correction undefined")
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
    degenerate window.
    """
    rows = np.arange(km.surv.shape[0])
    tail = km.surv[rows, km.last_event]
    if b is None:
        return np.where(km.has_events, tail, np.nan)
    _check_b(b)
    t_k = km.distinct[km.last_event]
    _, raw, flat, unit = _extrapolate(tail, km.at(b * t_k), km.at(b * b * t_k))
    return np.where(km.has_events & ~flat & ~unit, _clamp_unit(raw), np.nan)


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

    Replicate ``r`` is the resample drawn from ``stream(seed, r)``, held as
    one row of subject counts; rows are evaluated together, at most
    ``km.COUNT_CHUNK_ELEMENTS // n`` at a time (81 at n = 200), so memory
    stays at a few (rows x n) arrays.  Each replicate's estimate is
    bit-identical to ``eta_extrapolated`` on ``km_fit`` of the resample, and
    it is missing exactly where that raises or the resample has no events.
    """
    if len(grid) == 0:
        raise ValueError("grid must be non-empty")
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    grid = sorted(float(b) for b in grid)
    curve = km_fit(sample, "event")
    t_k = _last_event_time(curve)

    originals = {}
    reasons = {}
    for b in grid:
        try:
            estimate = eta_extrapolated(curve, b, t_k)
        except DegenerateWindowError as exc:
            reasons[b] = str(exc)
            continue
        # The correction extrapolates a geometric decay of tail-window mass,
        # which only exists when the window ratio exceeds 1; and a saturated
        # estimate matches its own bootstrap average trivially while making
        # the mixture degenerate downstream.  Skip both regimes.
        if estimate.b_gamma_check <= 1.0:
            reasons[b] = "window ratio at or below 1: tail mass is not decaying"
            continue
        if not 0.0 < estimate.raw_value < 1.0:
            reasons[b] = "corrected cure rate saturates outside (0, 1)"
            continue
        originals[b] = estimate.value
    live = [b for b in grid if b in originals]
    if not live:
        raise SelectionFailedError(
            "every grid point is degenerate on this sample; fall back to the tail estimate"
        )

    summary = _sort_sample(sample.times, sample.status)
    boot_values = np.empty((replicates, len(live)))
    for start, (counts,) in _count_chunks((sample.n,), seed, replicates):
        km = _km_rows(summary, counts)
        for j, b in enumerate(live):
            boot_values[start:start + counts.shape[0], j] = _cure_rate_rows(km, b)

    diagnostics = []
    best = None
    for b in grid:
        if b not in originals:
            diagnostics.append(
                BGridPoint(b, np.nan, np.nan, np.nan, replicates, True, reasons[b])
            )
            continue
        column = boot_values[:, live.index(b)]
        defined = column[~np.isnan(column)]
        n_missing = replicates - defined.size
        if defined.size == 0:
            diagnostics.append(
                BGridPoint(b, originals[b], np.nan, np.nan, n_missing, True,
                           "estimate undefined on every resample")
            )
            continue
        boot_mean = float(defined.mean())
        criterion = abs(originals[b] - boot_mean)
        diagnostics.append(
            BGridPoint(b, originals[b], boot_mean, criterion, n_missing, False)
        )
        if best is None or criterion <= best[0]:
            best = (criterion, b)
    if best is None:
        raise SelectionFailedError(
            "no grid point has a defined bootstrap mean; fall back to the tail estimate"
        )
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
