"""Two-sample tau processes and their population-truth quadrature oracle.

The tau process accumulates, over pairs made of one subject per arm, the sign
of the comparison of their event times, weighted by inverse censoring
probabilities.  The susceptible variant additionally down-weights censored
subjects by the estimated probability that they are susceptible and rescales
by the susceptible fractions, so it targets the latency distributions alone.

The bootstrap evaluates both processes on many replicates at once through
the count-row kernel ``inference._two_arm_statistic``: the same pair masses,
computed from each arm's subject counts over the original sample's distinct
times and summed into the grid with one ``np.bincount`` per arm.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .data import _csv_columns, _csv_text
from .errors import EstimationError, ToleranceError
from .km import km_fit
from .susceptible import location_scale_curve


@dataclass(frozen=True)
class TauCurve:
    """A tau process evaluated on a time grid, with optional bootstrap bands."""

    grid: np.ndarray
    values: np.ndarray
    kind: str  # "overall" or "susceptible"
    sd: np.ndarray | None = None
    ci_low: np.ndarray | None = None
    ci_high: np.ndarray | None = None

    def __call__(self, t):
        """Step evaluation; the process is 0 before the first grid time."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.grid, np.atleast_1d(t), side="right") - 1
        out = np.where(idx < 0, 0.0, self.values[np.maximum(idx, 0)])
        return float(out[0]) if t.ndim == 0 else out

    def with_bands(self, sd, ci_low, ci_high):
        return TauCurve(self.grid, self.values, self.kind,
                        np.asarray(sd, float), np.asarray(ci_low, float),
                        np.asarray(ci_high, float))

    def negated(self):
        lo = None if self.ci_high is None else -self.ci_high
        hi = None if self.ci_low is None else -self.ci_low
        return TauCurve(self.grid, -self.values, self.kind, self.sd, lo, hi)


def censoring_weight_factor(latency_survival_at_x, eta_value):
    """Down-weight for a censored subject observed at x.

    The factor is the conditional probability that the subject is susceptible
    and still event-free, ``(1-eta)*Sa(x) / ((1-eta)*Sa(x) + eta)``.  Returns
    ``nan`` for the undefined 0/0 case (``Sa(x) = 0`` with ``eta = 0``).
    """
    num = (1.0 - eta_value) * np.asarray(latency_survival_at_x, dtype=float)
    den = num + eta_value
    out = np.divide(num, den, out=np.full_like(num, np.nan), where=den > 0)
    return out


def _subject_weights(sample, eta):
    """Per-subject weight factor: 1 for events, the censoring factor otherwise."""
    event_curve = km_fit(sample, "event")
    latency, _ = location_scale_curve(
        event_curve, eta.value, clamp=eta.method == "extrapolated"
    )
    # Finite: a censored subject is at risk at its own time x, so S(x) > 0
    # and the factor's denominator never vanishes.
    weights = np.ones(sample.n)
    censored = sample.status == 0
    if censored.any():
        sa = latency(sample.times[censored])
        weights[censored] = censoring_weight_factor(sa, eta.value)
    return weights


def _event_masses(events_arm, opposite_arm, g_own, g_other, w_event, w_opposite):
    """Signed mass placed at each of one arm's event times.

    An event at time x pairs with every opposite-arm subject observed
    strictly later, so its mass is ``w_event * (suffix weight sum beyond x)``
    divided by both censoring-survival left limits at x.
    """
    event_mask = events_arm.status == 1
    x_event = events_arm.times[event_mask]
    order = np.argsort(opposite_arm.times, kind="stable")
    opp_sorted = opposite_arm.times[order]
    suffix = np.concatenate((np.cumsum(w_opposite[order][::-1])[::-1], [0.0]))
    pos = np.searchsorted(opp_sorted, x_event, side="right")
    opp_weight = suffix[pos]
    opp_count = opp_sorted.size - pos

    # Positive wherever x has pairs: G(x-) >= Y(x)/n in each arm, and both
    # the event subject and a later opposite subject are at risk at x.  The
    # guard below only keeps pairless events from dividing by zero.
    g_prod = g_own(x_event, side="left") * g_other(x_event, side="left")
    masses = np.where(opp_count > 0,
                      w_event[event_mask] * opp_weight
                      / np.where(g_prod > 0, g_prod, 1.0),
                      0.0)
    return x_event, masses, opp_count > 0


def _pair_masses(sample0, sample1, eta0=None, eta1=None):
    """All point masses of the pair sum: +1-signed at arm-0 event times
    (arm 1 outlives arm 0 there) and -1-signed at arm-1 event times."""
    if eta0 is None:
        w0 = np.ones(sample0.n)
        w1 = np.ones(sample1.n)
    else:
        w0 = _subject_weights(sample0, eta0)
        w1 = _subject_weights(sample1, eta1)
    g0 = km_fit(sample0, "censoring")
    g1 = km_fit(sample1, "censoring")
    x_up, mass_up, live_up = _event_masses(sample0, sample1, g0, g1, w0, w1)
    x_down, mass_down, live_down = _event_masses(sample1, sample0, g1, g0, w1, w0)
    times = np.concatenate((x_up, x_down))
    masses = np.concatenate((mass_up, -mass_down))
    has_pairs = np.concatenate((live_up, live_down))
    return times, masses, has_pairs


def _checked_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or (grid.size and np.any(np.diff(grid) <= 0)):
        raise ValueError("grid must be a 1-d strictly increasing array")
    return grid


def _accumulate(times, masses, has_pairs, grid, normalizer):
    grid = np.unique(times[has_pairs]) if grid is None else _checked_grid(grid)
    bucket = np.searchsorted(grid, times, side="left")
    sums = np.bincount(bucket, weights=masses, minlength=grid.size + 1)[: grid.size]
    return grid, np.cumsum(sums) / normalizer


def _orientation(sample0, sample1, eta0=None, eta1=None):
    """Sign of the comparison of the two arms' keys: sample, then cure rate.

    Swapping the arms negates both processes, so one orientation is computed
    and the other negates it, which makes the negation exact.  Equal keys
    make the arms interchangeable, and the processes are then exactly 0.
    """
    key0, key1 = ((sample.n, sample.times.tobytes(), sample.status.tobytes(),
                   None if eta is None else (eta.value, eta.method))
                  for sample, eta in ((sample0, eta0), (sample1, eta1)))
    return (key0 > key1) - (key0 < key1)


def tau_curve(sample0, sample1, grid=None):
    """Overall tau process comparing arm 1 against arm 0.

    Positive values favor arm 1.  The default grid is the set of distinct
    orderable comparison times, where the process actually moves.
    """
    if sample0.n == 0 or sample1.n == 0:
        raise ValueError("both samples must be non-empty")
    orientation = _orientation(sample0, sample1)
    if orientation > 0:
        return tau_curve(sample1, sample0, grid=grid).negated()
    times, masses, has_pairs = _pair_masses(sample0, sample1)
    grid, values = _accumulate(times, masses, has_pairs, grid,
                               sample0.n * sample1.n)
    if orientation == 0:
        values = np.zeros_like(values)
    return TauCurve(grid=grid, values=values, kind="overall")


def tau_a_curve(sample0, sample1, eta0, eta1, grid=None):
    """Susceptible tau process given per-arm cure-rate estimates.

    Passing extrapolated cure-rate estimates yields the insufficient-
    follow-up variant of the process.
    """
    if sample0.n == 0 or sample1.n == 0:
        raise ValueError("both samples must be non-empty")
    if eta0.value >= 1.0 or eta1.value >= 1.0:
        raise EstimationError("degenerate mixture: cure rate at or above 1")
    orientation = _orientation(sample0, sample1, eta0, eta1)
    if orientation > 0:
        return tau_a_curve(sample1, sample0, eta1, eta0, grid=grid).negated()
    times, masses, has_pairs = _pair_masses(sample0, sample1, eta0, eta1)
    normalizer = sample0.n * sample1.n * (1.0 - eta0.value) * (1.0 - eta1.value)
    grid, values = _accumulate(times, masses, has_pairs, grid, normalizer)
    if orientation == 0:
        values = np.zeros_like(values)
    return TauCurve(grid=grid, values=values, kind="susceptible")


_QUAD_TOL = 1e-9


def _quad(fn, upper):
    if upper <= 0:
        return 0.0
    out = integrate.quad(fn, 0.0, upper, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200,
                         full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 or abserr > 1e-7 * max(1.0, abs(value)):
        raise ToleranceError(f"quadrature error estimate {abserr:g} too large")
    return value


def true_tau_quadrature(dist0, dist1, eta0, eta1, t, kind="susceptible"):
    """Population tau value at time ``t`` by adaptive quadrature.

    ``kind="susceptible"`` integrates the latency distributions directly;
    ``kind="overall"`` integrates the cure mixtures, where each arm's
    survival is ``(1-eta)*Sa + eta`` and its event density carries the
    factor ``1-eta``.
    """
    if kind not in ("overall", "susceptible"):
        raise ValueError(f"kind must be 'overall' or 'susceptible', got {kind!r}")
    if t <= 0:
        return 0.0
    if kind == "susceptible":
        first = _quad(lambda u: dist1.sf(u) * dist0.pdf(u), min(t, dist0.support_end))
        second = _quad(lambda u: dist0.sf(u) * dist1.pdf(u), min(t, dist1.support_end))
        return first - second
    keep0 = 1.0 - eta0
    keep1 = 1.0 - eta1
    first = _quad(
        lambda u: (keep1 * dist1.sf(u) + eta1) * keep0 * dist0.pdf(u),
        min(t, dist0.support_end),
    )
    second = _quad(
        lambda u: (keep0 * dist0.sf(u) + eta0) * keep1 * dist1.pdf(u),
        min(t, dist1.support_end),
    )
    return first - second


def decomposition_residual(dist0, dist1, eta0, eta1, t):
    """Gap in the identity tying the overall and susceptible tau processes.

    The overall process equals the susceptible one scaled by both susceptible
    fractions, plus cross terms pairing each arm's susceptible failures with
    the other arm's cured subjects.
    """
    overall = true_tau_quadrature(dist0, dist1, eta0, eta1, t, kind="overall")
    susceptible = true_tau_quadrature(dist0, dist1, eta0, eta1, t, kind="susceptible")
    reconstructed = (
        (1.0 - eta0) * (1.0 - eta1) * susceptible
        + (1.0 - eta0) * eta1 * dist0.cdf(min(t, dist0.support_end))
        - (1.0 - eta1) * eta0 * dist1.cdf(min(t, dist1.support_end))
    )
    return abs(overall - reconstructed)


def write_tau_csv(curve):
    """Write ``t,value[,sd,lo,hi]`` rows for a tau curve."""
    columns = [curve.grid, curve.values]
    if curve.sd is not None:
        columns += [curve.sd, curve.ci_low, curve.ci_high]
    columns = [np.asarray(column, dtype=float).tolist() for column in columns]
    return _csv_text(("t", "value", "sd", "lo", "hi")[:len(columns)], zip(*columns))


def read_tau_csv(source, kind="overall"):
    """Parse rows written by :func:`write_tau_csv` back into a TauCurve."""
    header, columns = _csv_columns(
        source, (("t", "value"), ("t", "value", "sd", "lo", "hi")))
    curve = TauCurve(grid=np.asarray(columns[0]), values=np.asarray(columns[1]), kind=kind)
    if len(header) == 5:
        curve = curve.with_bands(columns[2], columns[3], columns[4])
    return curve
