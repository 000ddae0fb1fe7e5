"""The looped pair-mass tau processes: an independent reference for the kernel.

``curetau.tau_curve`` and ``tau_a_curve`` are the count-row kernel evaluated
on one row of ones.  This module keeps the implementation they replaced: a
per-subject weight for every subject, each event's mass from the suffix sum
of the opposite arm's weights beyond it, and the masses summed into the grid
in subject order.  It shares with the kernel only the one-sample pieces,
``km_fit``, ``location_scale_curve`` and ``censoring_weight_factor``, each
tested on its own, so the tests compare two implementations of the pair sum,
not one with itself.  Both add the same terms in another order and agree to
within rounding.
"""

import numpy as np

import curetau as ct
from curetau.errors import EstimationError
from curetau.tau import censoring_weight_factor


def subject_weights(sample, eta):
    """Per-subject weight factor: 1 for events, the censoring factor otherwise."""
    event_curve = ct.km_fit(sample, "event")
    latency, _ = ct.location_scale_curve(
        event_curve, eta.value, clamp=eta.method == "extrapolated"
    )
    weights = np.ones(sample.n)
    censored = sample.status == 0
    if censored.any():
        sa = latency(sample.times[censored])
        weights[censored] = censoring_weight_factor(sa, eta.value)
    return weights


def event_masses(events_arm, opposite_arm, g_own, g_other, w_event, w_opposite):
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
    opp_count = opp_sorted.size - pos
    g_prod = g_own(x_event, side="left") * g_other(x_event, side="left")
    masses = np.where(opp_count > 0,
                      w_event[event_mask] * suffix[pos] / np.where(g_prod > 0, g_prod, 1.0),
                      0.0)
    return x_event, masses, opp_count > 0


def pair_masses(sample0, sample1, eta0=None, eta1=None):
    """All point masses of the pair sum: +1-signed at arm-0 event times
    (arm 1 outlives arm 0 there) and -1-signed at arm-1 event times."""
    if eta0 is None:
        w0, w1 = np.ones(sample0.n), np.ones(sample1.n)
    else:
        w0, w1 = subject_weights(sample0, eta0), subject_weights(sample1, eta1)
    g0 = ct.km_fit(sample0, "censoring")
    g1 = ct.km_fit(sample1, "censoring")
    x_up, mass_up, live_up = event_masses(sample0, sample1, g0, g1, w0, w1)
    x_down, mass_down, live_down = event_masses(sample1, sample0, g1, g0, w1, w0)
    return (np.concatenate((x_up, x_down)), np.concatenate((mass_up, -mass_down)),
            np.concatenate((live_up, live_down)))


def accumulate(times, masses, has_pairs, grid, normalizer):
    if grid is None:
        grid = np.unique(times[has_pairs])
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or np.isnan(grid).any() or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be a 1-d strictly increasing array")
    bucket = np.searchsorted(grid, times, side="left")
    sums = np.bincount(bucket, weights=masses, minlength=grid.size + 1)[: grid.size]
    return grid, np.cumsum(sums) / normalizer


def orientation(sample0, sample1, eta0=None, eta1=None):
    """Sign of the comparison of the arms' keys (sample, then cure rate):
    one orientation is computed and the other negates it."""
    key0, key1 = ((sample.n, sample.times.tobytes(), sample.status.tobytes(),
                   None if eta is None else (eta.value, eta.method))
                  for sample, eta in ((sample0, eta0), (sample1, eta1)))
    return (key0 > key1) - (key0 < key1)


def tau_curve(sample0, sample1, grid=None):
    """Looped overall tau process, arm 1 against arm 0."""
    if sample0.n == 0 or sample1.n == 0:
        raise ValueError("both samples must be non-empty")
    sign = orientation(sample0, sample1)
    if sign > 0:
        return tau_curve(sample1, sample0, grid=grid).negated()
    times, masses, has_pairs = pair_masses(sample0, sample1)
    grid, values = accumulate(times, masses, has_pairs, grid, sample0.n * sample1.n)
    if sign == 0:
        values = np.zeros_like(values)
    return ct.TauCurve(grid=grid, values=values, kind="overall")


def tau_a_curve(sample0, sample1, eta0, eta1, grid=None):
    """Looped susceptible tau process given per-arm cure-rate estimates."""
    if sample0.n == 0 or sample1.n == 0:
        raise ValueError("both samples must be non-empty")
    if eta0.value >= 1.0 or eta1.value >= 1.0:
        raise EstimationError("degenerate mixture: cure rate at or above 1")
    sign = orientation(sample0, sample1, eta0, eta1)
    if sign > 0:
        return tau_a_curve(sample1, sample0, eta1, eta0, grid=grid).negated()
    times, masses, has_pairs = pair_masses(sample0, sample1, eta0, eta1)
    normalizer = sample0.n * sample1.n * (1.0 - eta0.value) * (1.0 - eta1.value)
    grid, values = accumulate(times, masses, has_pairs, grid, normalizer)
    if sign == 0:
        values = np.zeros_like(values)
    return ct.TauCurve(grid=grid, values=values, kind="susceptible")
