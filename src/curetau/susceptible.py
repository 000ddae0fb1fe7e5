"""Latency (susceptible) survival estimation and its self-consistency check.

The canonical estimator is the location-scale shift of the event-survival
curve, ``(S(t) - eta) / (1 - eta)``.  With the tail cure-rate estimate this
coincides with two other representations built from the adjusted risk table:
an IPCW average and a product-limit form.  The module computes all three,
records their disagreement, and can verify that the product-limit form solves
the mass-redistribution self-consistency equation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .km import _count_rows, _sort_sample, km_fit, risk_table
from .stepfun import StepFunction


@dataclass(frozen=True)
class SusceptibleCurve:
    """Latency survival curve plus bookkeeping about how it was obtained."""

    curve: StepFunction
    eta_used: "CureRateEstimate"  # noqa: F821 - type lives in cure.py
    form_divergence: float
    clamped: bool


def location_scale_curve(event_curve, eta_value, clamp=False):
    """Shift-and-rescale the event-survival curve by a cure-rate value."""
    if eta_value >= 1.0:
        raise EstimationError("degenerate mixture: cure rate at or above 1")
    values = (event_curve.y - eta_value) / (1.0 - eta_value)
    clamped = False
    if clamp:
        clipped = np.clip(values, 0.0, 1.0)
        clamped = bool(np.any(clipped != values))
        values = clipped
    return StepFunction(event_curve.x, values, initial_value=1.0), clamped


def _latency_rows(km, eta, clamp, columns):
    """``location_scale_curve`` of each row of a ``_KMRows`` by that row's
    cure rate in ``eta``, at the columns ``columns`` of its padded event
    curve (``_SortedSample.column``).

    Returns the cure rates, NaN where at or above 1, and the curves, clamped
    into [0, 1] with ``clamp``.
    """
    eta = np.where(eta >= 1.0, np.nan, eta)
    latency = km.surv.take(columns, axis=1)
    latency -= eta[:, None]
    latency /= 1.0 - eta[:, None]
    return eta, np.clip(latency, 0.0, 1.0, out=latency) if clamp else latency


def ipcw_latency_curve(table):
    """IPCW form: the adjusted at-risk tail over the susceptible sample size."""
    values = np.concatenate((table.y_tilde[1:], [0.0])) / table.n_a_hat
    return StepFunction(table.times, values, initial_value=1.0)


def product_limit_latency_curve(table):
    """Product-limit form over the adjusted event and at-risk counts."""
    factors = 1.0 - table.d_tilde / table.y_tilde
    return StepFunction(table.times, np.cumprod(factors), initial_value=1.0)


def susceptible_curve(sample, eta):
    """Latency survival estimate for a sample, given a cure-rate estimate.

    The canonical output is the location-scale form.  When ``eta`` is the
    tail estimate the IPCW and product-limit forms are also computed and the
    largest pointwise disagreement, which is rounding error, is recorded.
    When ``eta`` is extrapolated the curve is clamped into [0, 1] and
    flagged if clamping changed it.
    """
    if sample.n_events == 0:
        raise EstimationError("no events: latency survival is undefined")
    if eta.value >= 1.0:
        raise EstimationError("degenerate mixture: cure rate at or above 1")
    event_curve = km_fit(sample, "event")
    extrapolated = eta.method == "extrapolated"
    curve, clamped = location_scale_curve(event_curve, eta.value, clamp=extrapolated)
    divergence = math.nan
    if eta.method == "tail":
        table = risk_table(sample)
        ipcw = ipcw_latency_curve(table)
        prodlim = product_limit_latency_curve(table)
        divergence = max(
            float(np.max(np.abs(curve.y - ipcw.y))),
            float(np.max(np.abs(curve.y - prodlim.y))),
        )
    return SusceptibleCurve(
        curve=curve, eta_used=eta, form_divergence=divergence, clamped=clamped
    )


def _sample_rows(sample):
    """The sample's count rows and its censoring curve at each distinct
    time, for the phi and H1a estimators; raises on an empty sample or an
    observation at time 0."""
    rows = _count_rows(sample, ("event", "censoring"))
    return rows, rows.censoring_curve()[0, rows.summary.column(rows.distinct, "censoring")]


def _phi_curve(rows, censoring, n, eta):
    g_left = np.concatenate(([1.0], censoring[:-1]))
    values = 1.0 - eta.value * g_left / (rows.at_risk[0, :-1] / n)
    return StepFunction(rows.distinct, values, initial_value=1.0 - eta.value,
                        domain_end=float(rows.distinct[-1]))


def _h1a_curve(rows, censoring, n, eta):
    values = rows.at_risk[0, 1:] / n - eta.value * censoring
    return StepFunction(rows.distinct, values, initial_value=1.0 - eta.value)


def phi_hat(sample, eta):
    """Susceptible proportion of the risk set at each distinct observed time.

    ``phi(t) = 1 - eta * G(t-) / (Y(t)/n)`` with ``G`` the censoring survival
    curve and ``Y(t)`` the number at risk.  The returned step function takes
    the value ``phi(x_k)`` on ``[x_k, x_{k+1})`` and raises past the largest
    observation, where the risk set is empty.
    """
    return _phi_curve(*_sample_rows(sample), sample.n, eta)


def h1a_hat(sample, eta):
    """Sub-survival estimate of being susceptible and still at risk after t.

    ``H1a(t) = Y(t+)/n - eta * G(t)``, a right-continuous step function over
    the distinct observed times.
    """
    return _h1a_curve(*_sample_rows(sample), sample.n, eta)


@dataclass(frozen=True)
class SelfConsistencyReport:
    """Residuals of the mass-redistribution equation at the observed times."""

    times: np.ndarray
    residuals: np.ndarray
    max_residual: float
    phi_curve: StepFunction
    h1a_curve: StepFunction


def _phi_after(rows, censoring, n, eta, at):
    """phi just after the distinct times of indices ``at``, from the sample's
    count rows and censoring curve.

    Past the largest observation both the numerator and the empty risk set
    vanish (the censorings there come after its events, so G is 0 after
    them); that 0/0 is resolved to phi = 1, and the corresponding term in
    the self-consistency sum is annihilated by the candidate being 0 there.
    """
    beyond = rows.at_risk[0, 1:][at]  # still at risk just after each time
    numerator = eta.value * censoring[at]
    out = np.ones_like(numerator)
    live = beyond > 0
    out[live] = 1.0 - numerator[live] * n / beyond[live]
    return out


def self_consistency_residual(candidate, sample, eta):
    """Residual of the self-consistency equation for a candidate latency curve.

    At each distinct observed time ``t`` the residual is::

        n*(1-eta)*candidate(t)
          - sum over censored X_i <= t of phi(X_i+) * candidate(t)/candidate(X_i)
          - n * H1a(t)

    Terms where both ``candidate(t)`` and ``candidate(X_i)`` vanish contribute
    zero; a zero denominator with a nonzero numerator raises.  The sum is
    ``candidate(t)`` times a prefix sum of ``phi(X_i+)/candidate(X_i)`` over
    the censored times in increasing order, so time and memory are
    O(n log n).  The candidate is evaluated once, at the distinct observed
    times.
    """
    rows, censoring = _sample_rows(sample)
    n = sample.n
    phi_curve = _phi_curve(rows, censoring, n, eta)
    h1a_curve = _h1a_curve(rows, censoring, n, eta)
    times = phi_curve.x
    cand_t = np.asarray(candidate(times), dtype=float)

    censored = sample.status == 0
    censored_times = sample.times[censored]
    redistributed = np.zeros_like(times)
    if censored_times.size:
        at = _sort_sample(sample).cell[censored] // 2  # each one's index in ``times``
        phi_plus = _phi_after(rows, censoring, n, eta, at)
        cand_c = cand_t[at]
        # A censored X_i with candidate(X_i) = 0 enters the sum at every
        # t >= X_i; that is 0/0 unless candidate(t) = 0 there as well.
        positive_times = times[cand_t > 0.0]
        zero = np.flatnonzero(cand_c == 0.0)
        reach = np.searchsorted(positive_times, censored_times[zero], side="left")
        bad = reach < positive_times.size
        if np.any(bad):
            where = positive_times[reach[bad][0]]
            raise EstimationError(f"0/0 outside the stated convention at time {float(where)}")
        order = np.argsort(at, kind="stable")
        terms = phi_plus / np.where(cand_c > 0.0, cand_c, 1.0)
        prefix = np.concatenate(([0.0], np.cumsum(terms[order])))
        included = np.cumsum(np.bincount(at, minlength=times.size))  # censored <= t
        redistributed = np.where(cand_t > 0.0, cand_t * prefix[included], 0.0)

    # ``times`` are H1a's own jump points, so its values are read directly.
    residuals = n * (1.0 - eta.value) * cand_t - redistributed - n * h1a_curve.y
    return SelfConsistencyReport(
        times=times,
        residuals=residuals,
        max_residual=float(np.max(np.abs(residuals))) if times.size else 0.0,
        phi_curve=phi_curve,
        h1a_curve=h1a_curve,
    )
