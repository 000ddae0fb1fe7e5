"""Bootstrap engine, normal-approximation intervals, and the cure-rate test.

Resampling is nonparametric and within-arm, so two-sample statistics condition
on the arm sizes.  Intervals are normal approximations built from the
bootstrap standard deviation, which matches the convention that makes the
reported confidence interval symmetric about the point estimate and its
p-value the two-sided normal tail.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import special

from .cure import _cure_rate, _cure_rate_rows
from .errors import EstimationError, UnstableStatisticError
from .km import _count_chunks, _km_rows, _sort_sample, km_fit
from .seeding import seed_tuple, stream
from .tau import tau_a_curve, tau_curve


def z_quantile(p):
    """Standard-normal quantile (inverse CDF)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return float(special.ndtri(p))


def normal_interval(point, sd, level=0.95):
    """Symmetric normal interval ``point +- z * sd`` at the given level."""
    if sd < 0:
        raise ValueError("sd must be non-negative")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    half = z_quantile((1.0 + level) / 2.0) * sd
    return (point - half, point + half)


def two_sided_p(point, sd):
    """Two-sided normal tail probability of ``point / sd``."""
    if sd < 0:
        raise ValueError("sd must be non-negative")
    if sd == 0:
        return 1.0 if point == 0 else 0.0
    return float(special.erfc(abs(point) / sd / math.sqrt(2.0)))


@dataclass(frozen=True)
class BootstrapResult:
    """Replicate values (missing ones as NaN rows), point estimate, and SD."""

    replicate_values: np.ndarray
    point: np.ndarray | float
    sd: np.ndarray | float
    seed: tuple
    R: int
    n_missing: int

    @property
    def n_defined(self):
        return self.R - self.n_missing


@dataclass(frozen=True)
class CountStatistic:
    """A statistic evaluated on many bootstrap replicates at once.

    ``evaluate`` receives one count array per sample, each (rows x n) with
    ``counts[r, i]`` the number of times replicate ``r`` draws subject ``i``
    of that sample, and returns the statistic for every row: shape (rows,)
    for a scalar statistic or (rows, width).  A row holding a non-finite
    value is a replicate on which the statistic is undefined.  A row of ones
    is the original sample.
    """

    evaluate: Callable


def _one_arm_statistic(sample, grid, b=None):
    """Count statistic of one sample: ``[S(grid), S_a(grid), eta]``.

    ``eta`` is the tail cure rate, or with ``b`` the extrapolated one, and
    ``S_a`` is ``location_scale_curve`` of each replicate's event curve ``S``:
    clamped into [0, 1] only for the extrapolated cure rate, and undefined
    when the cure rate reaches 1.  Both curves are 1.0 before the
    replicate's first event.
    """
    summary = _sort_sample(sample.times, sample.status)
    at_grid = np.searchsorted(summary.distinct, grid, side="right") - 1

    def evaluate(counts):
        km = _km_rows(summary, counts)
        eta = _cure_rate_rows(km, b)
        eta[eta >= 1.0] = np.nan
        before = at_grid < km.first_event[:, None]
        survival = np.where(before, 1.0, km.surv[:, np.maximum(at_grid, 0)])
        column = eta[:, None]
        latency = (survival - column) / (1.0 - column)
        if b is not None:
            latency = np.clip(latency, 0.0, 1.0)
        latency = np.where(before, 1.0, latency)
        return np.column_stack((survival, latency, eta))

    return CountStatistic(evaluate)


def _tau_statistic(grid, b0=None, b1=None, overall=False):
    """Statistic of two samples: the susceptible tau process at ``grid``,
    preceded by the overall one when ``overall`` is set.

    Each arm's cure rate is its tail value, or with that arm's ``b`` its
    extrapolated value.
    """

    def statistic(sample0, sample1):
        tau_a = tau_a_curve(sample0, sample1, _cure_rate(km_fit(sample0, "event"), b0),
                            _cure_rate(km_fit(sample1, "event"), b1), grid=grid).values
        if not overall:
            return tau_a
        return np.concatenate((tau_curve(sample0, sample1, grid=grid).values, tau_a))

    return statistic


def _resample(samples, rng):
    out = []
    for sample in samples:
        idx = rng.integers(0, sample.n, size=sample.n)
        out.append(sample.resampled(idx))
    return tuple(out)


def _looped_replicates(samples, statistic, R, seed):
    point = np.asarray(statistic(*samples), dtype=float)
    values = np.full((R, point.size), np.nan)
    for r in range(R):
        rng = stream(seed, r)
        try:
            replicate = statistic(*_resample(samples, rng))
        except EstimationError:
            continue
        values[r, :] = np.asarray(replicate, dtype=float)
    return point, values


def _counted_replicates(samples, statistic, R, seed):
    ones = [np.ones((1, sample.n), np.int64) for sample in samples]
    point = np.asarray(statistic.evaluate(*ones), dtype=float)[0]
    if not np.all(np.isfinite(point)):
        raise EstimationError("statistic undefined on the original sample")
    values = np.empty((R, point.size))
    for start, counts in _count_chunks([sample.n for sample in samples], seed, R):
        block = np.asarray(statistic.evaluate(*counts), dtype=float)
        values[start:start + block.shape[0]] = block.reshape(block.shape[0], -1)
    return point, values


def bootstrap_stats(samples, statistic, R, seed=0):
    """Bootstrap a statistic of one or two samples.

    ``samples`` is a Sample or a pair of Samples; each arm is resampled with
    replacement independently.  ``statistic`` receives the (re)samples as
    positional arguments and may return a float or a 1-d array.  A replicate
    on which it raises ``EstimationError`` or returns any non-finite value is
    missing: its row of ``replicate_values`` is NaN, it counts in
    ``n_missing``, and it is excluded from the standard deviation; more than
    50% missing raises ``UnstableStatisticError``.  Replicate ``r`` draws from
    the RNG stream ``(seed..., r)``, so results are independent of
    evaluation order.

    ``statistic`` may instead be a ``CountStatistic``.  Replicate ``r`` is
    then the row of subject counts of that same resample (the multinomial
    view of the bootstrap; Efron & Tibshirani 1993, ch. 6 and 10), and rows
    are evaluated ``km.COUNT_CHUNK_ELEMENTS // max(n)`` at a time, so memory
    stays at a few (rows x n) arrays.  A statistic that computes what its
    callable form computes on each resample gives the same result, bit for
    bit.  An undefined point estimate raises ``EstimationError``.
    """
    if R < 2:
        raise ValueError("R must be at least 2")
    if not isinstance(samples, (tuple, list)):
        samples = (samples,)
    samples = tuple(samples)
    seed = seed_tuple(seed)

    replicates = (_counted_replicates if isinstance(statistic, CountStatistic)
                  else _looped_replicates)
    point, values = replicates(samples, statistic, R, seed)
    missing = ~np.isfinite(values).all(axis=1)
    values[missing] = np.nan
    n_missing = int(missing.sum())
    if n_missing > R / 2 or R - n_missing < 2:
        raise UnstableStatisticError(
            f"statistic undefined on {n_missing} of {R} bootstrap replicates"
        )
    sd = np.std(values[~missing], axis=0, ddof=1)
    if point.ndim == 0:
        return BootstrapResult(values[:, 0], float(point), float(sd[0]),
                               seed, R, n_missing)
    return BootstrapResult(values, point, sd, seed, R, n_missing)


@dataclass(frozen=True)
class TestResult:
    """Difference in cure rates with its normal CI and two-sided p-value."""

    difference: float
    ci: tuple
    p_value: float
    method: str
    sd: float
    level: float
    R: int
    n_missing: int


def cure_difference_test(sample0, sample1, method="tail", b0=None, b1=None,
                         R=2000, seed=0, level=0.95):
    """Test the cure-rate difference (arm 1 minus arm 0) via the bootstrap.

    ``method="extrapolated"`` uses the tail-corrected estimates with the
    given per-arm scale factors ``b0`` and ``b1``.  Replicates are evaluated
    as count weights over each arm's subjects, a chunk of rows at a time
    (see ``bootstrap_stats``); each replicate's difference is bit-identical
    to ``eta_tail``/``eta_extrapolated`` on its resampled arms, and a
    replicate is missing exactly where those raise.
    """
    if method == "tail":
        b0 = b1 = None
    elif method == "extrapolated":
        if b0 is None or b1 is None:
            raise ValueError("extrapolated method requires b0 and b1")
    else:
        raise ValueError(f"method must be 'tail' or 'extrapolated', got {method!r}")
    arm0 = _sort_sample(sample0.times, sample0.status)
    arm1 = _sort_sample(sample1.times, sample1.status)

    def difference(counts0, counts1):
        return (_cure_rate_rows(_km_rows(arm1, counts1), b1)
                - _cure_rate_rows(_km_rows(arm0, counts0), b0))

    statistic = CountStatistic(difference)
    boot = bootstrap_stats((sample0, sample1), statistic, R=R, seed=seed)
    ci = normal_interval(boot.point, boot.sd, level)
    return TestResult(
        difference=boot.point,
        ci=ci,
        p_value=two_sided_p(boot.point, boot.sd),
        method=method,
        sd=boot.sd,
        level=level,
        R=R,
        n_missing=boot.n_missing,
    )
