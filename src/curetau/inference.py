"""Bootstrap engine, normal-approximation intervals, and the cure-rate test.

Resampling is nonparametric and within-arm, so two-sample statistics condition
on the arm sizes.  Intervals are normal approximations built from the
bootstrap standard deviation, which matches the convention that makes the
reported confidence interval symmetric about the point estimate and its
p-value the two-sided normal tail.  The normal quantile and tail are
``_normal``'s ports of the Cephes routines that ``scipy.special.ndtri`` and
``erfc`` compile, equal to them bit for bit, so this module imports nothing
from scipy.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._normal import erfc, ndtri
from .cure import _cure_rate, _cure_rate_rows
from .errors import EstimationError, UnstableStatisticError
from .km import COUNT_CHUNK_ELEMENTS, _checked, _count_chunks, _km_rows, _sort_sample, km_fit
from .seeding import seed_tuple, stream
from .susceptible import _latency_rows
from .tau import _tau_rows


def z_quantile(p):
    """Standard-normal quantile (inverse CDF)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return ndtri(p)


def _valid_level(level):
    """Whether the upper quantile ``(1 + level) / 2`` of a confidence level
    lies in (0, 1), as ``z_quantile`` needs: the level lies in (0, 1) and
    does not round that quantile to 1."""
    return 0.0 < level and (1.0 + level) / 2.0 < 1.0


def normal_interval(point, sd, level=0.95):
    """Symmetric normal interval ``point +- z * sd`` at the given level."""
    if sd < 0:
        raise ValueError("sd must be non-negative")
    if not _valid_level(level):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    half = z_quantile((1.0 + level) / 2.0) * sd
    return (point - half, point + half)


def two_sided_p(point, sd):
    """Two-sided normal tail probability of ``point / sd``."""
    if sd < 0:
        raise ValueError("sd must be non-negative")
    if sd == 0:
        return 1.0 if point == 0 else 0.0
    return erfc(abs(point) / sd / math.sqrt(2.0))


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

    ``evaluate`` receives one (rows x 2K) array of cell counts per sample, in
    the layout of that sample's ``km._SortedSample`` in ``summaries``:
    ``cells[r, 2 * j]`` and ``cells[r, 2 * j + 1]`` are the censorings and
    the events replicate ``r`` draws at distinct time j.  It returns the
    statistic for every row: shape (rows,) or (rows, width).  A row holding a
    non-finite value is a replicate on which the statistic is undefined.  The
    original sample is the row of ones, ``bincount(cell)``.  Every row is a
    resample, with counts only in the cells the original sample occupies
    (``km._km_rows`` relies on it).  The one-arm
    statistics and the cure-rate difference equal their callable forms on
    each resample bit for bit; the two-arm tau statistic matches
    ``tau_a_curve`` on each resample to within 1e-13, since it adds the c
    subjects drawn at one time as one term where the resample adds c.
    """

    evaluate: Callable
    summaries: tuple


def _one_arm_statistic(sample, grid, b=None):
    """Count statistic of one sample: ``[S(grid), S_a(grid), eta]``.

    ``eta`` is the tail cure rate, or with ``b`` the extrapolated one, and
    ``S_a`` is ``location_scale_curve`` of each replicate's event curve ``S``:
    clamped into [0, 1] only for the extrapolated cure rate, and undefined
    when the cure rate reaches 1.  Both curves are 1.0 before the
    replicate's first event: ``S`` reads its padded column 0, and ``S_a`` is
    ``(1 - eta) / (1 - eta)`` there.
    """
    summary = _checked(sample)
    columns = summary.column(grid)

    def evaluate(cells):
        km = _km_rows(summary, cells)
        eta, latency = _latency_rows(km, _cure_rate_rows(km, b), b is not None, columns)
        return np.column_stack((km.surv.take(columns, axis=1), latency, eta))

    return CountStatistic(evaluate, (summary,))


def _two_arm_statistic(sample0, sample1, grid, b0=None, b1=None, overall=False):
    """Count statistic of two samples: the susceptible tau process at ``grid``,
    preceded by the overall one when ``overall`` is set.

    It is the kernel of ``tau_a_curve`` (``tau._tau_rows``) with each row's
    cure rates re-estimated: each arm's tail value, or with that arm's ``b``
    its extrapolated value.  The row of ones is, bit for bit, ``tau_a_curve``
    (and ``tau_curve``) of the original samples at their own cure rates.
    """
    etas = [_cure_rate(km_fit(sample, "event"), b)
            for sample, b in ((sample0, b0), (sample1, b1))]
    return CountStatistic(_tau_rows(sample0, sample1, grid, etas, refit=True,
                                    overall=overall)[1],
                          (_sort_sample(sample0), _sort_sample(sample1)))


def _resample(samples, rng):
    out = []
    for sample in samples:
        idx = rng.integers(0, sample.n, size=sample.n)
        out.append(sample.resampled(idx))
    return tuple(out)


def _looped_replicates(samples, statistic, R, seed):
    point = np.asarray(statistic(*samples), dtype=float)
    if not np.all(np.isfinite(point)):
        raise EstimationError("statistic undefined on the original sample")
    values = np.full((R, point.size), np.nan)
    missing = np.empty(R, bool)
    for r in range(R):
        rng = stream(seed, r)
        try:
            values[r, :] = np.asarray(statistic(*_resample(samples, rng)), dtype=float)
        except EstimationError:
            pass
        missing[r] = not np.isfinite(values[r]).all()
    return point, values, missing


def _counted_replicates(statistic, R, seed):
    """The point estimate, replicate matrix and missing rows of a
    ``CountStatistic``, a chunk of count rows at a time.  The row of ones
    rides in the first chunk as its row 0, so the point costs no call of
    its own; each row is evaluated on its own counts alone, so the point is
    the one-row evaluation bit for bit, and a scalar statistic's point
    stays 0-d."""
    for start, cells in _count_chunks(statistic.summaries, seed, R):
        if start == 0:
            cells = [np.concatenate((summary.ones(), arm))
                     for summary, arm in zip(statistic.summaries, cells)]
        block = np.asarray(statistic.evaluate(*cells), dtype=float)
        if start == 0:
            point, block = block[0].copy(), block[1:]
            if not np.all(np.isfinite(point)):
                raise EstimationError("statistic undefined on the original sample")
            values, missing = np.empty((R, point.size)), np.empty(R, bool)
        rows = slice(start, start + block.shape[0])
        values[rows] = block.reshape(block.shape[0], -1)
        missing[rows] = ~np.isfinite(values[rows]).all(axis=1)
    return point, values, missing


def _column_sd(values, missing):
    """``np.std(values[~missing], axis=0, ddof=1)`` bit for bit, read in
    blocks of ``max(2, COUNT_CHUNK_ELEMENTS // R)`` columns: views of
    ``values`` when no row is missing, else copies of its defined rows.

    numpy sums a block of two or more columns row by row, as it sums the
    whole matrix, but a lone column pairwise; so a one-column remainder joins
    the block before it, and only a one-column matrix is read as one column.
    """
    R, width = values.shape
    rows = np.flatnonzero(~missing) if missing.any() else slice(None)
    edges = list(range(0, width, max(2, COUNT_CHUNK_ELEMENTS // R))) + [width]
    if len(edges) > 2 and width - edges[-2] == 1:
        del edges[-2]
    sd = np.empty(width)
    for low, high in zip(edges, edges[1:]):
        sd[low:high] = np.std(values[rows, low:high], axis=0, ddof=1)
    return sd


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
    evaluation order.  The SD is read from the (R x width) replicate matrix
    in place, a block of columns at a time, and equals ``np.std`` of its
    defined rows bit for bit; beyond that matrix, memory stays at a few
    chunk-sized arrays.

    ``statistic`` may instead be a ``CountStatistic`` built on ``samples``
    (``ValueError`` if their sizes differ).  Replicate ``r`` is then that
    same resample's row of event and censoring counts at each distinct
    time, drawn with the statistic's ``summaries`` (the multinomial view of
    the bootstrap; Efron & Tibshirani 1993, ch. 6 and 10), and rows are
    evaluated ``km.COUNT_CHUNK_ELEMENTS // max(n)`` at a time, so memory
    stays at a few (rows x n) arrays.  A statistic that computes what its
    callable form computes on each resample, in the same order, gives the
    same result bit for bit, as the one-arm statistics do; one that sums the
    c subjects at one time as one term, as the two-arm tau statistic does,
    agrees to within rounding (1e-13 in absolute value).  The point
    estimate is the row of ones, the original samples: for the two-arm tau
    statistic, ``tau_a_curve`` itself.  It is evaluated as row 0 of the
    first chunk, with no call of its own, and equals a one-row evaluation
    bit for bit.  An undefined point estimate raises ``EstimationError`` in
    both forms.
    """
    if R < 2:
        raise ValueError("R must be at least 2")
    if not isinstance(samples, (tuple, list)):
        samples = (samples,)
    samples = tuple(samples)
    seed = seed_tuple(seed)
    if isinstance(statistic, CountStatistic) and [sample.n for sample in samples] != [
            summary.cell.size for summary in statistic.summaries]:
        raise ValueError("a CountStatistic bootstraps the samples it was built on")
    point, values, missing = (_counted_replicates(statistic, R, seed) if isinstance(
        statistic, CountStatistic) else _looped_replicates(samples, statistic, R, seed))
    values[missing] = np.nan
    n_missing = int(missing.sum())
    if n_missing > R / 2 or R - n_missing < 2:
        raise UnstableStatisticError(
            f"statistic undefined on {n_missing} of {R} bootstrap replicates"
        )
    sd = _column_sd(values, missing)
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
    as rows of each arm's cell counts, a chunk of rows at a time
    (see ``bootstrap_stats``); each replicate's difference is bit-identical
    to ``eta_tail``/``eta_extrapolated`` on its resampled arms, and a
    replicate is missing exactly where those raise.  An empty arm or an
    event at time 0 on either arm raises ``km_fit``'s ``ValueError``; a
    censoring there is kept.
    """
    if method == "tail":
        b0 = b1 = None
    elif method == "extrapolated":
        if b0 is None or b1 is None:
            raise ValueError("extrapolated method requires b0 and b1")
    else:
        raise ValueError(f"method must be 'tail' or 'extrapolated', got {method!r}")
    arms = (_checked(sample0), _checked(sample1))

    def difference(cells0, cells1):
        return (_cure_rate_rows(_km_rows(arms[1], cells1), b1)
                - _cure_rate_rows(_km_rows(arms[0], cells0), b0))

    statistic = CountStatistic(difference, arms)
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
