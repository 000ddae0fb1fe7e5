"""Two-sample tau processes and their population-truth quadrature oracle.

The tau process accumulates, over pairs made of one subject per arm, the sign
of the comparison of their event times, weighted by inverse censoring
probabilities.  The susceptible variant additionally down-weights censored
subjects by the estimated probability that they are susceptible and rescales
by the susceptible fractions, so it targets the latency distributions alone.

Both processes are one count-row kernel, ``_tau_rows``.  Each arm is held as
rows of its event and censoring counts at its distinct times: a bootstrap
replicate is one row, and the sample itself is the row of ones (the
multinomial view of the bootstrap; Efron & Tibshirani 1993, ch. 6).  A row's
pair masses come from those counts alone and go into the grid with one
``np.bincount`` per arm.  ``tau_curve`` and ``tau_a_curve`` evaluate the row
of ones; the bootstrap (``inference._two_arm_statistic``) the drawn rows,
with the row of ones as row 0 of its first chunk.  A row draws its
subjects from the sample, so its curves are computed where the sample has
jumps alone (``km._km_rows``): the event curve and the events' divisors at
the event times, and the censoring curve, latency and censoring weights at
the censoring times, each read through columns fixed once per pair of
samples.  Each chunk takes an arm's event and censored counts once
(``_KMRows.jumps`` and ``censored_counts``), reads the tail cure rate from
the event curve's last column, and computes its temporaries in place.

The population truth ``true_tau_quadrature`` is one bounded integral on arm
1's probability scale, which ``_quad`` takes by adaptive 21-point
Gauss-Kronrod bisection (QUADPACK's rule; Piessens et al. 1983) to an
absolute and relative tolerance of 1e-9.
"""

from dataclasses import dataclass

import numpy as np

from .cure import _cure_rate_rows
from .data import _csv_columns, _csv_text
from .errors import EstimationError, ToleranceError
from .km import _checked, _km_rows, _sort_sample, _suffix_sums
from .susceptible import _latency_rows


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


def _checked_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.isnan(grid).any() or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a 1-d strictly increasing array")
    return grid


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


def _arm_rows(summary, cells, eta, refit):
    """One arm's rows: their ``_KMRows`` and padded censoring curves; then,
    given the arm's cure-rate estimate ``eta`` (else None for both), each
    row's cure rate and its weighted counts ``d_j + c_j * f_j`` at each
    distinct time j, with ``f_j`` the censoring weight factor there.  The
    latency and the factor are computed at the censored columns alone, and
    the censored counts there are taken once, for the censoring curve and
    the weights."""
    km = _km_rows(summary, cells)
    censoring = km.censoring_curve()
    if eta is None:
        return km, censoring, None, None
    rates = _cure_rate_rows(km, eta.b) if refit else np.full(cells.shape[0], eta.value)
    rates, latency = _latency_rows(km, rates, eta.method == "extrapolated",
                                   summary.surv_at_censored)
    # Where no one is censored the factor may be 0/0: it weighs exactly 0.
    factor = censoring_weight_factor(latency, rates[:, None])
    censored = km.censored_counts
    # The cells with c * f in place of each censored count; every other
    # even cell of a resample is 0, so adding the even cells to the odd ones
    # adds d + c * f, in that order, at each time.
    weighted = cells.astype(float)
    weighted[:, summary.censored_cells] = np.where(censored > 0, censored * factor, 0.0)
    return km, censoring, rates, weighted[:, 1::2] + weighted[:, 0::2]


def _tau_rows(sample0, sample1, grid=None, etas=None, refit=False, overall=False):
    """The count-row kernel of both tau processes: returns ``(grid, evaluate)``.

    ``evaluate(cells0, cells1)`` takes each arm's (rows x 2K) cell counts
    (``km._count_chunks``) and gives each row's processes at ``grid``: the
    overall one alone without ``etas``, which needs no cure rate; with
    ``etas`` (a cure-rate estimate per arm) the susceptible one, preceded by
    the overall one when ``overall`` is set.  A row's cure rate is its arm's
    ``eta.value``, or with ``refit`` its own, estimated as ``eta`` was (the
    row is undefined where that is undefined or reaches 1).  Latencies are
    clamped into [0, 1] for an extrapolated cure rate.

    The default grid holds the distinct event times of either arm with an
    opposite-arm subject observed strictly later, where the processes move.
    The subjects at one distinct time enter as one term weighed by their
    count.  The arms are oriented once, from the original samples and
    ``etas``, so swapping them negates every row exactly, and
    interchangeable arms with equal rows give exactly 0.  Every column the
    kernel reads is fixed by the original samples and found once here.
    """
    if sample0.n == 0 or sample1.n == 0:
        raise ValueError("both samples must be non-empty")
    for target in ("event", "censoring"):
        for sample in (sample0, sample1):
            _checked(sample, (target,))
    if etas is not None and max(eta.value for eta in etas) >= 1.0:
        raise EstimationError("degenerate mixture: cure rate at or above 1")
    etas = (None, None) if etas is None else tuple(etas)
    orientation = _orientation(sample0, sample1, *etas)
    samples = (sample0, sample1) if orientation <= 0 else (sample1, sample0)
    etas = etas if orientation <= 0 else etas[::-1]
    summaries = [_sort_sample(sample) for sample in samples]
    # Fixed by the original data, per arm: the times of its events, and the
    # padded censoring-curve columns of its own and the other arm's left
    # limits there; the other arm's first column observed strictly later (K
    # past its last time, where the pair mass is 0); and its event times with
    # someone observed later in the other arm.
    places = []
    for own, other in (summaries, summaries[::-1]):
        times = own.distinct[own.event_columns]
        beyond = np.searchsorted(other.distinct, times, side="right")
        places.append((times, own.column(times, "censoring", "left"),
                       other.column(times, "censoring", "left"),
                       beyond, times[beyond < other.distinct.size]))
    if grid is None:
        grid = np.unique(np.concatenate([place[4] for place in places]))
    grid = _checked_grid(grid)
    buckets = [np.searchsorted(grid, place[0], side="left") for place in places]
    width = grid.size + 1

    def evaluate(cells0, cells1):
        cells = (cells0, cells1) if orientation <= 0 else (cells1, cells0)
        kms, censoring, rates, weighted = zip(*(
            _arm_rows(summary, arm, eta, refit)
            for summary, arm, eta in zip(summaries, cells, etas)))
        rows = cells0.shape[0]
        # Each event pairs with every opposite subject observed later, and is
        # divided by both censoring curves' left limits there (a product of
        # curves is >= 0, and 1 stands in for 0).  Per arm, for both
        # processes: the event counts, divisors and grid bins.
        at_jumps = []
        for own, (_, left, other_left, _, _) in enumerate(places):
            divisor = (censoring[own].take(left, axis=1)
                       * censoring[1 - own].take(other_left, axis=1))
            np.copyto(divisor, 1.0, where=divisor == 0)
            at_jumps.append((kms[own].jumps, divisor,
                             (np.arange(rows)[:, None] * width + buckets[own]).ravel()))

        def into_grid(own, later):
            # ``later(arm)`` is an arm's suffix sums, 0 past its last time:
            # int64 at-risk counts, whose products with the counts are exact,
            # or float weighted sums.
            counts, divisor, bins = at_jumps[own]
            masses = later(1 - own).take(places[own][3], axis=1)
            masses *= counts
            return np.bincount(bins, (masses / divisor).ravel(), rows * width).reshape(rows, width)

        pairs = sample0.n * sample1.n
        parts = []
        if overall or etas[0] is None:
            # The suffix sums of the subjects observed: the at-risk counts.
            parts.append((lambda arm: kms[arm].at_risk, pairs))
        if etas[0] is not None:
            parts.append((lambda arm: _suffix_sums(weighted[arm]),
                          (pairs * (1.0 - rates[0]) * (1.0 - rates[1]))[:, None]))
        # Each process in place, into its columns of one array.
        values = np.empty((rows, len(parts) * grid.size))
        for part, (later, scale) in enumerate(parts):
            moves = into_grid(0, later)
            moves -= into_grid(1, later)
            process = values[:, part * grid.size:(part + 1) * grid.size]
            np.cumsum(moves[:, :-1], axis=1, out=process)
            process /= scale
        return values if orientation <= 0 else np.negative(values, out=values)

    return grid, evaluate


def _row_of_ones(kind, sample0, sample1, grid, etas=None):
    """The process of the samples themselves: the kernel's row of ones."""
    grid, evaluate = _tau_rows(sample0, sample1, grid, etas)
    values = evaluate(*(_sort_sample(sample).ones() for sample in (sample0, sample1)))[0]
    return TauCurve(grid=grid, values=values, kind=kind)


def tau_curve(sample0, sample1, grid=None):
    """Overall tau process comparing arm 1 against arm 0.

    Positive values favor arm 1.  The default grid is the set of distinct
    orderable comparison times, where the process actually moves.
    """
    return _row_of_ones("overall", sample0, sample1, grid)


def tau_a_curve(sample0, sample1, eta0, eta1, grid=None):
    """Susceptible tau process given per-arm cure-rate estimates.

    Passing extrapolated cure-rate estimates yields the insufficient-
    follow-up variant of the process.
    """
    return _row_of_ones("susceptible", sample0, sample1, grid, (eta0, eta1))


# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (qk21): the Kronrod
# nodes in [0, 1) from the outermost in, with their weights, and the
# weights of the 10-point Gauss rule on every other one of them.
_KRONROD_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_KRONROD_HALF_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077482851159260, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GAUSS_HALF_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_KRONROD_NODES = np.concatenate((-_KRONROD_HALF[:-1], _KRONROD_HALF[::-1]))
_KRONROD_WEIGHTS = np.concatenate((_KRONROD_HALF_WEIGHTS[:-1], _KRONROD_HALF_WEIGHTS[::-1]))
_GAUSS_WEIGHTS = np.zeros(21)
_GAUSS_WEIGHTS[1::2] = np.concatenate((_GAUSS_HALF_WEIGHTS, _GAUSS_HALF_WEIGHTS[::-1]))

_QUAD_TOL = 1e-9
_QUAD_MAX_INTERVALS = 1000


def _quad(fn, upper):
    """The integral of ``fn`` over ``[0, upper]`` to within
    ``1e-9 * max(1, |value|)``, or ``ToleranceError``.

    The rule is QUADPACK's adaptive 21-point Gauss-Kronrod (Piessens et al.
    1983), with the gap to the embedded 10-point Gauss value as each
    interval's error.  ``fn`` must take an array of points.  Each sweep
    bisects, and calls ``fn`` once on the nodes of every new half: first the
    whole range, since one interval's gap can vanish by coincidence (on one
    Beta/Weibull truth it read 2.2e-10 against an error of 1.5e-9); then
    every interval whose error is above its share of the tolerance (its
    share of the length), and always the worst one.  The value is the total
    once the errors sum within tolerance.  A non-finite integrand, an
    interval too short to bisect, or more than ``_QUAD_MAX_INTERVALS``
    intervals raise ``ToleranceError``.
    """
    if upper <= 0:
        return 0.0
    lo, hi, split = np.array([0.0]), np.array([float(upper)]), np.array([True])
    values = errors = np.zeros(1)
    while True:
        left, right = lo[split], hi[split]
        middle = 0.5 * (left + right)
        new_lo, new_hi = np.concatenate((left, middle)), np.concatenate((middle, right))
        half = 0.5 * (new_hi - new_lo)
        nodes = fn((new_lo + half)[:, None] + half[:, None] * _KRONROD_NODES)
        if not np.all(np.isfinite(nodes)):
            raise ToleranceError("quadrature integrand is not finite at a node")
        kronrod = half * (nodes @ _KRONROD_WEIGHTS)
        lo, hi = np.concatenate((lo[~split], new_lo)), np.concatenate((hi[~split], new_hi))
        values = np.concatenate((values[~split], kronrod))
        errors = np.concatenate((errors[~split], np.abs(kronrod - half * (nodes @ _GAUSS_WEIGHTS))))
        total = float(values.sum())
        bound = _QUAD_TOL * max(1.0, abs(total))
        if errors.sum() <= bound:
            return total
        split = errors * upper > bound * (hi - lo)
        split[np.argmax(errors)] = True
        if lo.size + split.sum() > _QUAD_MAX_INTERVALS or np.any(
                (hi - lo)[split] <= 1e4 * np.finfo(float).eps * np.maximum(abs(lo), abs(hi))[split]):
            raise ToleranceError(
                f"quadrature error estimate {errors.sum():g} above the tolerance {bound:g}")


def true_tau_quadrature(dist0, dist1, eta0, eta1, t, kind="susceptible"):
    """Population tau value at time ``t``, from one bounded integral.

    Each arm's survival is ``S~ = (1-eta)*S + eta``; ``kind="susceptible"``
    sets ``eta0 = eta1 = 0``.  A pair's first event comes by ``t`` and is
    arm 0's (``A``) or arm 1's (``B``) with total probability
    ``1 - S~0(t)*S~1(t)``, so tau(t) = A - B = ``1 - S~0(t)*S~1(t) - 2B``.
    On arm 1's probability scale ``B`` is ``(1-eta1)`` times the integral
    of ``S~0(ppf1(p))`` over ``[0, F1(t)]``, an integrand in [0, 1] whatever
    the densities do at their ends.  It is ``eta0`` past arm 0's support
    end, so ``_quad`` stops at ``cut = F1(min(t, end0))`` (within
    ``1e-9 * max(1, |value|)``, else ``ToleranceError``; the truth within
    twice that) and ``eta0*(F1(t) - cut)`` is added.  A latency needs
    ``sf``, ``cdf``, ``ppf`` and ``support_end``.
    """
    if kind not in ("overall", "susceptible"):
        raise ValueError(f"kind must be 'overall' or 'susceptible', got {kind!r}")
    if t <= 0:
        return 0.0
    if kind == "susceptible":
        eta0 = eta1 = 0.0
    cut = float(dist1.cdf(min(t, dist0.support_end)))
    arm1_first = (1.0 - eta1) * (
        _quad(lambda p: (1.0 - eta0) * dist0.sf(dist1.ppf(p)) + eta0, cut)
        + eta0 * (float(dist1.cdf(t)) - cut))
    survivors = ((1.0 - eta0) * dist0.sf(t) + eta0) * ((1.0 - eta1) * dist1.sf(t) + eta1)
    return float(1.0 - survivors - 2.0 * arm1_first)


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
    return _csv_text(("t", "value", "sd", "lo", "hi")[:len(columns)], columns)


def read_tau_csv(source, kind="overall"):
    """Parse rows written by :func:`write_tau_csv` back into a TauCurve."""
    grid, values, *bands = _csv_columns(source, ("t", "value"), ("sd", "lo", "hi"))
    curve = TauCurve(np.asarray(grid), np.asarray(values), kind)
    if bands:
        curve = curve.with_bands(*bands)
    return curve
