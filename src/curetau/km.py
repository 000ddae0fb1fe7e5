"""Kaplan-Meier estimation and the censoring-adjusted risk table.

Both the event-time survival curve and the censoring-time survival curve are
product-limit estimates over their own jump times, the censorings at a tied
time coming after its events (see ``km_fit``).  The risk table carries, for
each distinct event time, the raw counts together with the
inverse-probability-of-censoring adjusted counts used by the latency
(susceptible-survival) estimators.

Every estimator reads a sample only through its event and censoring counts
at each distinct time, and ``_km_rows`` turns rows of those counts into each
row's at-risk counts and event curve.  A bootstrap replicate is one such row
(``_count_chunks`` draws them); the sample itself is the row of ones, the
counts of its own subjects.  A curve can only jump where the sample itself
has a jump of its kind, so each is kept at those columns alone.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoEventsError
from .seeding import _pcg64_states, _seated_pcg64, stream
from .stepfun import StepFunction

#: Element budget of one chunk of bootstrap count rows: each arm's
#: (rows x n) int64 count array holds about this many entries, so a chunk is
#: 81 replicates at n = 200 and 3 at n = 5 000.  It bounds the memory of the
#: count-weight kernels at a few such arrays whatever the number of replicates:
#: the (rows x 2K) cell counts and the K-wide at-risk counts, weighted counts
#: and their suffix sums, while each curve is (rows x |E| + 1) for the E
#: distinct times with events or (rows x |C| + 1) for the C with censorings.
COUNT_CHUNK_ELEMENTS = 2 ** 14


class _SortedSample(NamedTuple):
    """A sample's distinct times, and each subject's cell ``2 * j + status``
    with ``j`` the index of its time among them.  A row of counts over the
    2K cells holds the censorings (even cells) and the events (odd cells) at
    each distinct time.

    ``event_columns`` (E) and ``censored_columns`` (C) index the distinct
    times at which the sample has an event and a censoring (both at a tied
    time), and ``event_cells`` (2E + 1) and ``censored_cells`` (2C) their
    cells.  A resample of the sample draws its subjects, so its counts lie
    in these cells alone.  ``surv_at_censored`` is the column of a padded
    event curve at each censored column (``column`` at those times)."""

    distinct: np.ndarray
    cell: np.ndarray
    event_columns: np.ndarray
    censored_columns: np.ndarray
    event_cells: np.ndarray
    censored_cells: np.ndarray
    surv_at_censored: np.ndarray

    def ones(self):
        """The sample's own cell counts, as one row: its row of ones."""
        return np.bincount(self.cell, minlength=2 * self.distinct.size)[None]

    def column(self, t, target="event", side="right"):
        """The column of a padded ``target`` curve (``_KMRows.surv`` or
        ``_KMRows.censoring_curve()``) that holds its value at each time in
        ``t``, or with ``side="left"`` its value just before: the number of
        the curve's jump times at most (below) ``t``."""
        columns = self.event_columns if target == "event" else self.censored_columns
        return np.searchsorted(self.distinct[columns], t, side=side)


def _sort_sample(sample):
    """The sample's ``_SortedSample``: sorted on first use and then kept on
    the sample, whose arrays are read-only."""
    if "_sorted" not in vars(sample):
        distinct, index = np.unique(sample.times, return_inverse=True)
        cell = 2 * index + sample.status
        occupied = np.bincount(cell, minlength=2 * distinct.size) > 0
        censored, events = np.flatnonzero(occupied[0::2]), np.flatnonzero(occupied[1::2])
        sample._sorted = _SortedSample(distinct, cell, events, censored, 2 * events + 1,
                                       2 * censored, np.cumsum(occupied[1::2])[censored])
    return sample._sorted


def _checked(sample, targets=("event",)):
    """The sample's ``_SortedSample``, once it is checked for the curves in
    ``targets`` ("event", "censoring"): each starts at 1 at time 0, so
    ``ValueError`` on an empty sample, then on a jump at time 0 of each
    curve in turn."""
    if sample.n == 0:
        raise ValueError("sample is empty")
    summary = _sort_sample(sample)
    for target in targets:
        columns = summary.event_columns if target == "event" else summary.censored_columns
        if summary.distinct[0] == 0.0 and columns.size and columns[0] == 0:
            kind = "an event" if target == "event" else "a censoring"
            raise ValueError(f"{kind} at time 0: the {target} curve cannot jump at time 0")
    return summary


def _count_rows(sample, targets=("event",)):
    """The checked sample's own counts and event curve: ``_km_rows`` on its
    row of ones (a ``_KMRows`` of one row)."""
    summary = _checked(sample, targets)
    return _km_rows(summary, summary.ones())


def km_fit(sample, target="event"):
    """Product-limit survival curve for the event or the censoring distribution.

    At a tied time the censorings come after the events: the event curve
    divides by the full number at risk Y(t), and the censoring curve by
    Y(t) - d(t), those still at risk once the events at t are out.  So
    S(t-) G(t-) = Y(t) / n holds at every time.
    """
    if target not in ("event", "censoring"):
        raise ValueError(f"target must be 'event' or 'censoring', got {target!r}")
    rows = _count_rows(sample, (target,))
    if target == "event":
        columns, curve = rows.summary.event_columns, rows.surv
    else:
        columns, curve = rows.summary.censored_columns, rows.censoring_curve()
    return StepFunction(rows.distinct[columns], curve[0, 1:], initial_value=1.0)


def _suffix_sums(counts):
    """Each row's sums from each column to its last, then a column of 0:
    (rows x m + 1), added from the last column back (a reversed cumsum)."""
    sums = np.empty((counts.shape[0], counts.shape[1] + 1), counts.dtype)
    sums[:, -1] = 0
    np.cumsum(counts[:, ::-1], axis=1, out=sums[:, -2::-1])
    return sums


def _padded_curve(jumps, at_risk):
    """The product-limit curve of (rows x m) jump and at-risk counts, after a
    leading column of 1.0: (rows x m + 1).  Where nobody is at risk there
    are no jumps, so a divisor of 1 gives the exact factor 1.0.  ``at_risk``
    is a fresh take, which it overwrites; each factor is computed in place."""
    curve = np.empty((jumps.shape[0], jumps.shape[1] + 1))
    curve[:, 0] = 1.0
    factors = np.divide(jumps, np.maximum(at_risk, 1, out=at_risk))
    np.subtract(1.0, factors, out=factors)
    np.cumprod(factors, axis=1, out=curve[:, 1:])
    return curve


@dataclass(frozen=True)
class RiskTable:
    """Per distinct event time: counts, IPCW-adjusted counts, and their tails.

    ``d_tilde[k] = d[k] / g_left[k]`` with ``g_left`` the censoring-survival
    curve evaluated just before the event time, and ``y_tilde[k]`` is the
    tail sum of ``d_tilde`` from ``k`` on.  ``n_a_hat = y_tilde[0]`` estimates
    the number of susceptible subjects.
    """

    times: np.ndarray
    d: np.ndarray
    y: np.ndarray
    g_left: np.ndarray
    d_tilde: np.ndarray
    y_tilde: np.ndarray
    n_a_hat: float
    n: int

    @property
    def k(self):
        return int(self.times.size)

    @property
    def last_event_time(self):
        return float(self.times[-1])


def risk_table(sample):
    """Build the adjusted risk table; needs an event and no observation at time 0."""
    rows = _count_rows(sample, ("event", "censoring"))
    if sample.n_events == 0:
        raise NoEventsError("no events: the adjusted risk table is undefined")
    summary = rows.summary
    times = rows.distinct[summary.event_columns]
    d = rows.jumps[0]
    y = rows.at_risk[0, summary.event_columns]
    # Positive: each censoring factor 1 - c_j/(Y_j - d_j) >= Y_(j+1)/Y_j, so G(t-) >= Y(t)/n.
    g_left = rows.censoring_curve()[0, summary.column(times, "censoring", "left")]
    d_tilde = d / g_left
    y_tilde = np.cumsum(d_tilde[::-1])[::-1]
    return RiskTable(
        times=times,
        d=d,
        y=y,
        g_left=g_left,
        d_tilde=d_tilde,
        y_tilde=y_tilde,
        n_a_hat=float(y_tilde[0]),
        n=sample.n,
    )


def _count_chunks(summaries, seed, R):
    """Bootstrap replicates ``0 .. R-1`` as rows of cell counts, a chunk at a time.

    Row ``r`` of arm ``a`` is ``np.bincount(cell[rng.integers(0, n, size=n)],
    minlength=2 * K)``, with ``cell`` and the K distinct times from the arm's
    ``_SortedSample`` ``summaries[a]``, arm 0 and then arm 1 drawn from
    ``rng = stream(seed, r)``: the cell counts of the resamples
    ``bootstrap_stats`` draws one by one.  Chunks hold at most
    ``COUNT_CHUNK_ELEMENTS // max(n)`` rows (at least one).  Yields
    ``(start, cells)``, with one (rows x 2K) int64 array per arm.

    No Generator is built per replicate.  One PCG64 serves every row: each
    row's four state words from ``seeding._pcg64_states`` are written
    straight into numpy's ``pcg64_random_t`` through a view of it
    (``seeding._seated_pcg64``), with no ``state`` setter and no Python
    integer per row.  Once per process a probe checks, on a fixed seed,
    that such a write seats the generator as the setter does; on a build
    that lays the 128-bit words out otherwise, each row is seated through
    the setter instead, from the same words.  ``integers`` reads the raw
    outputs as 32-bit words, low half first, carried from arm 0 into arm 1
    (an arm of one subject reads none), and word u draws subject
    ``(u * n) >> 32`` (Lemire), the high half of one uint64 product.  It
    would reject u where the low half, ``u * n mod 2**32``, is below
    ``(2**32 - n) % n``: such a row (about 1 in 370 at n = 5 000) is drawn
    again from ``stream(seed, r)``.
    """
    sizes = [summary.cell.size for summary in summaries]
    step = max(1, COUNT_CHUNK_ELEMENTS // max(sizes))
    outputs = (sum(n for n in sizes if n > 1) + 1) // 2
    states = _pcg64_states(seed, R)
    bitgen, seat = _seated_pcg64()
    for start in range(0, R, step):
        rows = min(R, start + step) - start
        raw = np.empty((rows, outputs), np.uint64)
        for row, words in enumerate(states[start:start + rows]):
            seat(words)
            raw[row] = bitgen.random_raw(outputs)
        uniform = raw.astype("<u8", copy=False).view("<u4")
        cells, offset, rejected = [], 0, np.zeros(rows, bool)
        for summary, n in zip(summaries, sizes):
            width = 2 * summary.distinct.size
            if n == 1:
                cells.append(np.repeat(summary.ones(), rows, axis=0))
                continue
            product = np.multiply(uniform[:, offset:offset + n], n, dtype=np.uint64)
            offset += n
            rejected |= product.astype(np.uint32).min(axis=1) < (2 ** 32 - n) % n
            product >>= 32
            bins = summary.cell[product.view(np.int64)]
            bins += np.arange(0, rows * width, width)[:, None]
            cells.append(np.bincount(bins.ravel(), minlength=rows * width).reshape(rows, width))
        for row in np.flatnonzero(rejected):
            rng = stream(seed, start + int(row))
            for arm, summary, n in zip(cells, summaries, sizes):
                arm[row] = np.bincount(summary.cell[rng.integers(0, n, size=n)],
                                       minlength=arm.shape[1])
        yield start, tuple(cells)


@dataclass(frozen=True)
class _KMRows:
    """Event-survival curves of count-weighted replicates, one per row.

    ``surv`` is (rows x |E| + 1): column 0 holds 1.0, the curve before the
    first event time, and ``surv[r, p]`` is replicate ``r``'s curve from the
    original sample's p-th event time (``summary.event_columns[p - 1]``)
    until the next.  A replicate's event times are among those, and one it
    does not jump at contributes a factor of exactly 1.0, so every value is
    bit-identical to the product over the replicate's own event times (and
    to a cumprod over all K distinct times).  So the last column,
    ``surv[:, -1]``, is each replicate's curve at its largest event time.
    ``summary.column`` gives the column that holds a time's value.
    ``cells`` are the replicate's cell counts, and ``jumps`` and
    ``censored_counts`` its event and censoring counts at the event and
    censored columns alone (E and C).  ``has_events`` marks the rows with
    an event, and ``last_event`` is the column of each row's largest event
    time, 0 where it has none.
    ``censored_counts``, ``has_events`` and ``last_event`` are found on
    first read and kept, so each is computed once and only where it is
    read: the tail cure rate needs no ``last_event``, and the extrapolated
    one no ``has_events``.  ``at_risk`` is (rows x K + 1): its count at
    risk at each distinct time, then 0, so that column j + 1 is the count
    still at risk just after time j.  The row of ones is the original
    sample, and ``km_fit`` and ``risk_table`` read it (``_count_rows``).
    """

    summary: _SortedSample
    cells: np.ndarray
    jumps: np.ndarray
    surv: np.ndarray
    at_risk: np.ndarray

    @property
    def distinct(self):
        return self.summary.distinct

    @functools.cached_property
    def censored_counts(self):
        return self.cells.take(self.summary.censored_cells, axis=1)

    @functools.cached_property
    def has_events(self):
        return self.jumps.any(axis=1)

    @functools.cached_property
    def last_event(self):
        # The last column that jumps, or the leading one if none does.
        jumped = np.empty(self.surv.shape, bool)
        jumped[:, 0] = True
        np.greater(self.jumps, 0, out=jumped[:, 1:])
        return jumped.shape[1] - 1 - np.argmax(jumped[:, ::-1], axis=1)

    @property
    def last_event_time(self):
        """Each row's largest event time, 0.0 where it has none."""
        times = np.concatenate(([0.0], self.distinct[self.summary.event_columns]))
        return times[self.last_event]

    def at(self, t):
        """Each row's curve at its own times (right-continuous): ``t`` is
        (rows,) or (rows, m), and row ``r`` is read at ``t[r]``."""
        columns = self.summary.column(t)
        rows = np.arange(self.surv.shape[0]).reshape((-1,) + (1,) * (columns.ndim - 1))
        return self.surv[rows, columns]

    def censoring_curve(self):
        """Each row's censoring KM curve, padded as ``surv`` is: (rows x
        |C| + 1), over the censored columns (``summary.column(t,
        "censoring")``).  The censorings at a time come after its events, so
        they divide by Y(t) - d(t): the count still at risk just after t plus
        the censorings at t."""
        censored = self.censored_counts
        divisor = self.at_risk.take(self.summary.censored_columns + 1, axis=1)
        divisor += censored
        return _padded_curve(censored, divisor)


def _km_rows(summary, cells):
    """The event curves and counts of the replicates in ``cells``.

    ``cells`` is a (rows x 2K) array of cell counts in the layout of
    ``summary``, the original sample's ``_SortedSample``.  The at-risk
    counts cover all K distinct times, and each curve is the product over
    the columns where the original sample has a jump of its kind
    (``_KMRows``).  So each row must be a resample of that sample, as
    ``_count_chunks`` draws them and the row of ones is: it holds events in
    ``summary.event_cells`` alone and censorings in
    ``summary.censored_cells`` alone.  A row with counts in other cells
    still gets its at-risk counts right, and its event curve as long as its
    events keep to those cells, but not its censoring curve.
    """
    at_risk = _suffix_sums(cells[:, 0::2] + cells[:, 1::2])
    jumps = cells.take(summary.event_cells, axis=1)
    return _KMRows(
        summary=summary,
        cells=cells,
        jumps=jumps,
        surv=_padded_curve(jumps, at_risk.take(summary.event_columns, axis=1)),
        at_risk=at_risk,
    )
