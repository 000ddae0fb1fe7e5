"""Kaplan-Meier estimation and the censoring-adjusted risk table.

Both the event-time survival curve and the censoring-time survival curve are
product-limit estimates over their own jump times, with the number at risk
counting every subject still under observation.  The risk table carries, for
each distinct event time, the raw counts together with the
inverse-probability-of-censoring adjusted counts used by the latency
(susceptible-survival) estimators.

Every estimator reads a sample only through its event and censoring counts
at each distinct time, and ``_km_rows`` turns rows of those counts into each
row's at-risk counts and event curve.  A bootstrap replicate is one such row
(``_count_chunks`` draws them); the sample itself is the row of ones, the
counts of its own subjects.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoEventsError
from .seeding import _pcg64_states, _seated_pcg64, stream
from .stepfun import StepFunction

#: Element budget of one chunk of bootstrap count rows: each arm's
#: (rows x n) int64 count array holds about this many entries, so a chunk is
#: 81 replicates at n = 200 and 3 at n = 5 000.  It bounds the memory of the
#: count-weight kernels at a few such arrays whatever the number of replicates.
COUNT_CHUNK_ELEMENTS = 2 ** 14


class _SortedSample(NamedTuple):
    """A sample's distinct times, and each subject's cell ``2 * j + status``
    with ``j`` the index of its time among them.  A row of counts over the
    2K cells holds the censorings (even cells) and the events (odd cells) at
    each distinct time."""

    distinct: np.ndarray
    cell: np.ndarray

    def ones(self):
        """The sample's own cell counts, as one row: its row of ones."""
        return np.bincount(self.cell, minlength=2 * self.distinct.size)[None]


def _sort_sample(sample):
    """The sample's ``_SortedSample``: sorted on first use and then kept on
    the sample, whose arrays are read-only."""
    if "_sorted" not in vars(sample):
        distinct, index = np.unique(sample.times, return_inverse=True)
        sample._sorted = _SortedSample(distinct, 2 * index + sample.status)
    return sample._sorted


def _count_rows(sample):
    """The sample's own counts and event curve: ``_km_rows`` on its row of
    ones (a ``_KMRows`` of one row)."""
    summary = _sort_sample(sample)
    return _km_rows(summary, summary.ones())


def _check_no_jump_at_zero(distinct, jumps, target):
    """A survival curve starts at 1 at time 0, so it cannot jump there:
    ``ValueError`` when ``jumps`` (one row of event or censoring counts at
    the sample's ``distinct`` times) holds one at time 0."""
    if distinct[0] == 0.0 and jumps[0] > 0:
        kind = "an event" if target == "event" else "a censoring"
        raise ValueError(f"{kind} at time 0: the {target} curve cannot jump at time 0")


def _check_no_observation_at_zero(*samples):
    """Estimators of both curves reject time 0: ``km_fit``'s event message if
    a sample has an event there, else its censoring message."""
    for target, status in (("event", 1), ("censoring", 0)):
        for summary in map(_sort_sample, samples):
            _check_no_jump_at_zero(summary.distinct, summary.ones()[0, status::2], target)


def km_fit(sample, target="event"):
    """Product-limit survival curve for the event or the censoring distribution.

    With ties between an event and a censoring at the same time, events are
    taken to precede censorings: both curves divide by the full number at
    risk at that time.
    """
    if target not in ("event", "censoring"):
        raise ValueError(f"target must be 'event' or 'censoring', got {target!r}")
    if sample.n == 0:
        raise ValueError("sample is empty")
    rows = _count_rows(sample)
    if target == "event":
        jumps, curve = rows.events, rows.surv
    else:
        jumps, curve = rows.censored, rows.censoring_curve()
    _check_no_jump_at_zero(rows.distinct, jumps[0], target)
    mask = jumps[0] > 0
    return StepFunction(rows.distinct[mask], curve[0, mask], initial_value=1.0)


def _hazard(jumps, at_risk):
    """``jumps / at_risk`` where there are jumps, exactly 0.0 elsewhere
    (where nobody is at risk there are no jumps, so a divisor of 1 is exact)."""
    return jumps / np.maximum(at_risk, 1)


def _left_limits(curve):
    """A curve's values just before each distinct time: its exclusive prefix
    (along the last axis)."""
    return np.concatenate((np.ones_like(curve[..., :1]), curve[..., :-1]), axis=-1)


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
    if sample.n == 0:
        raise ValueError("sample is empty")
    _check_no_observation_at_zero(sample)
    if sample.n_events == 0:
        raise NoEventsError("no events: the adjusted risk table is undefined")
    rows = _count_rows(sample)
    mask = rows.events[0] > 0
    d = rows.events[0, mask]
    y = rows.at_risk[0, mask]
    # Positive: each censoring factor 1 - c_j/Y_j >= Y_(j+1)/Y_j, so G(t-) >= Y(t)/n.
    g_left = _left_limits(rows.censoring_curve())[0, mask]
    d_tilde = d / g_left
    y_tilde = np.cumsum(d_tilde[::-1])[::-1]
    return RiskTable(
        times=rows.distinct[mask],
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

    ``surv[r, j]`` is replicate ``r``'s curve at the original sample's
    distinct time ``distinct[j]``.  Times a replicate does not jump at
    contribute a factor of exactly 1.0, so every value is bit-identical to
    the product over the replicate's own event times.  ``first_event``/
    ``last_event`` index the replicate's smallest and largest event time
    (meaningless where ``has_events`` is False).  ``events``, ``censored``
    and ``at_risk`` are the replicate's event, censoring and at-risk counts
    at each distinct time.  The row of ones is the original sample, and
    ``km_fit`` and ``risk_table`` read it (``_count_rows``).
    """

    distinct: np.ndarray
    surv: np.ndarray
    first_event: np.ndarray
    last_event: np.ndarray
    has_events: np.ndarray
    events: np.ndarray
    censored: np.ndarray
    at_risk: np.ndarray

    def at(self, t):
        """Each row's curve at its own times (right-continuous): ``t`` is
        (rows,) or (rows, m), and row ``r`` is read at ``t[r]``."""
        idx = np.searchsorted(self.distinct, t, side="right") - 1
        rows = np.arange(self.surv.shape[0]).reshape((-1,) + (1,) * (idx.ndim - 1))
        return np.where(idx < 0, 1.0, self.surv[rows, np.maximum(idx, 0)])

    def censoring_curve(self):
        """Each row's censoring KM curve at the distinct times.  Times without
        censorings contribute a factor of exactly 1.0, as in ``surv``."""
        return np.cumprod(1.0 - _hazard(self.censored, self.at_risk), axis=1)


def _km_rows(summary, cells):
    """The event curves and counts of the replicates in ``cells``.

    ``cells`` is a (rows x 2K) array of cell counts in the layout of
    ``summary``, the original sample's ``_SortedSample``; the event and
    censoring counts are views of it.
    """
    censored, events = cells[:, 0::2], cells[:, 1::2]
    totals = censored + events
    at_risk = np.cumsum(totals[:, ::-1], axis=1)[:, ::-1]
    surv = np.cumprod(1.0 - _hazard(events, at_risk), axis=1)
    jumps = events > 0
    return _KMRows(
        distinct=summary.distinct,
        surv=surv,
        first_event=np.argmax(jumps, axis=1),
        last_event=jumps.shape[1] - 1 - np.argmax(jumps[:, ::-1], axis=1),
        has_events=jumps.any(axis=1),
        events=events,
        censored=censored,
        at_risk=at_risk,
    )
