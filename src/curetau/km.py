"""Kaplan-Meier estimation and the censoring-adjusted risk table.

Both the event-time survival curve and the censoring-time survival curve are
product-limit estimates over their own jump times, with the number at risk
counting every subject still under observation.  The risk table carries, for
each distinct event time, the raw counts together with the
inverse-probability-of-censoring adjusted counts used by the latency
(susceptible-survival) estimators.

Bootstrap replicates can also be held as count weights over the subjects of
the original sample, and the event curves of many replicates computed at once
on the original sample's distinct times (``_count_chunks``, ``_km_rows``).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoEventsError
from .seeding import stream
from .stepfun import StepFunction

#: Element budget of one chunk of bootstrap count rows: each arm's
#: (rows x n) int64 count array holds about this many entries, so a chunk is
#: 81 replicates at n = 200 and 3 at n = 5 000.  It bounds the memory of the
#: count-weight kernels at a few such arrays whatever the number of replicates.
COUNT_CHUNK_ELEMENTS = 2 ** 14


class _SortedSample(NamedTuple):
    """One stable sort of a sample: the order, the distinct times, where each
    distinct time's run starts in sorted order, and the sorted status."""

    order: np.ndarray
    distinct: np.ndarray
    first: np.ndarray
    status: np.ndarray


def _sort_sample(times, status):
    times = np.asarray(times, dtype=float)
    order = np.argsort(times, kind="mergesort")
    distinct, first = np.unique(times[order], return_index=True)
    return _SortedSample(order, distinct, first, np.asarray(status)[order])


def _distinct_counts(times, status):
    """Distinct observed times with event count, censor count, and at-risk count."""
    summary = _sort_sample(times, status)
    n = summary.order.size
    events = (np.add.reduceat(summary.status, summary.first)
              if summary.distinct.size else np.array([]))
    totals = np.diff(np.append(summary.first, n))
    censored = totals - events
    at_risk = n - np.concatenate(([0], np.cumsum(totals)[:-1]))
    return (summary.distinct, events.astype(np.int64), censored.astype(np.int64),
            at_risk.astype(np.int64))


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
    distinct, events, censored, at_risk = _distinct_counts(sample.times, sample.status)
    jumps = events if target == "event" else censored
    mask = jumps > 0
    factors = 1.0 - jumps[mask] / at_risk[mask]
    return StepFunction(distinct[mask], np.cumprod(factors), initial_value=1.0)


def _hazard(jumps, at_risk):
    """``jumps / at_risk`` where there are jumps, exactly 0.0 elsewhere."""
    return np.divide(jumps, at_risk, out=np.zeros(jumps.shape), where=jumps > 0)


def _censoring_survival(censored, at_risk):
    """The censoring KM curve at each distinct time of ``_distinct_counts``.

    Times without censorings contribute a factor of exactly 1.0, so every
    value is bit-identical to ``km_fit(sample, "censoring")`` there.
    """
    return np.cumprod(1.0 - _hazard(censored, at_risk))


def _left_limits(curve):
    """A curve's values just before each distinct time: its exclusive prefix."""
    return np.concatenate(([1.0], curve[:-1]))


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
    """Build the adjusted risk table; requires at least one event."""
    if sample.n == 0:
        raise ValueError("sample is empty")
    if sample.n_events == 0:
        raise NoEventsError("no events: the adjusted risk table is undefined")
    distinct, events, censored, at_risk = _distinct_counts(sample.times, sample.status)
    mask = events > 0
    d = events[mask]
    y = at_risk[mask]
    # Positive: each censoring factor 1 - c_j/Y_j >= Y_(j+1)/Y_j, so G(t-) >= Y(t)/n.
    g_left = _left_limits(_censoring_survival(censored, at_risk))[mask]
    d_tilde = d / g_left
    y_tilde = np.cumsum(d_tilde[::-1])[::-1]
    return RiskTable(
        times=distinct[mask],
        d=d,
        y=y,
        g_left=g_left,
        d_tilde=d_tilde,
        y_tilde=y_tilde,
        n_a_hat=float(y_tilde[0]),
        n=sample.n,
    )


def _count_chunks(sizes, seed, R):
    """Bootstrap replicates ``0 .. R-1`` as count rows, a chunk at a time.

    Row ``r`` of arm ``a`` counts how often each subject of arm ``a`` is drawn
    by replicate ``r``, which draws arm 0 and then arm 1 from
    ``stream(seed, r)``: the resamples ``bootstrap_stats`` draws one by one.
    Chunks hold at most ``COUNT_CHUNK_ELEMENTS // max(sizes)`` rows (at least
    one).  Yields ``(start, counts)``, with one (rows x n) int64 array per arm.
    """
    step = max(1, COUNT_CHUNK_ELEMENTS // max(sizes))
    for start in range(0, R, step):
        replicates = range(start, min(R, start + step))
        counts = tuple(np.empty((len(replicates), n), np.int64) for n in sizes)
        for row, r in enumerate(replicates):
            rng = stream(seed, r)
            for arm, n in zip(counts, sizes):
                arm[row] = np.bincount(rng.integers(0, n, size=n), minlength=n)
        yield start, counts


@dataclass(frozen=True)
class _KMRows:
    """Event-survival curves of count-weighted replicates, one per row.

    ``surv[r, j]`` is replicate ``r``'s curve at the original sample's
    distinct time ``distinct[j]``.  Times a replicate does not jump at
    contribute a factor of exactly 1.0, so every value is bit-identical to
    ``km_fit`` on the resample.  ``first_event``/``last_event`` index the
    replicate's smallest and largest event time (meaningless where
    ``has_events`` is False).
    """

    distinct: np.ndarray
    surv: np.ndarray
    first_event: np.ndarray
    last_event: np.ndarray
    has_events: np.ndarray

    def at(self, t):
        """Each row's curve at its own time ``t[r]`` (right-continuous)."""
        idx = np.searchsorted(self.distinct, t, side="right") - 1
        values = self.surv[np.arange(self.surv.shape[0]), np.maximum(idx, 0)]
        return np.where(idx < 0, 1.0, values)


def _km_rows(summary, counts):
    """Batched ``km_fit`` (event target) of the replicates in ``counts``.

    ``summary`` is the original sample's ``_SortedSample``; ``counts`` is a
    (rows x n) array of subject counts in the original subject order.
    """
    weights = counts[:, summary.order]
    totals = np.add.reduceat(weights, summary.first, axis=1)
    events = np.add.reduceat(weights * summary.status, summary.first, axis=1)
    at_risk = weights.sum(axis=1, keepdims=True) - (np.cumsum(totals, axis=1) - totals)
    surv = np.cumprod(1.0 - _hazard(events, at_risk), axis=1)
    jumps = events > 0
    return _KMRows(
        distinct=summary.distinct,
        surv=surv,
        first_event=np.argmax(jumps, axis=1),
        last_event=jumps.shape[1] - 1 - np.argmax(jumps[:, ::-1], axis=1),
        has_events=jumps.any(axis=1),
    )
