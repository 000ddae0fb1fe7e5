import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curetau as ct
from curetau.cure import _cure_rate_rows
from curetau.errors import EstimationError, NoEventsError
from curetau.inference import _one_arm_statistic
from curetau.km import _count_chunks, _km_rows, _sort_sample
from conftest import sample_corpus, tied_samples


def test_event_curve_on_worked_example(d1):
    curve = ct.km_fit(d1, "event")
    assert curve(0.5) == 1.0
    assert curve(1.0) == pytest.approx(0.8, abs=0)
    assert curve(2.9) == pytest.approx(0.8, abs=0)
    assert curve(3.0) == pytest.approx(8 / 15, abs=1e-15)
    assert curve(100.0) == pytest.approx(8 / 15, abs=1e-15)


def test_censoring_curve_on_worked_example(d1):
    curve = ct.km_fit(d1, "censoring")
    assert curve(1.9) == 1.0
    assert curve(2.0) == pytest.approx(3 / 4, abs=0)
    assert curve(4.0) == pytest.approx(3 / 8, abs=1e-15)
    assert curve(5.0) == 0.0
    assert curve(4.0, side="left") == pytest.approx(3 / 4, abs=0)


def test_no_censoring_reduces_to_empirical_survivor():
    sample = ct.Sample([1, 2, 3], [1, 1, 1])
    curve = ct.km_fit(sample, "event")
    assert curve(1.0) == pytest.approx(2 / 3, abs=1e-15)
    assert curve(2.0) == pytest.approx(1 / 3, abs=1e-15)
    assert curve(3.0) == 0.0
    censor = ct.km_fit(sample, "censoring")
    assert censor.x.size == 0 and censor(10.0) == 1.0


def test_risk_table_on_worked_example(d1):
    table = ct.risk_table(d1)
    assert table.times.tolist() == [1.0, 3.0]
    assert table.d.tolist() == [1, 1]
    assert table.y.tolist() == [5, 3]
    assert table.g_left.tolist() == [1.0, 0.75]
    assert table.d_tilde == pytest.approx([1.0, 4 / 3], abs=1e-15)
    assert table.y_tilde == pytest.approx([7 / 3, 4 / 3], abs=1e-15)
    assert table.n_a_hat == pytest.approx(5 * (1 - 8 / 15), abs=1e-12)


def test_risk_table_no_censoring_counts_unchanged():
    sample = ct.Sample([1, 2, 2, 4], [1, 1, 1, 1])
    table = ct.risk_table(sample)
    assert np.array_equal(table.d_tilde, table.d)
    assert np.array_equal(table.y_tilde, table.y)


def test_risk_table_largest_event_telescopes():
    sample = ct.Sample([1, 2, 3], [0, 1, 1])
    table = ct.risk_table(sample)
    assert table.y_tilde[-1] == pytest.approx(table.d_tilde[-1], abs=0)


def test_risk_table_requires_events():
    with pytest.raises(NoEventsError):
        ct.risk_table(ct.Sample([1, 2], [0, 0]))


@pytest.mark.parametrize("status, target, message", [
    (1, "event", "an event at time 0: the event curve cannot jump at time 0"),
    (0, "censoring", "a censoring at time 0: the censoring curve cannot jump at time 0"),
    (1, "censoring", None),
    (0, "event", None),
])
def test_a_curve_that_would_jump_at_time_0_names_it(status, target, message):
    sample = ct.Sample([0.0, 0.0, 1.0, 2.0], [status, status, 1, 0])
    if message is None:
        assert ct.km_fit(sample, target).x[0] > 0
        return
    with pytest.raises(ValueError) as info:
        ct.km_fit(sample, target)
    assert str(info.value) == message


EVENT_AT_0 = "an event at time 0: the event curve cannot jump at time 0"
CENSORING_AT_0 = "a censoring at time 0: the censoring curve cannot jump at time 0"
CLEAN = ct.Sample([1, 2, 3], [1, 0, 1])
ETA = ct.CureRateEstimate(value=0.2, method="tail", raw_value=0.2)
BOTH_CURVE_ESTIMATORS = {
    "risk_table": ct.risk_table,
    "phi_hat": lambda sample: ct.phi_hat(sample, ETA),
    "h1a_hat": lambda sample: ct.h1a_hat(sample, ETA),
    "self_consistency_residual":
        lambda sample: ct.self_consistency_residual(lambda t: np.ones(np.shape(t)), sample, ETA),
    "tau_curve arm 0": lambda sample: ct.tau_curve(sample, CLEAN),
    "tau_curve arm 1": lambda sample: ct.tau_curve(CLEAN, sample),
    "tau_a_curve arm 0": lambda sample: ct.tau_a_curve(sample, CLEAN, ETA, ETA),
    "tau_a_curve arm 1": lambda sample: ct.tau_a_curve(CLEAN, sample, ETA, ETA),
}
# A sample on which every estimator of the event curve alone is defined,
# select_b and the extrapolated cure rates included.
PLATEAU = ct.Sample([3, 3, 8, 8, 3, 6, 8, 5], [1, 0, 0, 0, 1, 0, 0, 1])


def difference_test(method, arm=None):
    """``cure_difference_test`` of two arms, or with ``arm`` of one: the
    sample is that arm, and ``PLATEAU`` the other."""
    def call(*arms):
        if arm is not None:
            arms = (arms[0], PLATEAU) if arm == 0 else (PLATEAU, arms[0])
        return ct.cure_difference_test(*arms, method=method, b0=0.8, b1=0.8, R=20, seed=1)
    return call


EVENT_CURVE_ESTIMATORS = {
    "km_fit": lambda sample: ct.km_fit(sample, "event"),
    "select_b": lambda sample: ct.select_b(sample, replicates=20, seed=1),
    "one-arm statistic": lambda sample: ct.bootstrap_stats(
        sample, _one_arm_statistic(sample, [1.0, 4.0], 0.8), R=20, seed=1),
    **{f"cure_difference_test {method} arm {arm}": difference_test(method, arm)
       for method in ("tail", "extrapolated") for arm in (0, 1)},
}
ESTIMATORS = {**BOTH_CURVE_ESTIMATORS, **EVENT_CURVE_ESTIMATORS}


def value_error(call, sample):
    """The message of the ``ValueError`` that ``call(sample)`` raises, else
    None; an ``EstimationError`` of a tiny sample passes."""
    try:
        call(sample)
    except ValueError as exc:
        return str(exc)
    except EstimationError:
        pass
    return None


@pytest.mark.parametrize("entry", list(ESTIMATORS))
@pytest.mark.parametrize("sample, message", [
    (ct.Sample([0, 1, 2, 3], [1, 1, 0, 1]), EVENT_AT_0),
    (ct.Sample([0, 1, 2, 3], [0, 1, 0, 1]), CENSORING_AT_0),
    (ct.Sample([0, 0, 1, 2], [0, 1, 0, 1]), EVENT_AT_0),  # the event message first
    (ct.Sample([], []), "sample is empty"),
])
def test_estimators_of_both_curves_name_an_observation_at_time_0(entry, sample, message):
    """Unlike ``km_fit``, which reads one curve, the estimators of both
    curves reject any observation at time 0 with ``km_fit``'s messages.
    Those of the event curve alone reject an event there and keep a
    censoring, and every one rejects an empty sample."""
    if entry in EVENT_CURVE_ESTIMATORS and message == CENSORING_AT_0:
        message = None
    elif entry.startswith("tau") and sample.n == 0:
        message = "both samples must be non-empty"
    assert value_error(ESTIMATORS[entry], sample) == message
    ESTIMATORS[entry](PLATEAU if entry in EVENT_CURVE_ESTIMATORS else CLEAN)


def test_two_arms_name_an_event_at_time_0_before_a_censoring():
    censoring = ct.Sample([0, 1, 2], [0, 1, 1])
    event = ct.Sample([0, 1, 2], [1, 1, 0])
    entries = [ct.tau_curve, lambda *arms: ct.tau_a_curve(*arms, ETA, ETA)]
    entries += [difference_test(method) for method in ("tail", "extrapolated")]
    for entry in entries:
        for arms in ((censoring, event), (event, censoring)):
            with pytest.raises(ValueError, match="^an event at time 0"):
                entry(*arms)


@settings(max_examples=300)
@given(sample=tied_samples(), drawn=st.lists(st.floats(1e-3, 8.0), max_size=4))
def test_censoring_weight_bounded_below_by_risk_share(sample, drawn):
    # G(t-) >= Y(t)/n at every t > 0, up to rounding of the product: at the
    # observed times, between them and past the largest one.
    t = np.concatenate((np.arange(1, 29) / 4, drawn))
    g_left = ct.km_fit(sample, "censoring")(t, side="left")
    at_risk = sample.n - np.searchsorted(np.sort(sample.times), t, side="left")
    assert np.all(g_left >= (at_risk / sample.n) * (1 - 1e-12))


@st.composite
def resampled_rows(draw):
    """A ``tied_samples()`` sample or its first subject alone, or their
    times all censored or all events, with rows of its resamples' cell
    counts: its row of ones, a chunk drawn
    by ``_count_chunks``, rows of chosen subjects, and the rows that draw
    only its last subject and only its censored ones (no events, or an
    all-censored tail)."""
    sample = draw(tied_samples())
    if draw(st.booleans()):
        # An arm of one subject, an event or a censoring.
        sample = ct.Sample(sample.times[:1], sample.status[:1])
    status = draw(st.sampled_from([None, 0, 1]))
    if status is not None:
        sample = ct.Sample(sample.times, np.full(sample.n, status))
    summary = _sort_sample(sample)
    chosen = [draw(st.lists(st.integers(0, sample.n - 1), min_size=sample.n,
                            max_size=sample.n)) for _ in range(draw(st.integers(0, 3)))]
    censored = np.flatnonzero(sample.status == 0)
    chosen += [np.full(sample.n, np.argmax(sample.times))]
    chosen += [censored[np.arange(sample.n) % censored.size]] if censored.size else []
    width = 2 * summary.distinct.size
    drawn = next(_count_chunks((summary,), draw(st.integers(0, 1000)),
                               draw(st.integers(1, 50))))[1][0]
    return summary, np.concatenate([summary.ones(), drawn] + [
        np.bincount(summary.cell[index], minlength=width)[None] for index in chosen])


def full_width_curves(cells):
    """The at-risk counts and the event and censoring curves at every
    distinct time: each a cumprod over all K columns, factors of 1.0 where
    nothing happens.  The censorings at a time come after its events."""
    censored, events = cells[:, 0::2], cells[:, 1::2]
    at_risk = np.cumsum((censored + events)[:, ::-1], axis=1)[:, ::-1]
    return (at_risk, np.cumprod(1.0 - events / np.maximum(at_risk, 1), axis=1),
            np.cumprod(1.0 - censored / np.maximum(at_risk - events, 1), axis=1))


def same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300)
@given(rows=resampled_rows())
def test_occupied_column_curves_equal_the_full_width_products(rows):
    summary, cells = rows
    km = _km_rows(summary, cells)
    at_risk, surv, censoring = full_width_curves(cells)
    distinct = summary.distinct
    assert same(km.at_risk, np.hstack((at_risk, np.zeros_like(at_risk[:, :1]))))
    # The padded lookups, at the distinct times and around them.
    assert same(km.surv.take(summary.column(distinct), axis=1), surv)
    t = np.concatenate((distinct, distinct - 0.5, distinct + 0.5, [0.0, np.inf]))
    before = np.searchsorted(distinct, t, side="right") - 1
    reference = np.where(before < 0, 1.0, surv[:, np.maximum(before, 0)])
    assert same(km.at(np.broadcast_to(t, (cells.shape[0], t.size))), reference)
    assert same(summary.surv_at_censored,
                summary.column(distinct[summary.censored_columns]))
    # The counts at the occupied columns, taken once per chunk.
    ones = summary.ones()[0]
    assert same(km.jumps, cells[:, 1::2][:, ones[1::2] > 0])
    assert same(km.censored_counts, cells[:, 0::2][:, ones[0::2] > 0])
    # The tail: the curve at each row's last event time, which is its last
    # column, since every factor after that time is 1.0.
    jumps = cells[:, 1::2] > 0
    last = jumps.shape[1] - 1 - np.argmax(jumps[:, ::-1], axis=1)
    has = jumps.any(axis=1)
    tail = surv[np.arange(cells.shape[0]), last]
    assert same(km.has_events, has)
    assert same(km.surv[:, -1], surv[:, -1])
    assert same(km.surv[has, -1], tail[has])
    assert same(_cure_rate_rows(km), np.where(has, tail, np.nan))
    # The padded column of the last event: the sample's event times up to
    # it, or 0 without one.
    assert same(km.last_event, np.where(has, np.cumsum(ones[1::2] > 0)[last], 0))
    assert same(km.last_event_time, np.where(has, distinct[last], 0.0))
    # The censoring curve and its left limits.
    curve = km.censoring_curve()
    assert same(curve.take(summary.column(distinct, "censoring"), axis=1), censoring)
    left = np.hstack((np.ones_like(censoring[:, :1]), censoring[:, :-1]))
    assert same(curve.take(summary.column(distinct, "censoring", "left"), axis=1), left)


def test_tied_event_times_supported():
    sample = ct.Sample([1, 1, 2], [1, 1, 0])
    table = ct.risk_table(sample)
    assert table.d.tolist() == [2]
    curve = ct.km_fit(sample, "event")
    assert curve(1.0) == pytest.approx(1 / 3, abs=1e-15)


def test_event_censor_tie_convention():
    # At a tied time the censorings come after the events: the event divides
    # by the full risk set Y = 3, the censoring by the Y - d = 2 left after it.
    sample = ct.Sample([1, 1, 2], [1, 0, 1])
    event = ct.km_fit(sample, "event")
    assert event(1.0) == pytest.approx(2 / 3, abs=1e-15)
    censor = ct.km_fit(sample, "censoring")
    assert censor(1.0) == pytest.approx(1 / 2, abs=1e-15)


class TestCorpusIdentities:
    CORPUS = sample_corpus(200, seed=91)

    def test_curves_are_survival_curves(self):
        for sample in self.CORPUS:
            for target in ("event", "censoring"):
                assert ct.km_fit(sample, target).is_survival_curve(tol=1e-12)

    def test_adjusted_event_total_matches_tail(self):
        # sum of IPCW event counts equals n * (1 - tail cure rate)
        for sample in self.CORPUS:
            table = ct.risk_table(sample)
            eta = ct.km_fit(sample, "event")(table.last_event_time)
            assert abs(table.n_a_hat - sample.n * (1.0 - eta)) < 1e-12 * sample.n

    def test_ipcw_reconstruction_matches_product_limit(self):
        for sample in self.CORPUS:
            table = ct.risk_table(sample)
            curve = ct.km_fit(sample, "event")
            reconstructed = 1.0 - np.cumsum(table.d_tilde) / sample.n
            assert np.max(np.abs(reconstructed - curve(table.times))) < 1e-12
