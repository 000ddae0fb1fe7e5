import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curetau as ct
from curetau.errors import NoEventsError
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


@settings(max_examples=300)
@given(sample=tied_samples(), drawn=st.lists(st.floats(1e-3, 8.0), max_size=4))
def test_censoring_weight_bounded_below_by_risk_share(sample, drawn):
    # G(t-) >= Y(t)/n at every t > 0, up to rounding of the product: at the
    # observed times, between them and past the largest one.
    t = np.concatenate((np.arange(1, 29) / 4, drawn))
    g_left = ct.km_fit(sample, "censoring")(t, side="left")
    at_risk = sample.n - np.searchsorted(np.sort(sample.times), t, side="left")
    assert np.all(g_left >= (at_risk / sample.n) * (1 - 1e-12))


def test_tied_event_times_supported():
    sample = ct.Sample([1, 1, 2], [1, 1, 0])
    table = ct.risk_table(sample)
    assert table.d.tolist() == [2]
    curve = ct.km_fit(sample, "event")
    assert curve(1.0) == pytest.approx(1 / 3, abs=1e-15)


def test_event_censor_tie_convention():
    # events divide by the full risk set; the same-time censoring also sees it
    sample = ct.Sample([1, 1, 2], [1, 0, 1])
    event = ct.km_fit(sample, "event")
    assert event(1.0) == pytest.approx(2 / 3, abs=1e-15)
    censor = ct.km_fit(sample, "censoring")
    assert censor(1.0) == pytest.approx(2 / 3, abs=1e-15)


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
