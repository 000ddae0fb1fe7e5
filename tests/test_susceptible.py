import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curetau as ct
from curetau.errors import EstimationError
from curetau.susceptible import _phi_after, _sample_rows
from conftest import sample_corpus, tied_samples


def phi_right_limits(sample, eta, censored_times):
    """phi evaluated just after each censored time, by the estimator's own
    ``_phi_after``."""
    rows, censoring = _sample_rows(sample)
    at = np.searchsorted(rows.distinct, censored_times)
    return _phi_after(rows, censoring, sample.n, eta, at)


def quadratic_redistributed(candidate, sample, eta):
    """Reference form of the self-consistency sum: one (censored x distinct)
    matrix of ``phi(X_i+) * candidate(t) / candidate(X_i)`` terms."""
    times = np.unique(sample.times)
    cand_t = np.asarray(candidate(times), dtype=float)
    censored_times = sample.times[sample.status == 0]
    if not censored_times.size:
        return np.zeros_like(times)
    phi_plus = phi_right_limits(sample, eta, censored_times)
    cand_c = np.asarray(candidate(censored_times), dtype=float)
    include = censored_times[:, None] <= times[None, :]
    live = include & (cand_t > 0.0)[None, :]
    bad = live & (cand_c == 0.0)[:, None]
    if np.any(bad):
        where = times[np.where(bad)[1][0]]
        raise EstimationError(f"0/0 outside the stated convention at time {float(where)}")
    safe_c = np.where(cand_c > 0.0, cand_c, 1.0)
    ratio = np.where(live, cand_t[None, :] / safe_c[:, None], 0.0)
    return (phi_plus[:, None] * ratio).sum(axis=0)


def quadratic_residuals(candidate, sample, eta):
    times = np.unique(sample.times)
    h1a = ct.h1a_hat(sample, eta)
    return (sample.n * (1.0 - eta.value) * np.asarray(candidate(times), dtype=float)
            - quadratic_redistributed(candidate, sample, eta) - sample.n * h1a(times))


def test_latency_curve_on_worked_example(d1):
    eta = ct.eta_tail_from_sample(d1)
    fit = ct.susceptible_curve(d1, eta)
    assert fit.curve(0.5) == 1.0
    assert fit.curve(1.0) == pytest.approx(4 / 7, abs=1e-15)
    assert fit.curve(2.9) == pytest.approx(4 / 7, abs=1e-15)
    assert fit.curve(3.0) == 0.0
    assert fit.curve(9.0) == 0.0
    assert fit.form_divergence <= 1e-12
    assert not fit.clamped


def test_zero_cure_rate_gives_back_km():
    sample = ct.Sample([1, 2, 3, 4], [1, 0, 1, 1])
    eta = ct.eta_tail_from_sample(sample)
    assert eta.value == 0.0
    fit = ct.susceptible_curve(sample, eta)
    km = ct.km_fit(sample, "event")
    assert np.array_equal(fit.curve.x, km.x)
    assert np.array_equal(fit.curve.y, km.y)


def test_three_forms_agree_on_worked_example(d1):
    table = ct.risk_table(d1)
    ipcw = ct.ipcw_latency_curve(table)
    prodlim = ct.product_limit_latency_curve(table)
    assert ipcw(1.0) == pytest.approx(4 / 7, abs=1e-15)
    assert prodlim(1.0) == pytest.approx(4 / 7, abs=1e-15)
    assert prodlim(3.0) == 0.0


def test_degenerate_mixture_rejected(d1):
    saturated = ct.CureRateEstimate(value=1.0, method="tail", raw_value=1.0)
    with pytest.raises(EstimationError):
        ct.susceptible_curve(d1, saturated)


def test_extrapolated_curve_clamps_and_flags(d1):
    eta = ct.CureRateEstimate(value=0.7, method="extrapolated", raw_value=0.7, b=0.5)
    fit = ct.susceptible_curve(d1, eta)
    # tail value 8/15 sits below 0.7, so the shifted curve went negative
    assert fit.clamped
    assert fit.curve(3.0) == 0.0
    assert np.isnan(fit.form_divergence)


def test_phi_on_worked_example(d1):
    eta = ct.eta_tail_from_sample(d1)
    phi = ct.phi_hat(d1, eta)
    assert phi(3.0) == pytest.approx(1 / 3, abs=1e-12)
    assert phi(0.5) == pytest.approx(7 / 15, abs=1e-15)
    assert phi(1.0) == pytest.approx(7 / 15, abs=1e-15)


def test_phi_is_one_without_cure():
    sample = ct.Sample([1, 2, 3], [1, 0, 1])
    eta = ct.eta_tail_from_sample(sample)
    phi = ct.phi_hat(sample, eta)
    assert phi(np.array([1.0, 2.0, 3.0])).tolist() == [1.0, 1.0, 1.0]


def test_phi_domain_ends_at_largest_observation(d1):
    phi = ct.phi_hat(d1, ct.eta_tail_from_sample(d1))
    from curetau.errors import DomainError

    with pytest.raises(DomainError):
        phi(5.5)


def test_h1a_on_worked_example(d1):
    eta = ct.eta_tail_from_sample(d1)
    h1a = ct.h1a_hat(d1, eta)
    assert h1a(0.0) == pytest.approx(7 / 15, abs=1e-15)
    assert h1a(5.0) == 0.0
    assert h1a(1.0) == pytest.approx(4 / 5 - (8 / 15), abs=1e-15)


def test_h1a_without_cure_counts_survivors():
    sample = ct.Sample([1, 2, 3], [1, 1, 1])
    eta = ct.eta_tail_from_sample(sample)
    h1a = ct.h1a_hat(sample, eta)
    assert h1a(0.0) == 1.0
    assert h1a(1.0) == pytest.approx(2 / 3, abs=1e-15)
    assert h1a(3.0) == 0.0


def test_product_limit_solves_self_consistency(d1):
    eta = ct.eta_tail_from_sample(d1)
    candidate = ct.product_limit_latency_curve(ct.risk_table(d1))
    report = ct.self_consistency_residual(candidate, d1, eta)
    assert report.max_residual <= 1e-10


def test_shifted_curve_fails_self_consistency(d1):
    eta = ct.eta_tail_from_sample(d1)
    base = ct.product_limit_latency_curve(ct.risk_table(d1))
    shifted = ct.StepFunction(base.x, np.clip(base.y + np.array([0.1, 0.0]), 0, 1),
                              initial_value=1.0)
    report = ct.self_consistency_residual(shifted, d1, eta)
    assert report.max_residual > 0.1


def test_self_consistency_reduces_without_cure():
    sample = ct.Sample([1, 2, 3], [1, 1, 1])
    eta = ct.eta_tail_from_sample(sample)
    km = ct.km_fit(sample, "event")
    report = ct.self_consistency_residual(km, sample, eta)
    assert report.max_residual <= 1e-12


def test_self_consistency_matches_quadratic_form():
    for sample in sample_corpus(200, seed=17):
        eta = ct.eta_tail_from_sample(sample)
        table = ct.risk_table(sample)
        for candidate in (ct.product_limit_latency_curve(table), ct.km_fit(sample, "event"),
                          ct.StepFunction([table.times[0]], [0.5])):
            report = ct.self_consistency_residual(candidate, sample, eta)
            expected = quadratic_residuals(candidate, sample, eta)
            assert np.max(np.abs(report.residuals - expected)) <= 1e-12


def test_self_consistency_zero_over_zero_names_the_same_time():
    sample = ct.Sample([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 0, 1])
    eta = ct.eta_tail_from_sample(sample)
    # zero at the censored time 2 but positive again at 3: 0/0 at t = 3
    candidate = ct.StepFunction([1.0, 2.0, 3.0, 5.0], [0.5, 0.0, 0.3, 0.0])
    with pytest.raises(EstimationError) as quadratic:
        quadratic_redistributed(candidate, sample, eta)
    with pytest.raises(EstimationError) as fast:
        ct.self_consistency_residual(candidate, sample, eta)
    assert str(fast.value) == str(quadratic.value)
    assert str(fast.value) == "0/0 outside the stated convention at time 3.0"


def test_susceptible_proportion_is_1_past_the_last_time():
    # Nobody is left after the censoring at 2 while the cure rate is positive,
    # but that censoring comes after the event at 2, so G(2) = 0 and phi just
    # after 2 resolves its 0/0 to 1: the residual is finite.
    sample = ct.Sample([1, 2, 2], [1, 1, 0])
    eta = ct.CureRateEstimate(value=0.3, method="tail", raw_value=0.3)
    assert phi_right_limits(sample, eta, np.array([2.0])).tolist() == [1.0]
    candidate = ct.product_limit_latency_curve(ct.risk_table(sample))
    report = ct.self_consistency_residual(candidate, sample, eta)
    # n (1 - eta) S_a(1) - n H1a(1) at 1, with S_a(1) = 1/2 and H1a(1) = 2/3 - eta.
    assert report.residuals == pytest.approx([3 * 0.7 * 0.5 - 3 * (2 / 3 - 0.3), 0.0],
                                             abs=1e-15)


def test_self_consistency_at_large_n():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.3, 1.2, 20_000)
    sample = ct.draw_sample(scenario, 5)
    eta = ct.eta_tail_from_sample(sample)
    candidate = ct.product_limit_latency_curve(ct.risk_table(sample))
    report = ct.self_consistency_residual(candidate, sample, eta)
    assert report.times.size == 20_000
    assert report.max_residual <= 1e-8


class TestCorpusProperties:
    CORPUS = sample_corpus(200, seed=17)

    def test_three_form_equivalence(self):
        for sample in self.CORPUS:
            eta = ct.eta_tail_from_sample(sample)
            fit = ct.susceptible_curve(sample, eta)
            assert fit.form_divergence <= 1e-12

    def test_product_limit_is_self_consistent(self):
        for sample in self.CORPUS:
            eta = ct.eta_tail_from_sample(sample)
            candidate = ct.product_limit_latency_curve(ct.risk_table(sample))
            report = ct.self_consistency_residual(candidate, sample, eta)
            assert report.max_residual <= 1e-10

    def test_latency_curve_monotone_and_zero_past_last_event(self):
        for sample in self.CORPUS:
            eta = ct.eta_tail_from_sample(sample)
            fit = ct.susceptible_curve(sample, eta)
            assert fit.curve.is_survival_curve(tol=1e-12)
            assert fit.curve(ct.risk_table(sample).last_event_time) <= 1e-12

    def test_riskset_susceptible_share_is_a_proportion(self):
        for sample in self.CORPUS:
            eta = ct.eta_tail_from_sample(sample)
            phi = ct.phi_hat(sample, eta)
            values = np.concatenate(([phi.initial_value], phi.y))
            assert np.all(values >= -1e-12)
            assert np.all(values <= 1.0 + 1e-12)


def phi_right_limits_oracle(sample, eta, censored_times):
    """``phi_right_limits`` from the refitted censoring curve and a count of
    the subjects observed after each time."""
    beyond = sample.n - np.searchsorted(np.sort(sample.times), censored_times, side="right")
    numerator = eta.value * ct.km_fit(sample, "censoring")(censored_times)
    undefined = (beyond == 0) & (numerator > 0)
    if undefined.any():
        bad = censored_times[undefined][0]
        raise EstimationError(f"susceptible proportion undefined just after {float(bad)}")
    return np.where(beyond > 0, 1.0 - numerator * sample.n / np.maximum(beyond, 1), 1.0)


def outcome(call):
    try:
        return call()
    except EstimationError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(sample=tied_samples(), eta=st.floats(0.0, 1.0, exclude_max=True))
def test_censoring_products_match_refitted_censoring_curve(sample, eta):
    estimate = ct.CureRateEstimate(value=eta, method="tail", raw_value=eta)
    censoring = ct.km_fit(sample, "censoring")
    distinct = np.unique(sample.times)
    sorted_times = np.sort(sample.times)
    at_risk = sample.n - np.searchsorted(sorted_times, distinct, side="left")
    beyond = sample.n - np.searchsorted(sorted_times, distinct, side="right")

    table = ct.risk_table(sample)
    assert np.array_equal(table.g_left, censoring(table.times, side="left"))
    phi = ct.phi_hat(sample, estimate)
    assert np.array_equal(phi.x, distinct)
    assert np.array_equal(
        phi.y, 1.0 - eta * censoring(distinct, side="left") / (at_risk / sample.n))
    h1a = ct.h1a_hat(sample, estimate)
    assert np.array_equal(h1a.x, distinct)
    assert np.array_equal(h1a.y, beyond / sample.n - eta * censoring(distinct))
    censored_times = sample.times[sample.status == 0]
    got = outcome(lambda: phi_right_limits(sample, estimate, censored_times))
    expected = outcome(lambda: phi_right_limits_oracle(sample, estimate, censored_times))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert np.array_equal(got, expected)


@settings(max_examples=300)
@given(sample=tied_samples())
def test_forms_agree_and_self_consistent_on_tied_samples(sample):
    eta = ct.eta_tail_from_sample(sample)
    assert ct.susceptible_curve(sample, eta).form_divergence <= 1e-12
    candidate = ct.product_limit_latency_curve(ct.risk_table(sample))
    assert ct.self_consistency_residual(candidate, sample, eta).max_residual <= 1e-10
