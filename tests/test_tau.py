from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curetau as ct
from curetau.errors import EstimationError
from curetau.tau import _subject_weights, censoring_weight_factor
from conftest import cross_tie_free_samples, random_tie_free_sample, tied_samples


@dataclass(frozen=True)
class PairTerm:
    """One cross-arm pair: comparison time, orderability, sign, and weights."""

    i: int
    j: int
    x_tilde: float
    orderable: int
    sign: int
    ipcw: float
    weight: float


def pair_table(sample0, sample1, eta0=None, eta1=None):
    """Per-pair breakdown of the tau sums: the O(n^2) reference."""
    g0 = ct.km_fit(sample0, "censoring")
    g1 = ct.km_fit(sample1, "censoring")
    if eta0 is not None:
        w0 = _subject_weights(sample0, eta0)
        w1 = _subject_weights(sample1, eta1)
    terms = []
    for i in range(sample0.n):
        for j in range(sample1.n):
            x0, d0 = float(sample0.times[i]), int(sample0.status[i])
            x1, d1 = float(sample1.times[j]), int(sample1.status[j])
            x_tilde = min(x0, x1)
            orderable = int((x0 < x1 and d0 == 1) or (x0 > x1 and d1 == 1))
            g_prod = g0(x_tilde, side="left") * g1(x_tilde, side="left")
            ipcw = 1.0 / g_prod if g_prod > 0 else np.inf
            weight = float(w0[i] * w1[j]) if eta0 is not None else 1.0
            terms.append(PairTerm(i=i, j=j, x_tilde=x_tilde, orderable=orderable,
                                  sign=int(np.sign(x1 - x0)), ipcw=ipcw, weight=weight))
    return terms


def two_arm_pair(rng, n_max=40):
    s0 = random_tie_free_sample(rng, max_n=n_max)
    s1 = random_tie_free_sample(rng, max_n=n_max)
    return s0, s1


def brute_force_tau(s0, s1, grid, eta0=None, eta1=None):
    """Independent quadratic reference built from the pair table."""
    terms = pair_table(s0, s1, eta0, eta1)
    normalizer = s0.n * s1.n
    if eta0 is not None:
        normalizer *= (1 - eta0.value) * (1 - eta1.value)
    return np.array([
        sum(p.sign * p.ipcw * p.weight for p in terms
            if p.orderable and p.x_tilde <= t)
        for t in grid
    ]) / normalizer


def test_single_orderable_pair():
    s0 = ct.Sample([1.0], [1])
    s1 = ct.Sample([2.0], [1])
    curve = ct.tau_curve(s0, s1)
    assert curve.grid.tolist() == [1.0]
    assert curve.values.tolist() == [1.0]
    assert curve(0.99) == 0.0
    assert curve(1.0) == 1.0
    assert curve(50.0) == 1.0


def test_swapping_arms_negates_exactly():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s0, s1 = two_arm_pair(rng)
        forward = ct.tau_curve(s0, s1)
        backward = ct.tau_curve(s1, s0)
        assert np.array_equal(forward.grid, backward.grid)
        assert np.array_equal(backward.values, -forward.values)


def test_swapping_arms_negates_weighted_curve_exactly():
    rng = np.random.default_rng(6)
    for _ in range(10):
        s0, s1 = two_arm_pair(rng)
        e0 = ct.eta_tail_from_sample(s0)
        e1 = ct.eta_tail_from_sample(s1)
        forward = ct.tau_a_curve(s0, s1, e0, e1)
        backward = ct.tau_a_curve(s1, s0, e1, e0)
        assert np.array_equal(backward.values, -forward.values)


@settings(max_examples=200)
@given(s0=cross_tie_free_samples(), s1=cross_tie_free_samples())
def test_swapping_tied_arms_negates_exactly(s0, s1):
    e0 = ct.eta_tail_from_sample(s0)
    e1 = ct.eta_tail_from_sample(s1)
    for forward, backward in ((ct.tau_curve(s0, s1), ct.tau_curve(s1, s0)),
                              (ct.tau_a_curve(s0, s1, e0, e1), ct.tau_a_curve(s1, s0, e1, e0))):
        assert np.array_equal(forward.grid, backward.grid)
        assert np.array_equal(backward.values, -forward.values)


def test_identical_arms_give_zero_processes():
    # Summing the pair masses in order leaves 2.8e-17 here, not 0.
    sample = ct.Sample([6, 6, 6, 1.5, 5, 2.5, 5, 5], [1, 1, 1, 0, 1, 0, 1, 1])
    eta = ct.eta_tail_from_sample(sample)
    for curve in (ct.tau_curve(sample, sample), ct.tau_a_curve(sample, sample, eta, eta)):
        assert curve.grid.size and not np.any(curve.values)


@settings(max_examples=300)
@given(sample=tied_samples(), eta=st.floats(0.0, 1.0, exclude_max=True),
       method=st.sampled_from(["tail", "extrapolated"]))
def test_subject_weights_finite(sample, eta, method):
    # A censored subject is at risk at its own time, so S(x) > 0 there and
    # the susceptibility factor never divides 0 by 0.
    estimate = ct.CureRateEstimate(value=eta, method=method, raw_value=eta,
                                   b=0.5 if method == "extrapolated" else None)
    assert np.all(np.isfinite(_subject_weights(sample, estimate)))


def test_zero_cure_rates_reduce_to_overall_curve():
    rng = np.random.default_rng(7)
    zero = ct.CureRateEstimate(value=0.0, method="tail", raw_value=0.0)
    for _ in range(10):
        s0, s1 = two_arm_pair(rng)
        plain = ct.tau_curve(s0, s1)
        weighted = ct.tau_a_curve(s0, s1, zero, zero, grid=plain.grid)
        assert np.max(np.abs(weighted.values - plain.values)) <= 1e-12


def test_flat_beyond_last_orderable_time():
    rng = np.random.default_rng(8)
    s0, s1 = two_arm_pair(rng)
    curve = ct.tau_curve(s0, s1)
    end = curve.grid[-1]
    assert curve(end) == curve(end + 5.0)


def test_complete_data_matches_pair_count():
    rng = np.random.default_rng(9)
    for _ in range(8):
        n0, n1 = rng.integers(3, 30, 2)
        x0 = rng.exponential(1.0, n0)
        x1 = rng.exponential(1.3, n1)
        s0 = ct.Sample(x0, np.ones(n0, int))
        s1 = ct.Sample(x1, np.ones(n1, int))
        wins = sum((a < b) for a in x0 for b in x1)
        losses = sum((b < a) for a in x0 for b in x1)
        expected = (wins - losses) / (n0 * n1)
        curve = ct.tau_curve(s0, s1)
        assert curve(1e9) == pytest.approx(expected, abs=1e-13)


def test_matches_brute_force_pair_table():
    rng = np.random.default_rng(10)
    grid = np.linspace(0.05, 4.0, 9)
    for _ in range(10):
        s0, s1 = two_arm_pair(rng)
        e0 = ct.eta_tail_from_sample(s0)
        e1 = ct.eta_tail_from_sample(s1)
        fast = ct.tau_a_curve(s0, s1, e0, e1, grid=grid).values
        brute = brute_force_tau(s0, s1, grid, e0, e1)
        assert np.allclose(fast, brute, atol=1e-12)
        fast_plain = ct.tau_curve(s0, s1, grid=grid).values
        brute_plain = brute_force_tau(s0, s1, grid)
        assert np.allclose(fast_plain, brute_plain, atol=1e-12)


def test_pair_term_fields():
    s0 = ct.Sample([1.0, 4.0], [1, 0])
    s1 = ct.Sample([2.0], [1])
    terms = {(p.i, p.j): p for p in pair_table(s0, s1)}
    first = terms[(0, 0)]
    assert first.x_tilde == 1.0 and first.orderable == 1 and first.sign == 1
    second = terms[(1, 0)]
    assert second.x_tilde == 2.0 and second.orderable == 1 and second.sign == -1
    assert all(p.weight == 1.0 for p in terms.values())


def test_censoring_weight_factor_cases():
    assert censoring_weight_factor(0.5, 0.0) == 1.0
    assert censoring_weight_factor(0.0, 0.3) == 0.0
    assert np.isnan(censoring_weight_factor(0.0, 0.0))
    # mixture identity: (1-eta) * Sa + eta is the overall survival
    assert censoring_weight_factor(0.5, 0.2) == pytest.approx(0.4 / 0.6, abs=1e-15)


def test_degenerate_mixture_rejected():
    s0 = ct.Sample([1.0], [1])
    s1 = ct.Sample([2.0], [1])
    one = ct.CureRateEstimate(value=1.0, method="tail", raw_value=1.0)
    zero = ct.CureRateEstimate(value=0.0, method="tail", raw_value=0.0)
    with pytest.raises(EstimationError):
        ct.tau_a_curve(s0, s1, one, zero)


def test_quadrature_matches_closed_form():
    dist0 = ct.BetaLatency(1, 4)
    dist1 = ct.BetaLatency(1, 2)
    for t in np.arange(0.1, 1.01, 0.1):
        value = ct.true_tau_quadrature(dist0, dist1, 0.2, 0.2, t, kind="susceptible")
        closed = (1.0 - (1.0 - t) ** 6) / 3.0
        assert value == pytest.approx(closed, abs=1e-9)


def test_quadrature_identical_distributions_vanish():
    dist = ct.BetaLatency(1, 3)
    for t in (0.2, 0.7, 1.0):
        assert ct.true_tau_quadrature(dist, dist, 0.3, 0.3, t) == pytest.approx(0.0, abs=1e-10)
        assert ct.true_tau_quadrature(dist, dist, 0.1, 0.3, t, kind="overall") != 0.0


def test_quadrature_at_zero_and_full_support():
    dist0 = ct.BetaLatency(1, 4)
    dist1 = ct.BetaLatency(1, 2)
    assert ct.true_tau_quadrature(dist0, dist1, 0.2, 0.2, 0.0) == 0.0
    assert ct.true_tau_quadrature(dist0, dist1, 0.2, 0.2, 1.0) == pytest.approx(1 / 3, abs=1e-9)


def test_quadrature_crossing_design_values():
    dist0 = ct.BetaLatency(1, 4)
    dist1 = ct.BetaLatency(0.5, 1.5)
    # frozen from a 30-digit quadrature of the same integrals
    exact = {0.1: -0.092830, 0.2: -0.045264, 0.3: -0.013990, 0.4: 0.002983,
             0.5: 0.011034, 0.6: 0.014297, 1.0: 0.015625}
    # the published truth row is rounded and drifts ~1e-3 from the integrals
    published = {0.1: -0.093, 0.2: -0.046, 0.3: -0.015, 0.4: 0.002, 0.5: 0.010,
                 0.6: 0.014, 1.0: 0.015}
    for t in exact:
        value = ct.true_tau_quadrature(dist0, dist1, 0.2, 0.2, t)
        assert value == pytest.approx(exact[t], abs=1e-6)
        assert value == pytest.approx(published[t], abs=1.5e-3)


def test_quadrature_reported_moderate_design_values():
    # published truth row for the milder non-crossing design
    dist0 = ct.BetaLatency(1, 4)
    dist1 = ct.BetaLatency(1, 3)
    for t, want in {0.1: 0.075, 0.5: 0.142, 1.0: 0.143}.items():
        value = ct.true_tau_quadrature(dist0, dist1, 0.2, 0.2, t)
        assert value == pytest.approx(want, abs=5e-4)


def test_decomposition_identity():
    dist0 = ct.BetaLatency(1, 4)
    dist1 = ct.BetaLatency(1, 2)
    overall = ct.true_tau_quadrature(dist0, dist1, 0.2, 0.2, 0.5, kind="overall")
    assert overall == pytest.approx(0.24, abs=1e-8)
    assert ct.decomposition_residual(dist0, dist1, 0.2, 0.2, 0.5) <= 1e-8
    assert ct.decomposition_residual(dist0, dist1, 0.0, 0.0, 0.7) <= 1e-8
    assert ct.decomposition_residual(dist0, dist1, 0.3, 0.1, 0.0) == 0.0


def test_tau_csv_roundtrip():
    rng = np.random.default_rng(12)
    s0, s1 = two_arm_pair(rng)
    curve = ct.tau_curve(s0, s1)
    again = ct.read_tau_csv(ct.write_tau_csv(curve))
    assert np.array_equal(again.grid, curve.grid)
    assert np.array_equal(again.values, curve.values)
    banded = curve.with_bands(np.full(curve.grid.size, 0.1),
                              curve.values - 0.2, curve.values + 0.2)
    again = ct.read_tau_csv(ct.write_tau_csv(banded))
    assert np.array_equal(again.sd, banded.sd)
    assert np.array_equal(again.ci_high, banded.ci_high)
