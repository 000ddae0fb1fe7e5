import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curetau as ct
import tau_oracle
from curetau.errors import EstimationError, ToleranceError
from curetau.km import _sort_sample
from curetau.tau import _arm_rows, _quad, censoring_weight_factor
from conftest import random_tie_free_sample, tied_samples

# Absolute: the kernel and the looped oracle add the same terms in another order.
ORACLE_TOLERANCE = 1e-13


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
        w0 = tau_oracle.subject_weights(sample0, eta0)
        w1 = tau_oracle.subject_weights(sample1, eta1)
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
@given(s0=tied_samples(), s1=tied_samples())
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


def fixed_estimate(value, method):
    return ct.CureRateEstimate(value=value, method=method, raw_value=value,
                               b=0.5 if method == "extrapolated" else None)


fixed_estimates = st.builds(fixed_estimate, st.floats(0.0, 1.0, exclude_max=True),
                            st.sampled_from(["tail", "extrapolated"]))


@settings(max_examples=300)
@given(sample=tied_samples(), estimate=fixed_estimates)
def test_subject_weights_finite(sample, estimate):
    # A censored subject is at risk at its own time, so S(x) > 0 there and
    # the susceptibility factor never divides 0 by 0.
    summary = _sort_sample(sample)
    weights = _arm_rows(summary, summary.ones(), estimate, False)[3]
    assert np.all(np.isfinite(weights))


def raised(call):
    """The error class and text a call raises, or its result."""
    try:
        return call()
    except Exception as exc:  # every failure is compared by class and text
        return type(exc), str(exc)


def assert_matches_oracle(got, want, scale=1.0):
    """Same grid and values within the tolerance, or the same error."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, ct.TauCurve) and got.kind == want.kind
    assert np.array_equal(got.grid, want.grid)
    assert np.max(np.abs(got.values - want.values), initial=0.0) * scale <= ORACLE_TOLERANCE


@settings(max_examples=200)
@given(s0=tied_samples(), s1=tied_samples(), twin=st.booleans(), default_grid=st.booleans())
def test_processes_match_the_looped_oracle(s0, s1, twin, default_grid):
    if twin:
        s1 = s0
    grid = None if default_grid else np.array([0.5, 1, 2.5, 3, 4, 6.0, 7])
    e0, e1 = ct.eta_tail_from_sample(s0), ct.eta_tail_from_sample(s1)
    assert_matches_oracle(raised(lambda: ct.tau_curve(s0, s1, grid)),
                          raised(lambda: tau_oracle.tau_curve(s0, s1, grid)))
    assert_matches_oracle(raised(lambda: ct.tau_a_curve(s0, s1, e0, e1, grid)),
                          raised(lambda: tau_oracle.tau_a_curve(s0, s1, e0, e1, grid)))


@settings(max_examples=200)
@given(s0=tied_samples(), s1=tied_samples(), e0=fixed_estimates, e1=fixed_estimates,
       default_grid=st.booleans())
def test_fixed_cure_rates_match_the_looped_oracle(s0, s1, e0, e1, default_grid):
    # The values are divided by both susceptible fractions, which a cure rate
    # near 1 makes small: the tolerance holds before that division.
    grid = None if default_grid else np.array([1, 2.5, 3, 4, 6.0])
    assert_matches_oracle(raised(lambda: ct.tau_a_curve(s0, s1, e0, e1, grid)),
                          raised(lambda: tau_oracle.tau_a_curve(s0, s1, e0, e1, grid)),
                          scale=(1.0 - e0.value) * (1.0 - e1.value))


@settings(max_examples=100)
@given(s0=tied_samples(), s1=tied_samples(), empty=st.sampled_from([None, 0, 1]),
       cure_rate=st.sampled_from([0.0, 0.4, 1.0]),
       grid=st.sampled_from([None, [1.0, 3.0], [3.0, 1.0], [2.0, 2.0], [[1.0, 2.0]],
                             [1.0, math.nan], [math.nan, 1.0], [math.nan], [1.0, math.inf]]))
def test_invalid_input_raises_as_the_looped_oracle(s0, s1, empty, cure_rate, grid):
    # np.diff(grid) <= 0 is False at NaN, so the order test alone lets NaN by.
    if empty is not None:
        s0, s1 = (ct.Sample([], []), s1) if empty == 0 else (s0, ct.Sample([], []))
    e0 = ct.eta_tail_from_sample(s0) if s0.n else fixed_estimate(0.2, "tail")
    e1 = fixed_estimate(cure_rate, "tail")
    assert_matches_oracle(raised(lambda: ct.tau_curve(s0, s1, grid)),
                          raised(lambda: tau_oracle.tau_curve(s0, s1, grid)))
    assert_matches_oracle(raised(lambda: ct.tau_a_curve(s0, s1, e0, e1, grid)),
                          raised(lambda: tau_oracle.tau_a_curve(s0, s1, e0, e1, grid)))


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


# Absolute: the numpy rule and scipy's quad each meet 1e-9 on [0, 1]-valued integrals.
QUAD_ORACLE_TOLERANCE = 2e-9


def quad_truth(dist0, dist1, eta0, eta1, t, kind):
    """``true_tau_quadrature`` by ``scipy.integrate.quad`` at the same tolerance,
    or None where quad reports that it did not meet it."""
    from scipy import integrate

    if kind == "susceptible":  # the latencies alone: no one is cured
        eta0 = eta1 = 0.0
    value = 0.0
    for sign, own, other, eta_own, eta_other in (
            (1.0, dist0, dist1, eta0, eta1), (-1.0, dist1, dist0, eta1, eta0)):
        out = integrate.quad(
            lambda u: ((1.0 - eta_other) * other.sf(u) + eta_other) * (1.0 - eta_own) * own.pdf(u),
            0.0, min(t, own.support_end), epsabs=1e-9, epsrel=1e-9, limit=200, full_output=1)
        if len(out) > 3 or out[1] > 1e-7 * max(1.0, abs(out[0])):
            return None
        value += sign * out[0]
    return value


def oracle_latency_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        yield tuple(ct.BetaLatency(*rng.uniform(0.3, 6.0, 2)) for _ in range(2))
    for _ in range(4):  # beta0 + beta1 < 1: both densities singular at u = 1
        yield tuple(ct.BetaLatency(rng.uniform(0.3, 6.0), rng.uniform(0.3, 0.5))
                    for _ in range(2))
    for _ in range(10):
        t_b = rng.uniform(1.0, 10.0)
        yield tuple(ct.TruncatedWeibullLatency(rng.uniform(0.4, 3.0), rng.uniform(0.5, 10.0),
                                               t_b) for _ in range(2))


def test_quadrature_matches_scipy_quad():
    """The numpy rule against scipy's QUADPACK on seeded Beta and truncated
    Weibull pairs, both kinds: within 2e-9 wherever quad meets its tolerance,
    and never a ``ToleranceError`` there."""
    rng = np.random.default_rng(7)
    checked = 0
    for dist0, dist1 in oracle_latency_pairs():
        eta0, eta1 = rng.uniform(0.0, 0.6, 2)
        end = min(dist0.support_end, dist1.support_end)
        for t in (0.1 * end, 0.4 * end, 0.7 * end, end):
            for kind in ("susceptible", "overall"):
                expected = quad_truth(dist0, dist1, eta0, eta1, t, kind)
                if expected is None:
                    continue
                value = ct.true_tau_quadrature(dist0, dist1, eta0, eta1, t, kind=kind)
                assert value == pytest.approx(expected, abs=QUAD_ORACLE_TOLERANCE), \
                    (dist0, dist1, eta0, eta1, t, kind)
                checked += 1
    assert checked >= 180


def test_quadrature_with_both_ends_singular():
    """Beta(0.72, 0.70) has a density singular at both ends with nearly equal
    powers.  On arm 1's probability scale its survival stays bounded but
    has an infinite slope at both ends of the range, so bisection must
    reach deep at each end."""
    dist0 = ct.BetaLatency(0.7193085603846026, 0.700859645344543)
    dist1 = ct.BetaLatency(5.25246947777972, 3.9141988822804263)
    etas = (0.2979430162793118, 0.09812604971788816)
    value = ct.true_tau_quadrature(dist0, dist1, *etas, 1.0, kind="overall")
    assert value == pytest.approx(quad_truth(dist0, dist1, *etas, 1.0, "overall"),
                                  abs=QUAD_ORACLE_TOLERANCE)


def test_quadrature_mixed_supports_against_30_digits():
    """A truncated Weibull on [0, 3] against a Beta on [0, 1], read at t = 3,
    past the Beta's support end, in both orientations: frozen from a
    30-digit mpmath quadrature of the two pair integrals."""
    weibull, beta = ct.TruncatedWeibullLatency(3, 2, 3), ct.BetaLatency(3, 0.6)
    exact = -0.5378531354040383
    value = ct.true_tau_quadrature(weibull, beta, 0.2, 0.2, 3.0, kind="overall")
    assert value == pytest.approx(exact, abs=QUAD_ORACLE_TOLERANCE)
    value = ct.true_tau_quadrature(beta, weibull, 0.2, 0.2, 3.0, kind="overall")
    assert value == pytest.approx(-exact, abs=QUAD_ORACLE_TOLERANCE)


def mixed_latency_pairs(rng, count):
    """Beta/Beta, truncated Weibull/Weibull and Beta/Weibull pairs in turn;
    each Weibull has its own support end, so most pairs have mixed supports."""
    def beta():
        return ct.BetaLatency(*rng.uniform(0.3, 6.0, 2))

    def weibull():
        return ct.TruncatedWeibullLatency(rng.uniform(0.4, 3.0), rng.uniform(0.5, 10.0),
                                          rng.uniform(1.0, 10.0))

    makers = ((beta, beta), (weibull, weibull), (beta, weibull))
    for i in range(count):
        yield tuple(make() for make in makers[i % 3])


def test_quadrature_negates_under_arm_swap():
    """Each orientation integrates on its own arm 1's probability scale, so
    the swapped truth is another integral: it is the negated truth within
    the quadrature tolerance, at times inside and past either support."""
    rng = np.random.default_rng(17)
    for dist0, dist1 in mixed_latency_pairs(rng, 30):
        eta0, eta1 = rng.uniform(0.0, 0.6, 2)
        end = max(dist0.support_end, dist1.support_end)
        for t in (0.1 * end, 0.4 * end, 0.7 * end, end):
            for kind in ("susceptible", "overall"):
                value = ct.true_tau_quadrature(dist0, dist1, eta0, eta1, t, kind=kind)
                swapped = ct.true_tau_quadrature(dist1, dist0, eta1, eta0, t, kind=kind)
                assert value == pytest.approx(-swapped, abs=QUAD_ORACLE_TOLERANCE), \
                    (dist0, dist1, eta0, eta1, t, kind)


def test_quadrature_raises_instead_of_diverging():
    with pytest.raises(ToleranceError):
        _quad(lambda u: 1.0 / u, 1.0)


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
