import concurrent.futures
import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

import curetau as ct
from curetau import simlab
from curetau.distributions import TruncatedWeibullLatency


def test_truncated_weibull_boundaries():
    assert ct.truncated_weibull_sample(0.75, 1.5, 4.0, 1.0 - 1e-14) == pytest.approx(4.0, abs=1e-9)
    draws = ct.truncated_weibull_sample(0.75, 1.5, 4.0, np.linspace(0.001, 0.999, 500))
    assert np.all(draws >= 0.0)
    assert np.all(draws <= 4.0)
    assert np.all(np.diff(draws) > 0)  # inverse CDF is increasing


def test_truncated_weibull_inverts_its_cdf():
    dist = TruncatedWeibullLatency(0.75, 1.5, 4.0)
    for t in (0.1, 0.5, 1.2, 3.0):
        assert dist.ppf(dist.cdf(t)) == pytest.approx(t, rel=1e-10)
    # density renormalizes the untruncated Weibull over [0, t_b]
    mass = stats.weibull_min.cdf(4.0, 0.75, scale=1.5)
    assert dist.pdf(1.0) == pytest.approx(
        stats.weibull_min.pdf(1.0, 0.75, scale=1.5) / mass, rel=1e-12)
    assert dist.pdf(5.0) == 0.0


def test_truncated_weibull_validates():
    with pytest.raises(ValueError):
        ct.truncated_weibull_sample(-1.0, 1.5, 4.0, 0.5)


BETA_PAIRS = [(1, 3), (1, 4), (0.5, 1.5), (0.5, 0.5), (2.5, 0.7)]


@pytest.mark.parametrize("alpha,beta", BETA_PAIRS)
def test_beta_latency_equals_scipy_beta(alpha, beta):
    dist = ct.BetaLatency(alpha, beta)
    points = [-0.5, 0.0, 0.3, 1.0, 1.5, math.nan]
    for mine, reference in ((dist.sf, stats.beta(alpha, beta).sf),
                            (dist.pdf, stats.beta(alpha, beta).pdf)):
        for t in points:
            value, expected = mine(t), reference(t)
            assert type(value) is type(expected)
            assert np.array_equal(value, expected, equal_nan=True), (t, value, expected)
        value, expected = mine(np.array(points)), reference(np.array(points))
        assert value.dtype == expected.dtype
        assert np.array_equal(value, expected, equal_nan=True)


def test_beta_density_at_subnormal_times_is_taken_in_log_form():
    """``_beta_pdf`` (and ``stats.beta.pdf``) raise OverflowError at a
    subnormal t when alpha < 1; ``BetaLatency.pdf`` takes those points in log
    form and leaves every other point of the same array bit-identical to
    ``stats.beta``, t = 0 (inf) included."""
    mpmath = pytest.importorskip("mpmath")
    tiny = np.finfo(float).tiny
    points = np.array([-1.0, 0.0, 5e-324, 1e-310, tiny / 2, tiny, 1e-300, 0.5, 1.0, 1.5])
    subnormal = (points > 0.0) & (points < tiny)
    for alpha, beta in ((0.3, 0.3), (0.5, 1.5), (2.5, 0.7), (1, 1)):
        dist, ref = ct.BetaLatency(alpha, beta), stats.beta(alpha, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = dist.pdf(points)
        assert np.array_equal(values[~subnormal], ref.pdf(points[~subnormal]))
        with mpmath.workdps(30):
            for t, value in zip(points[subnormal], values[subnormal]):
                x = mpmath.mpf(float(t))
                exact = x ** (alpha - 1) * (1 - x) ** (beta - 1) / mpmath.beta(alpha, beta)
                assert value == pytest.approx(float(exact), rel=1e-12, abs=0.0), (alpha, t)
                assert dist.pdf(float(t)) == value
    assert ct.BetaLatency(0.3, 0.3).pdf(1e-310) == pytest.approx(1.664e216, rel=1e-3)


def _latencies():
    """Every preset's latency distribution, then the Beta pairs above."""
    found = {}
    for design, _ in ct.PRESETS.values():
        arms = (design.arm0, design.arm1) if isinstance(design, ct.TwoArmScenario) else (design,)
        found.update((arm.latency, None) for arm in arms)
    found.update((ct.BetaLatency(alpha, beta), None) for alpha, beta in BETA_PAIRS)
    return list(found)


def _stats_forms(dist):
    """Each latency method's ``scipy.stats`` form, and whether the method
    must equal it bit for bit: ``stats.beta`` for a Beta; for a truncated
    Weibull, ``stats.weibull_min`` renormalized over [0, t_b].  That Weibull's
    cdf, sf and ppf are its own closed forms, never ``scipy.stats``, so they
    only agree to rounding."""
    if isinstance(dist, ct.BetaLatency):
        ref = stats.beta(dist.alpha, dist.beta)
        return {"ppf": (ref.ppf, True), "cdf": (ref.cdf, True), "sf": (ref.sf, True),
                "pdf": (ref.pdf, True)}
    ref = stats.weibull_min(dist.shape, scale=dist.scale)
    mass = ref.cdf(dist.t_b)

    def pdf(t):
        t = np.asarray(t, dtype=float)
        out = np.where((t >= 0.0) & (t <= dist.t_b), ref.pdf(t) / dist._mass(), 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(t):
        return np.clip(ref.cdf(np.clip(t, 0.0, dist.t_b)) / mass, 0.0, 1.0)

    return {"ppf": (lambda q: np.minimum(ref.ppf(np.multiply(q, mass)), dist.t_b), False),
            "cdf": (cdf, False), "sf": (lambda t: 1.0 - cdf(t), False), "pdf": (pdf, True)}


@pytest.mark.parametrize("dist", _latencies(), ids=lambda dist: dist.label())
def test_latency_forms_equal_scipy_stats(dist):
    """Scalars and arrays at the support ends, outside the support, at +-inf
    and at NaN, plus 2 000 random points; the methods raise no warning there
    (the Weibull density at t = 0 with shape < 1 is inf)."""
    end = dist.support_end
    times = [-math.inf, -0.5 * end, -0.0, 0.0, 1e-300, 0.3 * end, end * (1.0 - 1e-16), end,
             1.5 * end, math.inf, math.nan]
    levels = [-math.inf, -0.1, 0.0, 1e-300, 0.25, 1.0 - 1e-16, 1.0, 1.1, math.inf, math.nan]
    uniforms = np.random.default_rng(3).random(2_000)
    for name, (reference, exact) in _stats_forms(dist).items():
        if name == "ppf":
            # outside [0, 1] the Weibull's own inverse is not scipy's
            grid = levels if exact else [q for q in levels if 0.0 <= q <= 1.0]
            dense = uniforms
        else:
            grid, dense = times, (1.2 * uniforms - 0.1) * end
        inputs = [*grid, np.array(grid), dense]
        method = getattr(dist, name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [method(x) for x in inputs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = [reference(x) for x in inputs]
        for x, value, want in zip(inputs, values, expected):
            if exact:
                assert type(value) is type(want), (name, x)
                assert np.asarray(value).dtype == np.asarray(want).dtype, (name, x)
                assert np.array_equal(value, want, equal_nan=True), (name, x, value, want)
            else:
                np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-15,
                                           equal_nan=True, err_msg=name)
    if isinstance(dist, ct.TruncatedWeibullLatency) and dist.shape < 1.0:
        assert dist.pdf(0.0) == math.inf


def test_draw_sample_no_cure_all_susceptible():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.0, 1.0, 500)
    sample = ct.draw_sample(scenario, 1)
    assert sample.n == 500
    assert np.all(np.isfinite(sample.times))


def test_draw_sample_deterministic():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.2, 1.0, 50)
    assert ct.draw_sample(scenario, 7) == ct.draw_sample(scenario, 7)
    assert ct.draw_sample(scenario, 7) != ct.draw_sample(scenario, 8)


def test_draw_sample_cured_fraction_converges():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.3, 50.0, 100_000)
    sample = ct.draw_sample(scenario, 3)
    # with censoring far beyond the support, plateaued subjects are the cured
    censored_beyond = np.mean((sample.status == 0) & (sample.times > 1.0))
    assert censored_beyond == pytest.approx(0.3, abs=0.006)


def test_draw_sample_censoring_rate_matches_caption():
    scenario, _ = ct.preset("table1-eta02")
    rate = ct.empirical_censoring_rate(scenario, 20_000, seed=2)
    assert rate == pytest.approx(0.401, abs=0.02)


def test_sufficient_follow_up_flags():
    table1, _ = ct.preset("table1-eta02")
    assert table1.support_end == 1.0 and table1.censor_end == 1.0
    assert table1.sufficient_follow_up
    table2, _ = ct.preset("table2-eta02")
    assert not table2.sufficient_follow_up
    weibull_long, _ = ct.preset("tableS1-eta02")
    assert weibull_long.support_end == 4.0 and weibull_long.censor_end == 5.0
    assert weibull_long.sufficient_follow_up


def test_preset_registry_complete():
    for name in ("table1-eta02", "table1-eta04", "table2-eta02", "table2-eta04",
                 "table3-eta02", "table3-eta04", "table4-eta02", "table4-eta02-04",
                 "tableS1-eta02", "tableS1-eta04", "tableS2-eta02", "tableS2-eta04",
                 "tableS4-eta02", "tableS4-eta04", "no-cure", "two-arm-demo"):
        scenario, method = ct.preset(name)
        assert method in ("tail", "extrapolate")
    assert isinstance(ct.preset("table3-eta02")[0], ct.TwoArmScenario)
    assert isinstance(ct.preset("no-cure")[0], ct.Scenario)
    with pytest.raises(ValueError):
        ct.preset("table9")


def test_scenario_round_trips_through_dict():
    for name in ("table1-eta02", "tableS1-eta04", "table3-eta02"):
        scenario, _ = ct.preset(name)
        again = ct.scenario_from_dict(scenario.to_dict())
        assert again == scenario


def test_two_arm_draw_labels_arms():
    scenario, _ = ct.preset("table3-eta02")
    sample = ct.draw_two_arm_sample(scenario, 4)
    assert sample.has_arms
    s0, s1 = sample.split_arms()
    assert s0.n == scenario.arm0.n
    assert s1.n == scenario.arm1.n


def test_run_experiment_smoke_single_time():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.2, 1.0, 40)
    rows = ct.run_experiment(scenario, runs=2, R=2, seed=0, times=[0.2])
    assert len(rows) == 2  # one time point plus the cure-rate row
    for row in rows:
        assert row.runs == 2 and row.R == 2
        assert math.isfinite(row.avg_bias)
        assert math.isfinite(row.sd_boot)
        assert 0.0 <= row.coverage <= 1.0
    assert rows[0].estimand == "latency_survival"
    assert rows[1].estimand == "cure_rate"
    assert math.isnan(rows[1].t)
    assert rows[1].truth == 0.2


@pytest.mark.parametrize("two_arm", [False, True])
def test_run_experiment_refuses_nan_times(two_arm):
    scenario = (ct.preset("table3-eta02")[0] if two_arm
                else ct.Scenario(ct.BetaLatency(1, 3), 0.2, 1.0, 40))
    with pytest.raises(ValueError, match="times must not hold NaN"):
        ct.run_experiment(scenario, runs=2, R=2, seed=0, times=[0.2, math.nan])


def test_run_experiment_levels_map_to_times():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.2, 1.0, 40)
    rows = ct.run_experiment(scenario, runs=2, R=2, seed=0, levels=(0.75, 0.25))
    assert rows[0].t == pytest.approx(1 - 0.75 ** (1 / 3), rel=1e-12)
    assert rows[0].truth == pytest.approx(0.75, rel=1e-12)


def test_run_experiment_two_arm_truths_from_quadrature():
    scenario, _ = ct.preset("table3-eta02")
    small = ct.TwoArmScenario(
        ct.Scenario(scenario.arm0.latency, scenario.arm0.eta, scenario.arm0.c_max, 30),
        ct.Scenario(scenario.arm1.latency, scenario.arm1.eta, scenario.arm1.c_max, 30),
    )
    rows = ct.run_experiment(small, runs=2, R=2, seed=1, times=[0.1, 0.5])
    assert [row.estimand for row in rows] == ["tau_susceptible"] * 2
    assert rows[0].truth == pytest.approx((1 - 0.9 ** 6) / 3, abs=1e-8)
    assert rows[1].truth == pytest.approx((1 - 0.5 ** 6) / 3, abs=1e-8)


def test_two_arm_point_is_the_bootstrap_row_of_ones(monkeypatch):
    # The run's point is ``tau_a_curve``; the bootstrap evaluates the same
    # kernel on the row of ones, and the two agree bit for bit.
    points = []

    def recording(*args, **kwargs):
        boot = ct.bootstrap_stats(*args, **kwargs)
        points.append(boot.point)
        return boot

    monkeypatch.setattr(simlab, "bootstrap_stats", recording)
    scenario, _ = ct.preset("table3-eta02")
    grid = np.round(np.arange(0.1, 1.01, 0.1), 10)
    for index in range(3):
        point, _ = simlab._run_two_arm(scenario, grid, 20, 7, index)
        assert point.tobytes() == points[-1].tobytes()


def _rows_identical(lhs, rhs):
    if len(lhs) != len(rhs):
        return False
    for a, b in zip(lhs, rhs):
        fields = ("estimand", "truth", "avg_bias", "sd_boot", "sd_emp",
                  "coverage", "ci_len", "runs", "R", "n_failed")
        if any(getattr(a, f) != getattr(b, f) for f in fields):
            return False
        if not (a.t == b.t or (math.isnan(a.t) and math.isnan(b.t))):
            return False
    return True


def test_failed_runs_are_counted_and_left_out_of_every_row():
    # Four subjects with a cure rate of 0.8: a draw without an event fails.
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.8, 1.0, 4)
    rows = ct.run_experiment(scenario, runs=30, R=20, seed=3, times=[0.3])
    grid = np.array([0.3])
    outcomes = [simlab._run_one_arm(scenario, grid, 20, 3, "tail", "auto",
                                    simlab.DEFAULT_B_GRID, 500, index) for index in range(30)]
    kept = [outcome for outcome in outcomes if outcome is not None]
    assert len(kept) == 12
    assert all(row.runs + row.n_failed == 30 and row.n_failed == 18 for row in rows)
    truths = [float(scenario.latency.sf(0.3)), 0.8]
    expected, _ = simlab._aggregate(kept, ["latency_survival", "cure_rate"],
                                    np.append(grid, math.nan), truths, len(kept), 20, 0.95)
    assert _rows_identical(rows, [dataclasses.replace(row, n_failed=18) for row in expected])


def test_every_run_failing_raises():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.999, 1.0, 2)
    with pytest.raises(ct.EstimationError, match="every simulation run failed"):
        ct.run_experiment(scenario, runs=30, R=20, seed=3, times=[0.3])


def test_run_experiment_serial_matches_parallel():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.2, 1.0, 30)
    serial = ct.run_experiment(scenario, runs=4, R=3, seed=9, times=[0.2, 0.4])
    parallel = ct.run_experiment(scenario, runs=4, R=3, seed=9, times=[0.2, 0.4],
                                 jobs=2)
    assert _rows_identical(serial, parallel)


@pytest.mark.parametrize("two_arm", [False, True])
@pytest.mark.parametrize("level", [0.0, 1.5, math.nan, 0.9999999999999999])
def test_run_experiment_checks_the_level_before_any_run(monkeypatch, two_arm, level):
    # 0.9999999999999999 lies in (0, 1), but its upper quantile rounds to 1.
    for runner in ("_run_one_arm", "_run_two_arm"):
        monkeypatch.setattr(simlab, runner, lambda *args: pytest.fail("a run started"))
    scenario = (ct.preset("table3-eta02")[0] if two_arm
                else ct.Scenario(ct.BetaLatency(1, 3), 0.2, 1.0, 30))
    with pytest.raises(ValueError, match=r"^level must lie in \(0, 1\), got "):
        ct.run_experiment(scenario, runs=2, R=2, seed=1, level=level)


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_experiment_rejects_jobs_below_one(jobs):
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.2, 1.0, 30)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        ct.run_experiment(scenario, runs=2, R=2, seed=1, jobs=jobs)


class _PoolStarted(Exception):
    pass


def test_run_experiment_caps_workers_at_the_cpus(monkeypatch):
    # The stub stands in for the pool, so no worker process is ever started.
    workers = []

    def recording(max_workers):
        workers.append(max_workers)
        raise _PoolStarted

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.2, 1.0, 30)
    monkeypatch.setattr(simlab.os, "cpu_count", lambda: 3)
    for jobs in (2, 3, 4, 100_000):
        with pytest.raises(_PoolStarted):
            ct.run_experiment(scenario, runs=2, R=2, seed=1, jobs=jobs)
    assert workers == [2, 3, 3, 3]
    # An unknown CPU count is taken as one: the runs stay in this process.
    monkeypatch.setattr(simlab.os, "cpu_count", lambda: None)
    assert len(ct.run_experiment(scenario, runs=2, R=2, seed=1, times=[0.2], jobs=4)) == 2
    assert workers == [2, 3, 3, 3]


def test_run_experiment_collect_points_shape():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.2, 1.0, 30)
    rows, points = ct.run_experiment(scenario, runs=3, R=2, seed=2, times=[0.2],
                                     collect_points=True)
    assert points.shape == (3, 2)
    assert np.all(points >= 0.0) and np.all(points <= 1.0)


def test_run_experiment_validates_arguments():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.2, 1.0, 30)
    with pytest.raises(ValueError):
        ct.run_experiment(scenario, runs=1, R=5, seed=0)
    with pytest.raises(ValueError):
        ct.run_experiment(scenario, runs=5, R=5, seed=0, eta_method="magic")
