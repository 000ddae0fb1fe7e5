import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import curetau as ct
from curetau.errors import EstimationError, UnstableStatisticError
from curetau.inference import CountStatistic, _one_arm_statistic
from curetau.km import COUNT_CHUNK_ELEMENTS, _sort_sample
from curetau.seeding import stream


def test_normal_interval_published_convention():
    low, high = ct.normal_interval(0.244, 0.0406, 0.95)
    assert low == pytest.approx(0.164, abs=1e-3)
    assert high == pytest.approx(0.323, abs=1e-3)
    p = ct.two_sided_p(0.244, 0.0406)
    assert 1.5e-9 <= p <= 2.5e-9


def test_normal_interval_degenerate_sd():
    assert ct.normal_interval(0.3, 0.0, 0.9) == (0.3, 0.3)


def test_normal_interval_symmetry_and_width():
    z = ct.z_quantile(0.975)
    low, high = ct.normal_interval(1.7, 0.2, 0.95)
    assert high - 1.7 == pytest.approx(1.7 - low, abs=1e-15)
    assert high - low == pytest.approx(2 * z * 0.2, abs=1e-12)
    narrow = ct.normal_interval(1.7, 0.2, 0.5)
    assert narrow[1] - narrow[0] < high - low


@pytest.mark.parametrize("level", [0.0, -0.5, 1.0, 1.5, math.nan, 0.9999999999999999])
def test_normal_interval_refuses_a_level_whose_quantile_leaves_0_1(level):
    # 0.9999999999999999 lies in (0, 1), but (1 + level) / 2 rounds to 1.
    with pytest.raises(ValueError, match=r"^level must lie in \(0, 1\), got "):
        ct.normal_interval(0.0, 1.0, level)
    low, high = ct.normal_interval(0.0, 1.0, np.nextafter(0.9999999999999999, 0.0))
    assert math.isfinite(high) and low == -high


def test_z_quantile_accuracy():
    assert ct.z_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert ct.z_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ct.z_quantile(1.0)


def test_bootstrap_constant_statistic(d1):
    result = ct.bootstrap_stats(d1, lambda s: 0.5, R=50, seed=1)
    assert result.sd == 0.0
    assert result.point == 0.5
    assert result.n_missing == 0


def test_bootstrap_deterministic(d1):
    stat = lambda s: float(s.times.mean())
    first = ct.bootstrap_stats(d1, stat, R=64, seed=5)
    second = ct.bootstrap_stats(d1, stat, R=64, seed=5)
    assert np.array_equal(first.replicate_values, second.replicate_values)
    other = ct.bootstrap_stats(d1, stat, R=64, seed=6)
    assert not np.array_equal(first.replicate_values, other.replicate_values)


def test_bootstrap_eta_regression_fixture(d1):
    stat = lambda s: ct.eta_tail_from_sample(s).value
    result = ct.bootstrap_stats(d1, stat, R=2000, seed=11)
    assert result.sd == pytest.approx(0.22321976650538633, abs=1e-12)
    assert result.n_missing == 166
    assert 0.0 < result.sd < 1.0


def test_bootstrap_missing_replicates_are_dropped():
    sample = ct.Sample([1, 2, 3, 4, 5, 6], [1, 0, 0, 0, 0, 0])
    stat = lambda s: ct.eta_tail_from_sample(s).value
    result = ct.bootstrap_stats(sample, stat, R=200, seed=3)
    # resamples that lose the single event leave the statistic undefined
    assert 0 < result.n_missing < 200
    defined = result.replicate_values[~np.isnan(result.replicate_values)]
    assert defined.size == result.n_defined
    assert np.isfinite(result.sd)


def test_bootstrap_nonfinite_entry_marks_replicate_missing(d1):
    # a NaN outside column 0 must drop the whole replicate, not poison the SD
    def stat(sample):
        return np.array([1.0, np.nan if sample.times.max() < 5.0 else 2.0])

    result = ct.bootstrap_stats(d1, stat, R=200, seed=4)
    # the statistic is undefined on the resamples that miss subject 4 (time 5)
    undefined = sum(4 not in stream(4, r).integers(0, 5, size=5) for r in range(200))
    assert 0 < undefined < 100
    assert result.n_missing == undefined
    assert np.all(np.isnan(result.replicate_values).all(axis=1)
                  == np.isnan(result.replicate_values).any(axis=1))
    assert np.isnan(result.replicate_values[:, 0]).sum() == undefined
    assert np.array_equal(result.sd, [0.0, 0.0])


def test_bootstrap_unstable_statistic_raises(d1):
    calls = [0]

    def defined_only_on_the_original(sample):
        calls[0] += 1
        if calls[0] == 1:
            return 1.0
        raise ct.NoEventsError("synthetic failure")

    with pytest.raises(UnstableStatisticError):
        ct.bootstrap_stats(d1, defined_only_on_the_original, R=20, seed=0)


@pytest.mark.parametrize("undefined", [np.nan, np.inf, [1.0, np.nan]],
                         ids=["nan", "inf", "vector"])
def test_looped_bootstrap_with_an_undefined_point_raises(d1, undefined):
    # As the counted form does: no point is reported as NaN with an SD of 0.
    def stat(sample):
        return np.array(undefined) if sample is d1 else np.ones(np.size(undefined))

    with pytest.raises(EstimationError, match="^statistic undefined on the original sample$"):
        ct.bootstrap_stats(d1, stat, R=10)


def test_bootstrap_vector_statistic(d1):
    grid = np.array([1.0, 3.0])

    def stat(sample):
        return ct.km_fit(sample, "event")(grid)

    result = ct.bootstrap_stats(d1, stat, R=40, seed=2)
    assert result.replicate_values.shape == (40, 2)
    assert result.sd.shape == (2,)
    assert np.all(result.sd >= 0)


def test_bootstrap_two_samples_resample_within_arm(d1):
    other = ct.Sample([10.0, 11.0, 12.0], [1, 1, 0])

    def stat(s0, s1):
        # arm resampling never mixes subjects across arms
        assert s0.times.max() <= 5.0
        assert s1.times.min() >= 10.0
        return float(s1.times.mean() - s0.times.mean())

    result = ct.bootstrap_stats((d1, other), stat, R=30, seed=8)
    assert result.R == 30


def test_bootstrap_requires_two_replicates(d1):
    with pytest.raises(ValueError):
        ct.bootstrap_stats(d1, lambda s: 1.0, R=1, seed=0)


def test_ci_and_p_value_are_consistent():
    rng = np.random.default_rng(4)
    for _ in range(40):
        point = float(rng.normal())
        sd = float(rng.uniform(0.01, 2.0))
        level = float(rng.uniform(0.5, 0.99))
        low, high = ct.normal_interval(point, sd, level)
        p = ct.two_sided_p(point, sd)
        excludes_zero = low > 0 or high < 0
        assert excludes_zero == (p < 1 - level) or abs(p - (1 - level)) < 1e-12


def test_cure_difference_null_behavior():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.25, 1.0, 90)
    diffs, ps = [], []
    for run in range(40):
        s0 = ct.draw_sample(scenario, (71, run, 0))
        s1 = ct.draw_sample(scenario, (71, run, 1))
        res = ct.cure_difference_test(s0, s1, R=120, seed=(71, run, 2))
        diffs.append(res.difference)
        ps.append(res.p_value)
    assert abs(np.mean(diffs)) < 0.05
    # p-values roughly uniform: spread across the unit interval
    assert np.mean(np.array(ps) < 0.5) == pytest.approx(0.5, abs=0.25)
    assert min(ps) < 0.2 and max(ps) > 0.5


def test_cure_difference_power_fixture():
    scn0 = ct.Scenario(ct.BetaLatency(1, 3), 0.2, 1.0, 200)
    scn1 = ct.Scenario(ct.BetaLatency(1, 3), 0.4, 1.0, 200)
    reject = 0
    for run in range(200):
        s0 = ct.draw_sample(scn0, (99, run, 0))
        s1 = ct.draw_sample(scn1, (99, run, 1))
        res = ct.cure_difference_test(s0, s1, R=200, seed=(99, run, 2))
        reject += res.p_value < 0.05
    rate = reject / 200
    assert rate > 0.5
    assert rate == pytest.approx(0.835, abs=1e-12)  # frozen observed rate


def test_cure_difference_extrapolated_requires_b(d1):
    with pytest.raises(ValueError):
        ct.cure_difference_test(d1, d1, method="extrapolated", R=10, seed=0)


@pytest.mark.parametrize("method", ["tail", "extrapolated"])
def test_cure_difference_rejects_an_event_at_time_0(method):
    # km_fit's error on either arm; a censoring at time 0 is still accepted.
    zero = ct.Sample([0, 1, 2, 3, 4], [1, 1, 0, 1, 0])
    other = ct.Sample([1, 2, 3, 4, 5], [1, 0, 1, 0, 0])
    for arms in ((zero, other), (other, zero)):
        with pytest.raises(ValueError, match="^an event at time 0: the event curve cannot jump"):
            ct.cure_difference_test(*arms, method=method, b0=0.5, b1=0.5, R=20, seed=1)
    censored = ct.Sample([0, 1, 2, 3, 4], [0, 1, 0, 1, 0])
    assert np.isfinite(ct.cure_difference_test(censored, other, R=20, seed=1).difference)


def test_test_result_fields():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.2, 1.0, 80)
    s0 = ct.draw_sample(scenario, (13, 0))
    s1 = ct.draw_sample(scenario, (13, 1))
    res = ct.cure_difference_test(s0, s1, R=100, seed=2, level=0.9)
    assert res.ci[0] <= res.difference <= res.ci[1]
    assert 0.0 <= res.p_value <= 1.0
    assert res.method == "tail"


@settings(max_examples=60, deadline=None)
@given(R=st.integers(2, 400), offset=st.sampled_from([None, -1, 0, 1, 2]),
       with_missing=st.booleans(), counted=st.booleans(), seed=st.integers(0, 1000))
def test_bootstrap_sd_is_numpys_sd_of_the_defined_rows(R, offset, with_missing, counted, seed):
    # The SD is read in column blocks; widths around the block size (and a
    # lone column) are where a block could sum in another order than the
    # whole matrix does.
    block = max(2, COUNT_CHUNK_ELEMENTS // R)
    width = 1 if offset is None else block + offset
    sample = ct.Sample(np.arange(1.0, 9.0), [1, 0, 1, 1, 0, 1, 0, 1])
    weights = np.random.default_rng(seed).normal(size=(2 * sample.n, width))
    # A replicate without the last two subjects is missing: about 1 in 10.
    if counted:
        def evaluate(cells):
            values = cells @ weights
            if with_missing:
                values[cells[:, 12] + cells[:, 15] == 0] = np.nan
            return values

        statistic = CountStatistic(evaluate, (_sort_sample(sample),))
    else:
        def statistic(resample):
            if with_missing and resample.times.max() < 7.0:
                return np.full(width, np.nan)
            return np.sort(resample.times) @ weights[:sample.n]
    try:
        result = ct.bootstrap_stats(sample, statistic, R=R, seed=seed)
    except UnstableStatisticError:
        assume(False)
    values = result.replicate_values
    defined = ~np.isnan(values).any(axis=1)
    assert result.n_missing == R - defined.sum()
    assert result.sd.tobytes() == np.std(values[defined], axis=0, ddof=1).tobytes()


def test_bootstrap_sd_needs_no_copy_of_the_replicate_matrix():
    # Every event time of a 2 000-subject draw: a (200 x 2 437) matrix of
    # 3.7 MB, and chunk-sized temporaries of about 1.2 MB.  Taking the SD of
    # a copy of the defined rows peaked at 11.3 MB.
    design, _ = ct.preset("table1-eta02")
    sample = ct.draw_sample(ct.Scenario(design.latency, design.eta, design.c_max, 2000), 1)
    statistic = _one_arm_statistic(sample, np.concatenate(([0.0], ct.km_fit(sample).x)))
    tracemalloc.start()
    try:
        result = ct.bootstrap_stats(sample, statistic, R=200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * result.replicate_values.nbytes + 2 ** 20
