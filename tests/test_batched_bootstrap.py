"""The count-weight bootstrap against the looped bootstrap it replaces.

``select_b``, the one-arm statistic (CLI ``fit`` and the Monte Carlo one-arm
run) and ``cure_difference_test`` evaluate their replicates as rows of
subject counts.  Each must reproduce the loop over resampled ``Sample``
objects bit for bit: the same values with the same NaN pattern, the same
number of missing replicates and the same failures.  The two-arm tau
statistic (CLI ``compare`` and the Monte Carlo two-arm run) weighs the c
subjects drawn at one time as one term where the loop adds c terms, so it
must match the loop to within ``TAU_TOLERANCE`` with the same NaN pattern,
and swapping its arms must negate it exactly.  The rows of cell counts
themselves, drawn in bulk by ``km._count_chunks``, must equal the cell counts
of the resamples the loop draws from ``stream(seed, r)``.  The loop forms
live here as the reference implementations (the looped tau processes in
``tau_oracle``, since ``tau_curve`` and ``tau_a_curve`` are the kernel's row
of ones), as does the CLI's cure-rate rule that ``resolve_cure_rate``
replaced.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curetau as ct
import tau_oracle
from curetau.cure import DEFAULT_B_GRID
from curetau.errors import (DegenerateWindowError, NoEventsError, SelectionFailedError,
                            UnstableStatisticError)
from curetau.cure import _cure_rate, _cure_rate_rows
from curetau.inference import CountStatistic, _one_arm_statistic, _two_arm_statistic
from curetau import km
from curetau import seeding
from curetau.km import COUNT_CHUNK_ELEMENTS, _count_chunks, _sort_sample
from curetau.seeding import _pcg64_states, seed_tuple, stream
from curetau.tau import _orientation
from conftest import tied_samples

GRID_TIMES = np.array([0.1, 0.3, 0.5, 0.75, 1.0, 2.0])
TAU_GRID = np.round(np.arange(0.1, 1.01, 0.1), 10)
# Absolute: the loop and the count rows add the same terms in another order.
TAU_TOLERANCE = 1e-13


def looped_one_arm_statistic(grid, eta_method, b_fixed):
    """Statistic: event survival and latency survival at the grid times, then
    the cure rate (the CLI ``fit`` statistic before it became count rows)."""

    def statistic(sample):
        curve = ct.km_fit(sample, "event")
        table = ct.risk_table(sample)
        if eta_method == "tail":
            eta = ct.eta_tail(curve)
        else:
            eta = ct.eta_extrapolated(curve, b_fixed, table.last_event_time)
        latency, _ = ct.location_scale_curve(
            curve, eta.value, clamp=eta.method == "extrapolated"
        )
        return np.concatenate((curve(grid), latency(grid), [eta.value]))

    return statistic


def looped_tau_statistic(grid, b0=None, b1=None, overall=False):
    """Statistic: the susceptible tau process at the grid times, preceded by
    the overall one when ``overall`` is set; each arm's cure rate is its tail
    value, or with that arm's ``b`` its extrapolated value."""

    def statistic(sample0, sample1):
        tau_a = tau_oracle.tau_a_curve(
            sample0, sample1, _cure_rate(ct.km_fit(sample0, "event"), b0),
            _cure_rate(ct.km_fit(sample1, "event"), b1), grid=grid).values
        if not overall:
            return tau_a
        return np.concatenate((tau_oracle.tau_curve(sample0, sample1, grid=grid).values, tau_a))

    return statistic


def cli_resolve_eta(sample, method, b_setting, seed, boot):
    """The CLI's cure-rate rule as it stood before ``resolve_cure_rate``
    (the ``--b`` parsing, now done before the call, left out)."""
    curve = ct.km_fit(sample, "event")
    table = ct.risk_table(sample)
    tail = ct.eta_tail(curve)
    if method == "tail":
        return tail, None, None
    try:
        if b_setting == "auto":
            b_star, _ = ct.select_b(sample, replicates=boot, seed=seed)
        else:
            b_star = float(b_setting)
        est = ct.eta_extrapolated(curve, b_star, table.last_event_time)
    except (DegenerateWindowError, SelectionFailedError) as exc:
        note = f"extrapolation fell back to the tail estimate: {exc}"
        return tail, None, note
    if est.value >= 1.0:
        note = ("extrapolation fell back to the tail estimate: "
                "corrected cure rate reached 1")
        return tail, None, note
    return est, b_star, None


def looped_cure_difference(b0, b1):
    """Statistic: cure rate of arm 1 minus arm 0, tail or extrapolated."""

    def value(sample, b):
        if b is None:
            return ct.eta_tail_from_sample(sample).value
        curve = ct.km_fit(sample, "event")
        return ct.eta_extrapolated(curve, b, ct.risk_table(sample).last_event_time).value

    return lambda s0, s1: value(s1, b1) - value(s0, b0)


def looped_select_b(sample, grid, replicates, seed):
    """``select_b`` with one ``Sample``, ``km_fit`` and ``risk_table`` per replicate."""
    grid = sorted(float(b) for b in grid)
    curve = ct.km_fit(sample, "event")
    t_k = ct.risk_table(sample).last_event_time
    originals, reasons = {}, {}
    for b in grid:
        try:
            estimate = ct.eta_extrapolated(curve, b, t_k)
        except DegenerateWindowError as exc:
            reasons[b] = str(exc)
            continue
        if estimate.b_gamma_check <= 1.0:
            reasons[b] = "window ratio at or below 1: tail mass is not decaying"
            continue
        if not 0.0 < estimate.raw_value < 1.0:
            reasons[b] = "corrected cure rate saturates outside (0, 1)"
            continue
        originals[b] = estimate.value
    live = [b for b in grid if b in originals]
    if not live:
        raise ct.SelectionFailedError("every grid point is degenerate")

    boot_values = np.full((replicates, len(live)), np.nan)
    for r in range(replicates):
        resample = sample.resampled(stream(seed, r).integers(0, sample.n, size=sample.n))
        if resample.n_events == 0:
            continue
        boot_curve = ct.km_fit(resample, "event")
        boot_t_k = ct.risk_table(resample).last_event_time
        for j, b in enumerate(live):
            try:
                boot_values[r, j] = ct.eta_extrapolated(boot_curve, b, boot_t_k).value
            except DegenerateWindowError:
                pass

    diagnostics, best = [], None
    for b in grid:
        if b not in originals:
            diagnostics.append(
                ct.BGridPoint(b, np.nan, np.nan, np.nan, replicates, True, reasons[b]))
            continue
        column = boot_values[:, live.index(b)]
        defined = column[~np.isnan(column)]
        if defined.size == 0:
            diagnostics.append(ct.BGridPoint(b, originals[b], np.nan, np.nan, replicates,
                                             True, "estimate undefined on every resample"))
            continue
        boot_mean = float(defined.mean())
        criterion = abs(originals[b] - boot_mean)
        diagnostics.append(ct.BGridPoint(b, originals[b], boot_mean, criterion,
                                         replicates - defined.size, False))
        if best is None or criterion <= best[0]:
            best = (criterion, b)
    if best is None:
        raise ct.SelectionFailedError("no grid point has a defined bootstrap mean")
    return best[1], diagnostics


def usable(sample, b):
    try:
        curve = ct.km_fit(sample, "event")
        return ct.eta_extrapolated(curve, b, ct.risk_table(sample).last_event_time).value < 1.0
    except ct.EstimationError:
        return False


def prefer_usable(sample, b):
    """Like the Monte Carlo run, prefer a b whose estimate is defined and
    below 1 on the original sample, starting from ``b``."""
    return next((c for c in sorted(DEFAULT_B_GRID, key=lambda c: (c < b, c))
                 if usable(sample, c)), b)


def same(a, b):
    """Exact equality that treats NaN as equal to NaN in the same place."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and same(dataclasses.astuple(a), dataclasses.astuple(b))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, (float, np.ndarray, np.floating)):
        return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)
    return a == b


def outcome(call):
    """The result, or the failure: a bootstrap too unstable to report, an
    undefined point estimate, or any other estimation error by class."""
    try:
        return call()
    except UnstableStatisticError:
        return "unstable"
    except ct.EstimationError as exc:
        return type(exc)


def assert_same_bootstrap(looped, batched):
    if isinstance(looped, ct.BootstrapResult):
        assert isinstance(batched, ct.BootstrapResult)
        assert batched.n_missing == looped.n_missing
        assert same(batched.replicate_values, looped.replicate_values)
        assert same(batched.point, looped.point)
        assert same(batched.sd, looped.sd)
    elif looped == "unstable":
        assert batched == "unstable"
    else:
        # The batched point estimate reports an undefined original sample
        # with the base class; the loop names the particular reason.
        assert isinstance(batched, type) and issubclass(batched, ct.EstimationError)
        assert issubclass(looped, ct.EstimationError)


def assert_close_bootstrap(looped, batched):
    """Within ``TAU_TOLERANCE``, with the same missing rows and failures."""
    if not isinstance(looped, ct.BootstrapResult):
        assert_same_bootstrap(looped, batched)
        return
    assert isinstance(batched, ct.BootstrapResult)
    assert batched.n_missing == looped.n_missing
    for got, want in ((batched.replicate_values, looped.replicate_values),
                      (batched.point, looped.point), (batched.sd, looped.sd)):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want), initial=0.0) <= TAU_TOLERANCE


def assert_tau_matches_loop(arm0, arm1, grid, b0, b1, overall, R, seed):
    looped = outcome(lambda: ct.bootstrap_stats(
        (arm0, arm1), looped_tau_statistic(grid, b0, b1, overall), R=R, seed=seed))
    batched = outcome(lambda: ct.bootstrap_stats(
        (arm0, arm1), _two_arm_statistic(arm0, arm1, grid, b0, b1, overall), R=R, seed=seed))
    assert_close_bootstrap(looped, batched)
    return batched


@st.composite
def small_samples(draw, min_n=2, max_n=10):
    """Arms of 2-10 subjects on a coarse time grid (so ties are common),
    some ending in a run of censored subjects past every event."""
    n = draw(st.integers(min_n, max_n))
    times = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    status = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    tail = draw(st.integers(0, n // 2))
    for i in range(n - tail, n):
        times[i], status[i] = 9 + draw(st.integers(0, 1)), 0
    return ct.Sample(np.asarray(times) / 4.0, status)


@st.composite
def drawn_samples(draw):
    """Short-follow-up draws of 20-400 subjects, sometimes rounded to ties;
    above 81 subjects a chunk holds fewer than 200 count rows."""
    n = draw(st.integers(20, 400))
    c_max = draw(st.sampled_from([0.6, 0.8, 1.2]))
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.2, c_max, n)
    sample = ct.draw_sample(scenario, draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        sample = ct.Sample(np.round(sample.times, 2) + 0.01, sample.status)
    return sample


any_sample = st.one_of(small_samples(), drawn_samples())


@settings(max_examples=100)
@given(sample=st.one_of(small_samples(), drawn_samples(), drawn_samples()),
       replicates=st.integers(1, 200), seed=st.integers(0, 1000),
       grid=st.sampled_from([DEFAULT_B_GRID, (0.5,), (0.3, 0.6, 0.9)]))
def test_select_b_matches_loop(sample, replicates, seed, grid):
    looped = outcome(lambda: looped_select_b(sample, grid, replicates, seed))
    batched = outcome(lambda: ct.select_b(sample, grid, replicates, seed))
    if isinstance(looped, type) or looped == "unstable":
        assert batched == looped
    else:
        assert batched[0] == looped[0]
        assert same(batched[1], looped[1])


def test_a_point_undefined_on_every_resample_is_skipped_as_the_loop_skips_it():
    sample = ct.Sample([3.1, 2.5, 3.8, 3.8, 2.8, 3.1, 2.9, 4.1], [1, 1, 0, 1, 1, 1, 1, 0])
    batched = ct.select_b(sample, replicates=1, seed=808)
    assert same(batched, looped_select_b(sample, DEFAULT_B_GRID, 1, 808))
    point = next(point for point in batched[1] if point.b == 0.85)
    assert point.skipped and point.reason == "estimate undefined on every resample"
    curve = ct.km_fit(sample, "event")
    assert point.eta_check == ct.eta_extrapolated(
        curve, 0.85, ct.risk_table(sample).last_event_time).value
    assert point.n_missing == 1


def test_no_defined_bootstrap_mean_fails_as_the_loop_fails():
    sample = ct.Sample([2.3, 3.8, 3.1, 0.5, 3.3, 0.9], [1, 0, 0, 1, 0, 1])
    for select in (ct.select_b, functools.partial(looped_select_b, grid=DEFAULT_B_GRID)):
        with pytest.raises(SelectionFailedError,
                           match="no grid point has a defined bootstrap mean"):
            select(sample, replicates=1, seed=1813)


@settings(max_examples=100)
@given(sample=any_sample, seed=st.integers(0, 1000), R=st.integers(1, 100),
       grid=st.sampled_from([DEFAULT_B_GRID, (0.3, 0.6, 0.9)]))
def test_cure_rates_for_a_grid_are_its_columns(sample, seed, R, grid):
    summary = _sort_sample(sample)
    cells = next(_count_chunks((summary,), seed, R))[1][0]
    # And one row with every drawn subject censored: it has no events.
    censored = np.zeros_like(cells[:1])
    censored[0, 0::2] = cells[0, 0::2] + cells[0, 1::2]
    km_rows = km._km_rows(summary, np.concatenate((summary.ones(), cells, censored)))
    columns = _cure_rate_rows(km_rows, grid)
    assert columns.shape == (cells.shape[0] + 2, len(grid))
    assert np.isnan(columns[-1]).all()
    for j, b in enumerate(grid):
        assert columns[:, j].tobytes() == _cure_rate_rows(km_rows, b).tobytes()


@pytest.mark.parametrize("sample, grid, error, message", [
    # km_fit's error: the event curve would jump at time 0.
    (ct.Sample([0.0, 0.0, 1.0, 2.0], [1, 1, 0, 0]), DEFAULT_B_GRID, ValueError,
     "an event at time 0: the event curve cannot jump at time 0"),
    (ct.Sample([0.0, 1.0, 2.0], [1, 1, 0]), (0.0, 0.5), ValueError,
     "an event at time 0: the event curve cannot jump at time 0"),
    (ct.Sample([1.0, 2.0, 3.0], [0, 0, 0]), (0.0, 0.5), NoEventsError,
     "no events: the adjusted risk table is undefined"),
    # The first bad b in sorted order.
    (ct.Sample([1.0, 2.0, 3.0], [1, 1, 0]), (0.5, 0.0), ValueError,
     "b must lie in (0, 1), got 0.0"),
    (ct.Sample([1.0, 2.0, 3.0], [1, 1, 0]), (1.0, 0.5, 0.9), ValueError,
     "b must lie in (0, 1), got 1.0"),
    (ct.Sample([1.0, 2.0, 3.0], [1, 1, 0]), (1.0, 0.2, 0.0), ValueError,
     "b must lie in (0, 1), got 0.0"),
])
def test_select_b_raises_the_scalar_paths_errors(sample, grid, error, message):
    with pytest.raises(error) as info:
        ct.select_b(sample, grid, replicates=20, seed=1)
    assert type(info.value) is error and str(info.value) == message


@settings(max_examples=80)
@given(sample=any_sample, R=st.integers(2, 200), seed=st.integers(0, 1000),
       b=st.one_of(st.none(), st.sampled_from(DEFAULT_B_GRID)), event_grid=st.booleans())
def test_one_arm_bootstrap_matches_loop(sample, R, seed, b, event_grid):
    # CLI ``fit`` reads both curves at 0 and at every event time; the Monte
    # Carlo run reads them at fixed times.
    grid = np.concatenate(([0.0], ct.km_fit(sample, "event").x)) if event_grid else GRID_TIMES
    if b is not None:
        b = prefer_usable(sample, b)
    looped = outcome(lambda: ct.bootstrap_stats(
        sample, looped_one_arm_statistic(grid, "tail" if b is None else "extrapolate", b),
        R=R, seed=seed))
    batched = outcome(lambda: ct.bootstrap_stats(
        sample, _one_arm_statistic(sample, grid, b), R=R, seed=seed))
    assert_same_bootstrap(looped, batched)


@settings(max_examples=60)
@given(arm0=any_sample, arm1=any_sample, R=st.integers(2, 200), seed=st.integers(0, 1000),
       b=st.one_of(st.none(), st.tuples(st.sampled_from(DEFAULT_B_GRID),
                                        st.sampled_from(DEFAULT_B_GRID))))
def test_cure_difference_matches_loop(arm0, arm1, R, seed, b):
    b0, b1 = (None, None) if b is None else b
    looped = outcome(lambda: ct.bootstrap_stats(
        (arm0, arm1), looped_cure_difference(b0, b1), R=R, seed=seed))
    batched = outcome(lambda: ct.cure_difference_test(
        arm0, arm1, method="tail" if b is None else "extrapolated", b0=b0, b1=b1,
        R=R, seed=seed))
    if isinstance(looped, ct.BootstrapResult):
        assert isinstance(batched, ct.TestResult)
        assert batched.n_missing == looped.n_missing
        assert same((batched.difference, batched.sd), (looped.point, looped.sd))
    else:
        assert_same_bootstrap(looped, batched)


@settings(max_examples=200)
@given(arm0=tied_samples(), arm1=tied_samples(), twin=st.booleans(), R=st.integers(2, 60),
       seed=st.integers(0, 1000), overall=st.booleans(), default_grid=st.booleans(),
       b=st.one_of(st.none(), st.tuples(st.sampled_from(DEFAULT_B_GRID),
                                        st.sampled_from(DEFAULT_B_GRID))))
def test_two_arm_tau_matches_loop(arm0, arm1, twin, R, seed, overall, default_grid, b):
    if twin:
        arm1 = arm0
    b0, b1 = (None, None) if b is None else map(prefer_usable, (arm0, arm1), b)
    # CLI ``compare`` reads the processes on the overall process's own grid.
    grid = ct.tau_curve(arm0, arm1).grid if default_grid else np.array([1, 2.5, 3, 4, 6.0])
    assert_tau_matches_loop(arm0, arm1, grid, b0, b1, overall, R, seed)

    try:
        forward = _two_arm_statistic(arm0, arm1, grid, b0, b1, overall)
        backward = _two_arm_statistic(arm1, arm0, grid, b1, b0, overall)
    except ct.EstimationError:
        return
    ones = tuple(summary.ones() for summary in forward.summaries)
    # Identical arms give exactly 0 on the original samples, but each drawn
    # pair its own value, which a swap need not negate.
    chunks = [ones]
    if _orientation(arm0, arm1) != 0:
        chunks.append(next(_count_chunks(forward.summaries, seed, R))[1])
    for cells0, cells1 in chunks:
        assert np.array_equal(backward.evaluate(cells1, cells0),
                              -forward.evaluate(cells0, cells1), equal_nan=True)


def test_two_arm_tau_matches_loop_on_drawn_arms():
    table3, _ = ct.preset("table3-eta02")
    short, _ = ct.preset("table2-eta02")
    for seed in range(2):
        arm0, arm1 = ct.draw_two_arm_sample(table3, seed).split_arms()
        cases = [(arm0, arm1, TAU_GRID, None, None, False, 100),
                 (arm0, arm1, ct.tau_curve(arm0, arm1).grid, None, None, True, 30)]
        # Short follow-up, each arm with its own fixed b.
        arm0, arm1 = (ct.draw_sample(short, (seed, label)) for label in (0, 1))
        b0, b1 = prefer_usable(arm0, 0.5), prefer_usable(arm1, 0.7)
        cases += [(arm0, arm1, TAU_GRID, b0, b1, False, 60),
                  (arm0, arm1, ct.tau_curve(arm0, arm1).grid, b0, b1, True, 30)]
        for arm0, arm1, grid, b0, b1, overall, R in cases:
            batched = assert_tau_matches_loop(arm0, arm1, grid, b0, b1, overall, R, seed)
            assert isinstance(batched, ct.BootstrapResult)


def test_event_free_resamples_are_missing_in_both_forms():
    sample = ct.Sample([0.5, 1.0, 1.0, 2.0, 3.0, 3.0], [1, 0, 0, 0, 0, 0])
    looped = ct.bootstrap_stats(sample, looped_one_arm_statistic(GRID_TIMES, "tail", None),
                                R=40, seed=3)
    batched = ct.bootstrap_stats(sample, _one_arm_statistic(sample, GRID_TIMES, None),
                                 R=40, seed=3)
    assert 0 < looped.n_missing < 20
    assert_same_bootstrap(looped, batched)


def test_large_arms_with_a_partial_last_chunk():
    n = 5000
    rows = COUNT_CHUNK_ELEMENTS // n
    R = 2 * rows + 1
    assert R % rows != 0
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.2, 0.8, n)
    arm0 = ct.draw_sample(scenario, 11)
    arm1 = ct.Sample(np.round(ct.draw_sample(scenario, 12).times, 3) + 0.001,
                     ct.draw_sample(scenario, 12).status)

    looped_b = looped_select_b(arm0, DEFAULT_B_GRID, R, 5)
    batched_b = ct.select_b(arm0, DEFAULT_B_GRID, R, 5)
    assert batched_b[0] == looped_b[0]
    assert same(batched_b[1], looped_b[1])

    for b in (None, batched_b[0]):
        method = "tail" if b is None else "extrapolate"
        for sample in (arm0, arm1):
            for grid in (GRID_TIMES, np.concatenate(([0.0], ct.km_fit(sample, "event").x))):
                assert_same_bootstrap(
                    ct.bootstrap_stats(sample, looped_one_arm_statistic(grid, method, b),
                                       R=R, seed=6),
                    ct.bootstrap_stats(sample, _one_arm_statistic(sample, grid, b),
                                       R=R, seed=6))
        looped = ct.bootstrap_stats((arm0, arm1), looped_cure_difference(b, b), R=R, seed=7)
        batched = ct.cure_difference_test(
            arm0, arm1, method="tail" if b is None else "extrapolated", b0=b, b1=b,
            R=R, seed=7)
        assert batched.n_missing == looped.n_missing
        assert same((batched.difference, batched.sd), (looped.point, looped.sd))
        tau = assert_tau_matches_loop(arm0, arm1, GRID_TIMES, b, b, False, R, 8)
        assert isinstance(tau, ct.BootstrapResult)
    tau = assert_tau_matches_loop(arm0, arm1, ct.tau_curve(arm0, arm1).grid, None, None,
                                  True, R, 9)
    assert isinstance(tau, ct.BootstrapResult)


def first_chunk_cases():
    """One-arm, two-arm tau (with and without the overall process) and
    cure-difference statistics on two drawn arms of 200, or with a
    one-subject arm 0."""
    table3, _ = ct.preset("table3-eta02")
    drawn = ct.draw_two_arm_sample(table3, 4).split_arms()
    for arms in (drawn, (ct.Sample([0.4], [1]), drawn[1])):
        summaries = tuple(map(_sort_sample, arms))

        def difference(cells0, cells1, summaries=summaries):
            return (_cure_rate_rows(km._km_rows(summaries[1], cells1))
                    - _cure_rate_rows(km._km_rows(summaries[0], cells0)))

        yield arms[:1], _one_arm_statistic(arms[0], TAU_GRID)
        yield arms, _two_arm_statistic(*arms, TAU_GRID)
        yield arms, _two_arm_statistic(*arms, TAU_GRID, overall=True)
        yield arms, CountStatistic(difference, summaries)


# A chunk holds this many replicates of an arm of 200.
CHUNK = COUNT_CHUNK_ELEMENTS // 200


@pytest.mark.parametrize("R", [2, CHUNK, CHUNK + 1])
def test_the_point_is_the_row_of_ones_in_the_first_chunk(R):
    for samples, statistic in first_chunk_cases():
        result = ct.bootstrap_stats(samples, statistic, R=R, seed=5)
        point = np.asarray(statistic.evaluate(
            *(summary.ones() for summary in statistic.summaries)), dtype=float)[0]
        assert same(result.point, point)
        assert isinstance(result.point, float if point.ndim == 0 else np.ndarray)
        # Every replicate is still the row its chunk draws.
        rows = np.concatenate([
            np.asarray(statistic.evaluate(*cells), dtype=float).reshape(len(cells[0]), -1)
            for _, cells in _count_chunks(statistic.summaries, seed_tuple(5), R)])
        rows[~np.isfinite(rows).all(axis=1)] = np.nan
        assert same(result.replicate_values, rows if point.ndim else rows[:, 0])


def test_an_undefined_point_raises_from_the_first_chunk():
    no_events = ct.Sample([1.0, 2.0, 3.0], [0, 0, 0])
    with pytest.raises(ct.EstimationError,
                       match="^statistic undefined on the original sample$"):
        ct.bootstrap_stats(no_events, _one_arm_statistic(no_events, TAU_GRID), R=2)


def looped_counts(summaries, seed, R):
    """Cell-count rows drawn one replicate at a time: arm 0, then arm 1, from
    ``stream(seed, r)``, as the looped bootstrap resamples."""
    rows = [np.empty((R, 2 * summary.distinct.size), np.int64) for summary in summaries]
    for r in range(R):
        rng = stream(seed, r)
        for arm, summary in zip(rows, summaries):
            n = summary.cell.size
            arm[r] = np.bincount(summary.cell[rng.integers(0, n, size=n)],
                                 minlength=arm.shape[1])
    return rows


def drawn_counts(summaries, seed, R):
    """``_count_chunks``' rows stacked, after checking where each chunk starts."""
    chunks = list(_count_chunks(summaries, seed, R))
    step = max(1, COUNT_CHUNK_ELEMENTS // max(summary.cell.size for summary in summaries))
    assert [start for start, _ in chunks] == list(range(0, R, step))
    return [np.concatenate(arm) for arm in zip(*(cells for _, cells in chunks))]


def summary_of_size(n, slots=7):
    """The ``_SortedSample`` of n subjects on ``slots`` distinct times, ties
    and both statuses mixed at each (untied from ``slots=n`` on)."""
    index = np.arange(n)
    return _sort_sample(ct.Sample(index * 7919 % slots, index % 3 == 0))


seed_components = st.one_of(st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64]),
                            st.integers(1, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 80))
seed_lists = st.lists(seed_components, min_size=1, max_size=5)
seeds = st.one_of(seed_components, seed_lists, seed_lists.map(tuple))

# How ``_count_chunks`` seats each row's PCG64: the probe's verdict on this
# build (a write of the state words wherever numpy's layout allows it), or
# the ``state`` setter, with the probe forced to fail.
SEATINGS = {"words": seeding._words_are_the_state, "setter": lambda: False}
seatings = pytest.mark.parametrize("seating", [
    pytest.param("words", marks=pytest.mark.skipif(
        not seeding._words_are_the_state(), reason="this numpy lays pcg128_t out otherwise")),
    "setter"])


@settings(max_examples=100)
@given(seed=seeds, R=st.integers(1, 300))
def test_state_words_are_numpys_seeding(seed, R):
    states = _pcg64_states(seed, R)
    assert states.dtype == np.uint64 and states.shape == (R, 4)
    for r, (state_lo, state_hi, inc_lo, inc_hi) in enumerate(states.tolist()):
        expected = np.random.default_rng(seed_tuple(seed) + (r,)).bit_generator.state
        assert expected["state"] == {"state": state_hi << 64 | state_lo,
                                     "inc": inc_hi << 64 | inc_lo}


@seatings
@settings(max_examples=100)
@given(sizes=st.lists(st.integers(1, 300), min_size=1, max_size=2),
       seed=seeds, past_boundary=st.integers(-2, 2), slots=st.integers(1, 300))
def test_count_rows_are_the_looped_draws(seating, sizes, seed, past_boundary, slots):
    # About one chunk of rows and a few past it, at most 400 replicates.
    R = max(1, min(400, COUNT_CHUNK_ELEMENTS // max(sizes) + past_boundary))
    summaries = [summary_of_size(n, slots) for n in sizes]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seeding, "_words_are_the_state", SEATINGS[seating])
        drawn_rows = drawn_counts(summaries, seed, R)
    for drawn, looped in zip(drawn_rows, looped_counts(summaries, seed, R)):
        assert drawn.dtype == looped.dtype and drawn.flags.c_contiguous
        assert np.array_equal(drawn, looped)


class HighWordFirst:
    """The state words as a view of a {high, low} pcg128_t reads them:
    ``[state_hi, state_lo, inc_hi, inc_lo]``."""

    def __init__(self, words):
        self.pairs = words.reshape(2, 2)[:, ::-1]

    def __array__(self, dtype=None, copy=None):
        return self.pairs.reshape(4)


def test_a_view_in_another_layout_fails_the_probe(monkeypatch):
    # A view of the struct that a {high, low} pcg128_t lays out: the probe
    # refuses it on reading, and the rows are seated by the setter.
    view = seeding._state_view
    monkeypatch.setattr(seeding, "_state_view", lambda bitgen: HighWordFirst(view(bitgen)))
    monkeypatch.setattr(seeding, "_words_are_the_state",
                        functools.cache(seeding._words_are_the_state.__wrapped__))
    assert not seeding._words_are_the_state()
    summaries = [summary_of_size(30), summary_of_size(7)]
    for drawn, looped in zip(drawn_counts(summaries, (2 ** 64, 9), 50),
                             looped_counts(summaries, (2 ** 64, 9), 50)):
        assert np.array_equal(drawn, looped)


@settings(max_examples=100)
@given(sample=tied_samples(), seed=st.integers(0, 1000), R=st.integers(1, 50))
def test_cell_counts_hold_each_distinct_times_events_and_censorings(sample, seed, R):
    summary = _sort_sample(sample)
    assert np.array_equal(summary.distinct, np.unique(sample.times))
    ones = summary.ones()
    for j, t in enumerate(summary.distinct):
        status = sample.status[sample.times == t]
        assert ones[0, 2 * j] == np.sum(status == 0) and ones[0, 2 * j + 1] == np.sum(status)
    for _, (cells,) in _count_chunks((summary,), seed, R):
        assert np.all(cells.sum(axis=1) == sample.n)


@seatings
def test_rows_with_a_rejected_draw_are_drawn_from_their_stream(monkeypatch, seating):
    # Lemire's method rejects a draw of 0 .. 4 999 with probability about
    # 5e-7, and replicates 763, 953 and 992 of seed 0 each hold one.
    monkeypatch.setattr(seeding, "_words_are_the_state", SEATINGS[seating])
    redrawn = []

    def recording_stream(seed, *indices):
        redrawn.append(indices)
        return stream(seed, *indices)

    monkeypatch.setattr(km, "stream", recording_stream)
    summaries = [summary_of_size(5000)]
    (drawn,) = drawn_counts(summaries, 0, 1000)
    assert redrawn == [(763,), (953,), (992,)]
    assert np.array_equal(drawn, looped_counts(summaries, 0, 1000)[0])


@pytest.mark.parametrize("seed", [-1, (3, -2), [0, 1, -5]])
def test_a_negative_seed_component_is_rejected(seed):
    with pytest.raises(ValueError, match="non-negative"):
        next(_count_chunks((summary_of_size(10), summary_of_size(12)), seed, 5))


def test_a_count_statistic_bootstraps_only_the_samples_it_was_built_on():
    arm0 = ct.Sample([1, 2, 3, 4, 5, 6], [1, 0, 1, 1, 0, 1])
    arm1 = ct.Sample([1, 2, 3], [1, 1, 0])
    for samples, statistic in ((arm1, _one_arm_statistic(arm0, GRID_TIMES)),
                               ((arm1, arm0), _two_arm_statistic(arm0, arm1, TAU_GRID))):
        with pytest.raises(ValueError, match="built on"):
            ct.bootstrap_stats(samples, statistic, R=20, seed=1)


def resolve_outcomes(sample, method, b, seed, replicates):
    def old():
        est, b_star, note = cli_resolve_eta(sample, method, b, seed, replicates)
        return est, note, b_star

    def new():
        est, note = ct.resolve_cure_rate(sample, method, b, replicates=replicates, seed=seed)
        return est, note, est.b

    def run(call):
        try:
            return call()
        except Exception as exc:  # the same failure, by class and message
            return type(exc), str(exc)

    return run(old), run(new)


@settings(max_examples=60)
@given(sample=any_sample, seed=st.integers(0, 1000),
       setting=st.sampled_from(["tail", "auto", 0.2, 0.5, 0.8]))
def test_resolve_cure_rate_matches_cli_rule(sample, seed, setting):
    method = "tail" if setting == "tail" else "extrapolate"
    old, new = resolve_outcomes(sample, method, "auto" if setting == "tail" else setting,
                                seed, 40)
    assert same(new, old)


def test_resolve_cure_rate_fallbacks_match_cli_rule():
    selection_fails = ct.Sample([1, 2, 3, 4, 5], [1, 0, 1, 0, 0])
    unit_ratio = ct.Sample([1, 2, 3, 4], [1, 1, 0, 0])
    no_events = ct.Sample([1, 2], [0, 0])
    cases = [(selection_fails, "auto", "every grid point is degenerate"),
             (selection_fails, 0.4, "corrected cure rate reached 1"),
             (unit_ratio, 0.5, "window ratio equals one"),
             (no_events, "auto", "no events")]
    for sample, b, reason in cases:
        old, new = resolve_outcomes(sample, "extrapolate", b, 3, 50)
        assert same(new, old)
        assert reason in str(new)
