"""The count-weight bootstrap against the looped bootstrap it replaces.

``select_b``, the one-arm statistic (CLI ``fit`` and the Monte Carlo one-arm
run) and ``cure_difference_test`` evaluate their replicates as rows of
subject counts.  Each must reproduce the loop over resampled ``Sample``
objects bit for bit: the same values with the same NaN pattern, the same
number of missing replicates and the same failures.  The loop forms live here
as the reference implementations, as does the CLI's cure-rate rule that
``resolve_cure_rate`` replaced.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import curetau as ct
from curetau.cure import DEFAULT_B_GRID
from curetau.errors import DegenerateWindowError, SelectionFailedError, UnstableStatisticError
from curetau.inference import _one_arm_statistic
from curetau.km import COUNT_CHUNK_ELEMENTS
from curetau.seeding import stream

GRID_TIMES = np.array([0.1, 0.3, 0.5, 0.75, 1.0, 2.0])


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


@settings(max_examples=80)
@given(sample=any_sample, R=st.integers(2, 200), seed=st.integers(0, 1000),
       b=st.one_of(st.none(), st.sampled_from(DEFAULT_B_GRID)), event_grid=st.booleans())
def test_one_arm_bootstrap_matches_loop(sample, R, seed, b, event_grid):
    # CLI ``fit`` reads both curves at 0 and at every event time; the Monte
    # Carlo run reads them at fixed times.
    grid = np.concatenate(([0.0], ct.km_fit(sample, "event").x)) if event_grid else GRID_TIMES
    if b is not None:
        # Like the Monte Carlo run, prefer a b whose estimate is defined and
        # below 1 on the original sample, starting from the drawn one.
        b = next((c for c in sorted(DEFAULT_B_GRID, key=lambda c: (c < b, c))
                  if usable(sample, c)), b)
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
