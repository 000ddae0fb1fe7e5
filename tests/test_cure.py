import numpy as np
import pytest

import curetau as ct
from curetau.errors import DegenerateWindowError, NoEventsError


def test_tail_estimate_on_worked_example(d1):
    curve = ct.km_fit(d1, "event")
    table = ct.risk_table(d1)
    est = ct.eta_tail(curve, table)
    assert est.method == "tail"
    assert est.value == curve(3.0)
    assert est.value == pytest.approx(8 / 15, abs=1e-15)


def test_tail_estimate_zero_when_largest_observation_is_event():
    sample = ct.Sample([1, 2, 3], [0, 0, 1])
    assert ct.eta_tail_from_sample(sample).value == 0.0


def test_tail_matches_ipcw_identity(d1):
    table = ct.risk_table(d1)
    est = ct.eta_tail_from_sample(d1)
    assert est.value == pytest.approx(1 - table.d_tilde.sum() / d1.n, abs=1e-12)


def test_tail_requires_events():
    curve = ct.StepFunction([], [], 1.0)
    with pytest.raises(NoEventsError):
        sample = ct.Sample([1.0], [0])
        ct.eta_tail(curve, ct.risk_table(sample))


def test_extrapolated_direct_formula():
    # windows 0.5 / 0.3 / 0.2 at b=0.5, t_K=4 give ratio 2 and estimate 0.1
    curve = ct.StepFunction([0.5, 1.5, 3.0], [0.5, 0.3, 0.2])
    est = ct.eta_extrapolated(curve, 0.5, 4.0)
    assert est.b_gamma_check == pytest.approx(2.0, abs=1e-15)
    assert est.value == pytest.approx(0.1, abs=1e-15)
    assert est.raw_value == est.value
    assert est.method == "extrapolated"
    assert est.b == 0.5


def test_extrapolated_flat_window_errors():
    curve = ct.StepFunction([0.5], [0.2])
    with pytest.raises(DegenerateWindowError):
        ct.eta_extrapolated(curve, 0.5, 4.0)


def test_extrapolated_unit_ratio_errors():
    # equal dyadic drops in both windows make the ratio exactly one
    curve = ct.StepFunction([0.5, 1.5, 3.0], [0.75, 0.5, 0.25])
    with pytest.raises(DegenerateWindowError):
        ct.eta_extrapolated(curve, 0.5, 4.0)


def test_extrapolated_clamps_and_keeps_raw():
    # ratio 1.5 with a 0.3-wide window implies more tail mass than the tail
    # value itself, pushing the raw estimate negative
    curve = ct.StepFunction([0.5, 1.5, 3.0], [0.95, 0.5, 0.2])
    est = ct.eta_extrapolated(curve, 0.5, 4.0)
    assert est.raw_value == pytest.approx(-0.4, abs=1e-12)
    assert est.value == 0.0


def test_extrapolated_large_ratio_recovers_tail():
    # a huge first window makes the correction vanish
    curve = ct.StepFunction([0.5, 1.5, 3.0], [0.9, 0.2, 0.19])
    est = ct.eta_extrapolated(curve, 0.5, 4.0)
    bound = (0.2 - 0.19) / (est.b_gamma_check - 1.0)
    assert abs(est.value - 0.19) <= bound + 1e-15
    assert est.b_gamma_check > 50


def test_extrapolated_validates_b():
    curve = ct.StepFunction([1.0], [0.5])
    with pytest.raises(ValueError):
        ct.eta_extrapolated(curve, 1.2, 4.0)
    with pytest.raises(ValueError):
        ct.eta_extrapolated(curve, 0.5, 0.0)


@pytest.fixture
def shorttail_sample():
    scenario = ct.Scenario(ct.BetaLatency(1, 3), 0.2, 0.8, 120)
    return ct.draw_sample(scenario, 2)


def test_select_b_singleton_grid(shorttail_sample):
    b_star, diagnostics = ct.select_b(shorttail_sample, grid=[0.8],
                                      replicates=25, seed=3)
    assert b_star == 0.8
    assert len(diagnostics) == 1
    assert not diagnostics[0].skipped


def test_select_b_deterministic(shorttail_sample):
    first = ct.select_b(shorttail_sample, grid=[0.7, 0.8, 0.85], replicates=30, seed=9)
    second = ct.select_b(shorttail_sample, grid=[0.7, 0.8, 0.85], replicates=30, seed=9)
    assert first[0] == second[0]
    assert [(p.b, p.criterion, p.n_missing) for p in first[1]] == \
           [(p.b, p.criterion, p.n_missing) for p in second[1]]


def test_select_b_grid_order_invariant(shorttail_sample):
    forward = ct.select_b(shorttail_sample, grid=[0.7, 0.8, 0.85], replicates=30, seed=4)
    backward = ct.select_b(shorttail_sample, grid=[0.85, 0.8, 0.7], replicates=30, seed=4)
    assert forward[0] == backward[0]
    assert [p.b for p in forward[1]] == [p.b for p in backward[1]]


def test_select_b_skips_invalid_regimes(shorttail_sample):
    _, diagnostics = ct.select_b(shorttail_sample, replicates=20, seed=2)
    curve = ct.km_fit(shorttail_sample, "event")
    t_k = ct.risk_table(shorttail_sample).last_event_time
    for point in diagnostics:
        try:
            est = ct.eta_extrapolated(curve, point.b, t_k)
            valid = est.b_gamma_check > 1.0 and 0.0 < est.raw_value < 1.0
        except DegenerateWindowError:
            valid = False
        assert point.skipped == (not valid)
        if point.skipped:
            assert point.reason


def test_select_b_validates_arguments(shorttail_sample):
    with pytest.raises(ValueError):
        ct.select_b(shorttail_sample, grid=[], replicates=10, seed=0)
    with pytest.raises(ValueError):
        ct.select_b(shorttail_sample, grid=[0.5], replicates=0, seed=0)
