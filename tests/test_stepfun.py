import numpy as np
import pytest

import curetau as ct
from curetau.errors import DomainError


@pytest.fixture
def stairs():
    return ct.StepFunction([1.0, 3.0], [0.8, 0.5], initial_value=1.0)


def test_right_evaluation(stairs):
    assert stairs(0.0) == 1.0
    assert stairs(1.0) == 0.8
    assert stairs(2.0) == 0.8
    assert stairs(3.0) == 0.5


def test_left_limits(stairs):
    assert stairs(1.0, side="left") == 1.0
    assert stairs(3.0, side="left") == 0.8
    assert stairs(2.0, side="left") == 0.8


def test_beyond_last_jump_both_sides(stairs):
    assert stairs(99.0) == 0.5
    assert stairs(99.0, side="left") == 0.5


def test_right_continuity_under_small_shift(stairs):
    for t in (0.2, 1.0, 1.7, 3.0, 8.0):
        assert stairs(t) == stairs(t + 1e-9)


def test_vectorized_evaluation(stairs):
    out = stairs(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    assert out.tolist() == [1.0, 0.8, 0.8, 0.5, 0.5]


def test_empty_jump_set_is_constant():
    flat = ct.StepFunction([], [], initial_value=0.7)
    assert flat(0.0) == 0.7
    assert flat(123.0) == 0.7
    assert flat(np.array([0.1, 5.0])).tolist() == [0.7, 0.7]


def test_construction_validation():
    with pytest.raises(ValueError):
        ct.StepFunction([2.0, 1.0], [0.5, 0.4])
    with pytest.raises(ValueError):
        ct.StepFunction([0.0, 1.0], [0.5, 0.4])
    with pytest.raises(ValueError):
        ct.StepFunction([1.0], [float("nan")])


def test_domain_end_raises(stairs):
    bounded = ct.StepFunction([1.0], [0.5], domain_end=2.0)
    assert bounded(2.0) == 0.5
    with pytest.raises(DomainError):
        bounded(2.5)


def test_side_argument(stairs):
    assert stairs(1.0, side="left") == 1.0
    assert stairs(1.0, side="right") == 0.8
    with pytest.raises(ValueError):
        stairs(1.0, side="middle")


def test_negative_time_rejected(stairs):
    with pytest.raises(ValueError):
        stairs(-0.5)


def test_csv_roundtrip(stairs):
    text = ct.write_curve_csv(stairs)
    again = ct.read_curve_csv(text)
    assert again == stairs


def test_csv_roundtrip_with_bands(stairs):
    lo = [0.9, 0.7, 0.4]
    hi = [1.0, 0.9, 0.6]
    text = ct.write_curve_csv(stairs, bands=(lo, hi))
    assert text.splitlines()[0] == "t,value,lo,hi"
    assert ct.read_curve_csv(text) == stairs
