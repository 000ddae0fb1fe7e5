"""Timings of the one-sample layers and the quadrature oracle.

Run from the repository root with pytest-benchmark installed:

    PYTHONPATH=src python3 -m pytest -q bench/bench_layers.py

(the file name keeps it out of the library's own test collection).  The
sample is a ``table1-eta02`` draw of n = 200, 2 000 and 20 000 subjects.  The
cases time ``km_fit`` (event curve), ``risk_table``, the tail and the
extrapolated cure rate on the fitted event curve (b = 0.8 at the largest
event time), and ``self_consistency_residual`` of the sample's own latency
curve.  At n = 20 000 each case also records the tracemalloc peak of one
call, in MB, as ``extra_info["peak_mb"]``, so that any quadratic temporary
shows.  ``true_tau_quadrature`` is timed at t = 0.5 for each kind of
process, on the ``table3-eta02`` arms (Beta(1, 4) against Beta(1, 2)) and on
the ``table4-eta02`` ones (against Beta(0.5, 1.5), whose density is singular
at 0).  ``parse_csv`` reads the ``write_csv`` text of a ``table3-eta02`` draw
of n = 200, 2 000 and 20 000 subjects, half in each arm.
"""

import dataclasses
import functools
import tracemalloc

import pytest

import curetau as ct

SIZES = [200, 2_000, 20_000]
B = 0.8
# Far above the few MB a linear pass takes at n = 20 000, far below the
# 3 GB of one (n x n) float array.
PEAK_MB_LIMIT = 64


@functools.lru_cache(maxsize=None)
def fitted(n):
    design, _ = ct.preset("table1-eta02")
    sample = ct.draw_sample(ct.Scenario(design.latency, design.eta, design.c_max, n), 1)
    curve = ct.km_fit(sample, "event")
    eta = ct.eta_tail(curve)
    return sample, curve, eta, ct.susceptible_curve(sample, eta).curve


def record_peak(benchmark, n, call):
    if n != SIZES[-1]:
        return
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    benchmark.extra_info["peak_mb"] = round(peak, 2)
    assert peak < PEAK_MB_LIMIT


def layer_calls(n):
    sample, curve, eta, latency = fitted(n)
    return {
        "km_fit": lambda: ct.km_fit(sample, "event"),
        "risk_table": lambda: ct.risk_table(sample),
        "eta_tail": lambda: ct.eta_tail(curve),
        "eta_extrapolated": lambda: ct.eta_extrapolated(curve, B, curve.x[-1]),
        "self_consistency_residual":
            lambda: ct.self_consistency_residual(latency, sample, eta),
    }


@pytest.mark.parametrize("layer", ["km_fit", "risk_table", "eta_tail", "eta_extrapolated",
                                   "self_consistency_residual"])
@pytest.mark.parametrize("n", SIZES)
def test_layer(benchmark, n, layer):
    call = layer_calls(n)[layer]
    record_peak(benchmark, n, call)
    assert benchmark(call) is not None


@functools.lru_cache(maxsize=None)
def two_arm_csv(n):
    design, _ = ct.preset("table3-eta02")
    arms = (dataclasses.replace(arm, n=n // 2) for arm in (design.arm0, design.arm1))
    return ct.write_csv(ct.draw_two_arm_sample(ct.TwoArmScenario(*arms), 1))


@pytest.mark.parametrize("n", SIZES)
def test_parse_csv(benchmark, n):
    text = two_arm_csv(n)

    def call():
        return ct.parse_csv(text)

    record_peak(benchmark, n, call)
    assert benchmark(call).n == n


@pytest.mark.parametrize("kind", ["susceptible", "overall"])
@pytest.mark.parametrize("scenario", ["table3-eta02", "table4-eta02"])
def test_true_tau_quadrature(benchmark, scenario, kind):
    design, _ = ct.preset(scenario)
    arm0, arm1 = design.arm0, design.arm1

    def truth():
        return ct.true_tau_quadrature(arm0.latency, arm1.latency, arm0.eta, arm1.eta, 0.5,
                                      kind=kind)

    assert abs(benchmark(truth)) < 1.0
