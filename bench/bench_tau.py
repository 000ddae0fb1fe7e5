"""Timings of the two-arm tau kernel, ``tau._tau_rows``.

Run from the repository root with pytest-benchmark installed:

    PYTHONPATH=src python3 -m pytest -q bench/bench_tau.py

(the file name keeps it out of the library's own test collection).  The arms
are drawn from the ``table3-eta02`` design at n = 200, 2 000, 5 000 and
20 000 subjects each.  One case times ``tau_a_curve`` on its default grid,
which is the kernel on the row of ones; the other times one chunk of
bootstrap count rows through the kernel that ``compare`` bootstraps (both
processes on that grid, cure rates re-estimated per row; 81, 8, 3 and 1
rows).  At n = 20 000 each case also records the tracemalloc peak of one
call, in MB, as ``extra_info["peak_mb"]``, so that any quadratic temporary
shows.  ``tools/ab_layers.py`` times the same chunks of two commits call by
call.

One more case times the whole bootstrap of one ``mc-tau`` run
(``simulate --scenario table3-eta02``): the susceptible process alone at
``simlab.DEFAULT_TAU_GRID``, tail cure rates re-estimated per row, on
``arms(200)`` with R = 500, the point included; ``tools/ab_layers.py``
times it too.  A last case times the tau bootstrap of ``compare`` itself:
the ``two-arm-demo`` design at n = 5 000 per arm, R = 100 replicates on the
default grid with both processes, and records its peak the same way; the
(100 x width) replicate matrix it returns is most of that peak.
"""

import functools
import tracemalloc

import numpy as np
import pytest

import curetau as ct
from curetau.inference import _two_arm_statistic

SIZES = [200, 2_000, 5_000, 20_000]
MC_N, MC_R, MC_SEED = 200, 500, 1
# Far above the few MB a linear pass takes at n = 20 000, far below the
# 3 GB of one (n x n) float array.
PEAK_MB_LIMIT = 256


@functools.lru_cache(maxsize=None)
def arms(n):
    design, _ = ct.preset("table3-eta02")
    arm0, arm1 = (ct.Scenario(arm.latency, arm.eta, arm.c_max, n)
                  for arm in (design.arm0, design.arm1))
    s0, s1 = ct.draw_two_arm_sample(ct.TwoArmScenario(arm0, arm1), 1).split_arms()
    etas = tuple(ct.eta_tail_from_sample(sample) for sample in (s0, s1))
    return s0, s1, etas


def record_peak(benchmark, call):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    benchmark.extra_info["peak_mb"] = round(peak, 2)
    assert peak < PEAK_MB_LIMIT


@pytest.mark.parametrize("n", SIZES)
def test_tau_a_curve(benchmark, n):
    s0, s1, etas = arms(n)

    def curve():
        return ct.tau_a_curve(s0, s1, *etas)

    if n == SIZES[-1]:
        record_peak(benchmark, curve)
    assert benchmark(curve).grid.size > 0


@functools.lru_cache(maxsize=None)
def kernel_chunk(package, n):
    """The two-arm statistic of ``compare`` as ``package`` (a ``curetau``)
    builds it on ``arms(n)``, and its first chunk of count rows."""
    s0, s1 = (package.Sample(sample.times, sample.status) for sample in arms(n)[:2])
    statistic = package.inference._two_arm_statistic(
        s0, s1, package.tau_curve(s0, s1).grid, overall=True)
    _, cells = next(package.km._count_chunks(statistic.summaries, 1, 100))
    return statistic, cells


@pytest.mark.parametrize("n", SIZES)
def test_kernel_chunk(benchmark, n):
    statistic, cells = kernel_chunk(ct, n)

    def chunk():
        return statistic.evaluate(*cells)

    if n == SIZES[-1]:
        record_peak(benchmark, chunk)
    assert benchmark(chunk).shape[0] == cells[0].shape[0]


@functools.lru_cache(maxsize=None)
def mc_bootstrap(package):
    """The samples and two-arm statistic of one ``mc-tau`` run's bootstrap
    as ``package`` (a ``curetau``) builds them on ``arms(MC_N)``."""
    samples = tuple(package.Sample(sample.times, sample.status) for sample in arms(MC_N)[:2])
    grid = np.asarray(package.simlab.DEFAULT_TAU_GRID)
    return samples, package.inference._two_arm_statistic(*samples, grid)


def test_mc_tau_bootstrap(benchmark):
    samples, statistic = mc_bootstrap(ct)
    result = benchmark(ct.bootstrap_stats, samples, statistic, R=MC_R, seed=MC_SEED)
    assert result.replicate_values.shape == (MC_R, len(ct.simlab.DEFAULT_TAU_GRID))


def test_compare_bootstrap(benchmark):
    design, _ = ct.preset("two-arm-demo")
    arm0, arm1 = (ct.Scenario(arm.latency, arm.eta, arm.c_max, 5_000)
                  for arm in (design.arm0, design.arm1))
    s0, s1 = ct.draw_two_arm_sample(ct.TwoArmScenario(arm0, arm1), 1).split_arms()
    statistic = _two_arm_statistic(s0, s1, ct.tau_curve(s0, s1).grid, overall=True)

    def bootstrap():
        return ct.bootstrap_stats((s0, s1), statistic, R=100, seed=1)

    record_peak(benchmark, bootstrap)
    assert benchmark(bootstrap).replicate_values.shape[0] == 100
