"""Timings of the one-arm bootstraps: ``select_b`` and ``bootstrap_stats``.

Run from the repository root with pytest-benchmark installed:

    PYTHONPATH=src python3 -m pytest -q bench/bench_bootstrap.py

(the file name keeps it out of the library's own test collection).  The arm
is a short-follow-up ``table2-eta02`` draw of n = 200, 2 000, 5 000 and
20 000 subjects.  One case times ``select_b`` over the default b grid, the
other the one-arm statistic of the Monte Carlo run (event and latency
survival at fixed times, then the cure rate) at the b that ``select_b``
picks; both with R = 200 replicates.  At n = 20 000 each case also records
the tracemalloc peak of one call, in MB, as ``extra_info["peak_mb"]``, so
that any temporary that grows with R x n shows.  Two more cases time one
chunk of that bootstrap's count rows (81, 8, 3 and 1 rows): through
``km._km_rows``, and through the statistic; another times that whole
bootstrap at n = 200 with R = 500, the shape of one ``mc-extrap`` run, the
point included.  ``tools/ab_layers.py`` times the same chunks and the
whole bootstrap of two commits call by call.  One more ``select_b`` case
has the shape of ``fit --eta-method extrapolate`` and ``btune`` on
5 000-subject arms at ``--boot 100``: arm 0 of the ``two-arm-demo``
preset, R = 100, where a chunk holds 3 replicates; ``extra_info["live"]``
counts its usable grid points.
"""

import functools
import tracemalloc

import numpy as np
import pytest

import curetau as ct
from curetau.km import _km_rows

SIZES = [200, 2_000, 5_000, 20_000]
R = 200
MC_N, MC_R, MC_SEED = 200, 500, 2
GRID = np.linspace(0.1, 0.7, 7)
# Far above the few MB a chunk of rows takes at n = 20 000, far below the
# 32 MB of one (R x n) int64 array of subject counts.
PEAK_MB_LIMIT = 16


@functools.lru_cache(maxsize=None)
def arm(n):
    design, _ = ct.preset("table2-eta02")
    scenario = ct.Scenario(design.latency, design.eta, design.c_max, n)
    return ct.draw_sample(scenario, 1)


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


@pytest.mark.parametrize("n", SIZES)
def test_select_b(benchmark, n):
    sample = arm(n)

    def select():
        return ct.select_b(sample, replicates=R, seed=1)

    record_peak(benchmark, n, select)
    assert benchmark(select)[0] in ct.DEFAULT_B_GRID


def test_select_b_large_arm(benchmark):
    design, _ = ct.preset("two-arm-demo")
    arm = design.arm0
    sample = ct.draw_sample(ct.Scenario(arm.latency, arm.eta, arm.c_max, 5_000), 1)

    def select():
        return ct.select_b(sample, replicates=100, seed=1)

    b, diagnostics = benchmark(select)
    benchmark.extra_info["live"] = sum(not point.skipped for point in diagnostics)
    assert b in ct.DEFAULT_B_GRID


@functools.lru_cache(maxsize=None)
def one_arm_statistic(package, n):
    """``arm(n)`` as a ``package`` (a ``curetau``) sample, and the one-arm
    statistic that ``package`` builds on it at the b ``select_b`` picks."""
    sample = package.Sample(arm(n).times, arm(n).status)
    b, _ = package.select_b(sample, replicates=R, seed=1)
    return sample, package.inference._one_arm_statistic(sample, GRID, b)


@pytest.mark.parametrize("n", SIZES)
def test_one_arm_bootstrap(benchmark, n):
    sample, statistic = one_arm_statistic(ct, n)

    def bootstrap():
        return ct.bootstrap_stats(sample, statistic, R=R, seed=2)

    record_peak(benchmark, n, bootstrap)
    assert benchmark(bootstrap).replicate_values.shape == (R, 2 * GRID.size + 1)


@functools.lru_cache(maxsize=None)
def one_arm_chunk(package, n):
    """``one_arm_statistic(package, n)``'s statistic and its first chunk of
    count rows."""
    _, statistic = one_arm_statistic(package, n)
    _, (cells,) = next(package.km._count_chunks(statistic.summaries, 2, R))
    return statistic, cells


@pytest.mark.parametrize("n", SIZES)
def test_km_rows_chunk(benchmark, n):
    statistic, cells = one_arm_chunk(ct, n)
    assert benchmark(_km_rows, statistic.summaries[0], cells).at_risk.shape[0] == cells.shape[0]


@pytest.mark.parametrize("n", SIZES)
def test_one_arm_chunk(benchmark, n):
    statistic, cells = one_arm_chunk(ct, n)
    assert benchmark(statistic.evaluate, cells).shape == (cells.shape[0], 2 * GRID.size + 1)


def mc_bootstrap(package):
    """The sample and statistic of ``test_mc_extrap_bootstrap`` as
    ``package`` builds them."""
    return one_arm_statistic(package, MC_N)


def test_mc_extrap_bootstrap(benchmark):
    sample, statistic = mc_bootstrap(ct)
    result = benchmark(ct.bootstrap_stats, sample, statistic, R=MC_R, seed=MC_SEED)
    assert result.replicate_values.shape == (MC_R, 2 * GRID.size + 1)
