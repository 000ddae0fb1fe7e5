"""Timings of the bootstrap count-row drawer, ``km._count_chunks``.

Run from the repository root with pytest-benchmark installed:

    PYTHONPATH=src python3 -m pytest -q bench/bench_draws.py

(the file name keeps it out of the library's own test collection).  Each
case draws every chunk of ``R`` replicates as rows of cell counts for one
arm, or for two arms of the same size, at n = 200, 2 000 and 20 000 subjects
per arm.  The arm is a ``table3-eta02`` draw, so its times are distinct.
"""

import pytest

import curetau as ct
from curetau.km import _count_chunks, _sort_sample

R = 200


@pytest.mark.parametrize("arms", [1, 2])
@pytest.mark.parametrize("n", [200, 2_000, 20_000])
def test_count_chunks(benchmark, n, arms):
    design, _ = ct.preset("table3-eta02")
    arm = design.arm0
    sample = ct.draw_sample(ct.Scenario(arm.latency, arm.eta, arm.c_max, n), 1)
    summaries = (_sort_sample(sample),) * arms

    def draw():
        return sum(cells[0].shape[0] for _, cells in _count_chunks(summaries, 1, R))

    assert benchmark(draw) == R
