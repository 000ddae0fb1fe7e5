"""Timings of the bootstrap count-row drawer, ``km._count_chunks``, and of
the PCG64 seeding it starts from, ``seeding._pcg64_states``.

Run from the repository root with pytest-benchmark installed:

    PYTHONPATH=src python3 -m pytest -q bench/bench_draws.py

(the file name keeps it out of the library's own test collection).  Each
drawer case draws every chunk of ``R`` replicates as rows of cell counts for
one arm, or for two arms of the same size, at n = 200, 2 000, 5 000 and
20 000 subjects per arm, with R = 200 and R = 500 (the Monte Carlo size).
The arm is a ``table3-eta02`` draw, so its times are distinct.  The seeding
cases compute the state words of R = 500 and R = 5 000 replicates.  These
time one commit per process; ``tools/ab_layers.py`` times the same cases of
two commits call by call.
"""

import pytest

import curetau as ct
from curetau.km import _count_chunks, _sort_sample
from curetau.seeding import _pcg64_states

SIZES = [200, 2_000, 5_000, 20_000]
ARMS = [1, 2]
REPLICATES = [200, 500]
STATE_COUNTS = [500, 5_000]
STATE_SEED = (7, 3, 2)


def arm_sample(n):
    design, _ = ct.preset("table3-eta02")
    arm = design.arm0
    return ct.draw_sample(ct.Scenario(arm.latency, arm.eta, arm.c_max, n), 1)


@pytest.mark.parametrize("R", REPLICATES)
@pytest.mark.parametrize("arms", ARMS)
@pytest.mark.parametrize("n", SIZES)
def test_count_chunks(benchmark, n, arms, R):
    summaries = (_sort_sample(arm_sample(n)),) * arms

    def draw():
        return sum(cells[0].shape[0] for _, cells in _count_chunks(summaries, 1, R))

    assert benchmark(draw) == R


@pytest.mark.parametrize("count", STATE_COUNTS)
def test_pcg64_states(benchmark, count):
    assert benchmark(_pcg64_states, STATE_SEED, count).shape == (count, 4)
