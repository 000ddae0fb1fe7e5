"""Timings of the bootstrap count-row drawer, ``km._count_chunks``.

Run from the repository root with pytest-benchmark installed:

    PYTHONPATH=src python3 -m pytest -q bench/bench_draws.py

(the file name keeps it out of the library's own test collection).  Each
case draws every chunk of ``R`` replicates for one arm, or for two arms of
the same size, at n = 200, 2 000 and 20 000 subjects per arm.
"""

import pytest

from curetau.km import _count_chunks

R = 200


@pytest.mark.parametrize("arms", [1, 2])
@pytest.mark.parametrize("n", [200, 2_000, 20_000])
def test_count_chunks(benchmark, n, arms):
    sizes = (n,) * arms

    def draw():
        return sum(counts[0].shape[0] for _, counts in _count_chunks(sizes, 1, R))

    assert benchmark(draw) == R
