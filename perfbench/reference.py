"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants, and the speed
they leave it drifts by tens of percent over seconds to minutes, whatever the
program does.  So the untraced loop runs the kernel before the first
operation and after every operation, and rescales each operation's wall time
by how slowly the kernel ran on either side of it, against the
``NOMINAL_BLOCK_S`` one block of it takes on the reference machine.  After a
long operation the kernel runs longer, about ``SHARE`` of the operation's
time, so that its estimate of the speed around that operation is as steady
as around a short one.

The kernel is the benchmark's own code and depends on numpy alone, so no
change to curetau can change it.  It does the kind of work curetau's Monte
Carlo loop does, many small numpy calls driven from Python: Kaplan-Meier
fits of bootstrap resamples of 200 subjects, each read on a grid.
"""

import time

import numpy as np

#: Seconds one block takes on the reference machine (2-vCPU Xeon, Python
#: 3.11.7, numpy 2.4.6, one BLAS/OpenMP thread).  A constant, so that the
#: rescaled figures read as wall-clock seconds at that machine's speed.
NOMINAL_BLOCK_S = 0.088
BLOCK_FITS = 1000
SUBJECTS = 200
#: Kernel time after an operation, as a share of the operation's wall time.
SHARE = 0.1


def _km_on_grid(times, status, grid):
    order = np.argsort(times, kind="stable")
    t, d = times[order], status[order]
    distinct, first, counts = np.unique(t, return_index=True, return_counts=True)
    events = np.add.reduceat(d, first)
    at_risk = len(t) - np.concatenate(([0], np.cumsum(counts)[:-1]))
    survival = np.concatenate(([1.0], np.cumprod(1.0 - events / at_risk)))
    return survival[np.searchsorted(distinct, grid, side="right")]


class Reference:
    """Runs the reference kernel in timed chunks of whole blocks and records
    each chunk's seconds and block count."""

    def __init__(self):
        rng = np.random.default_rng(2409_02209)
        self.times = rng.exponential(1.0, SUBJECTS)
        self.status = (rng.random(SUBJECTS) < 0.7).astype(np.int64)
        self.resamples = rng.integers(0, SUBJECTS, (BLOCK_FITS, SUBJECTS))
        self.grid = np.linspace(0.0, 3.0, 50)
        self.expected = self._block()
        self.chunks = []

    def _block(self):
        return sum(float(_km_on_grid(self.times[rows], self.status[rows], self.grid).sum())
                   for rows in self.resamples)

    def chunk(self, after_s=0.0):
        """Time one chunk, sized to follow an operation of ``after_s`` seconds,
        and record it; raises if the kernel went wrong."""
        blocks = max(1, round(SHARE * after_s / NOMINAL_BLOCK_S))
        started = time.perf_counter()
        totals = [self._block() for _ in range(blocks)]
        self.chunks.append((time.perf_counter() - started, blocks))
        if any(total != self.expected for total in totals):
            raise RuntimeError("the reference kernel gave a different result")

    def block_seconds(self):
        """Seconds per block of each recorded chunk."""
        return [seconds / blocks for seconds, blocks in self.chunks]

    def rescaled(self, seconds):
        """Each of ``seconds``, measured between consecutive chunks, at the
        reference machine's speed."""
        if len(self.chunks) != len(seconds) + 1:
            raise ValueError("need one chunk before and one after each operation")
        return [s * NOMINAL_BLOCK_S * (n_before + n_after) / (t_before + t_after)
                for s, (t_before, n_before), (t_after, n_after)
                in zip(seconds, self.chunks, self.chunks[1:])]
