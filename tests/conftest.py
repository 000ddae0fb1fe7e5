import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import curetau as ct

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic and leaves no example database behind.
settings.register_profile("curetau", derandomize=True, database=None, deadline=None)
settings.load_profile("curetau")


@pytest.fixture
def d1():
    """Worked five-subject example with events at 1 and 3."""
    return ct.Sample([1, 2, 3, 4, 5], [1, 0, 1, 0, 0])


def random_tie_free_sample(rng, max_n=200):
    """A random censored sample: continuous times, >= 1 event, all times distinct.

    Mixes cure fractions, latency families, and censoring laws so the corpus
    exercises plateaus, short tails, and both kinds of largest observation.
    """
    while True:
        n = int(rng.integers(5, max_n + 1))
        eta = 0.0 if rng.random() < 0.4 else float(rng.uniform(0.05, 0.5))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            t = rng.exponential(1.0, n)
            c = rng.uniform(0.0, float(rng.uniform(1.0, 4.0)), n)
        elif kind == 1:
            t = rng.beta(1.0, 3.0, n)
            c = rng.uniform(0.0, float(rng.uniform(0.7, 1.5)), n)
        else:
            t = rng.weibull(0.8, n) * 1.5
            c = rng.exponential(float(rng.uniform(0.5, 3.0)), n)
        cured = rng.random(n) < eta
        t = np.where(cured, np.inf, t)
        x = np.minimum(t, c)
        d = (t <= c).astype(int)
        if d.sum() == 0 or np.unique(x).size != n:
            continue
        return ct.Sample(x, d)


def sample_corpus(count, seed=20240601, max_n=200):
    rng = np.random.default_rng(seed)
    return [random_tie_free_sample(rng, max_n=max_n) for _ in range(count)]


@st.composite
def tied_samples(draw):
    """1-12 subjects on six distinct times, at least one of them an event."""
    n = draw(st.integers(1, 12))
    times = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    status = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    status[draw(st.integers(0, n - 1))] = 1
    return ct.Sample(times, status)


@st.composite
def cross_tie_free_samples(draw):
    """1-12 subjects, at least one event: events on the whole times 1-6 and
    censorings on the half times 1.5-6.5, so events tie with events and
    censorings with censorings but never with each other."""
    n = draw(st.integers(1, 12))
    slots = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    status = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    status[draw(st.integers(0, n - 1))] = 1
    return ct.Sample([slot + 0.5 * (1 - s) for slot, s in zip(slots, status)], status)
