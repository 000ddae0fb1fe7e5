"""The Cephes ports in ``curetau._normal`` equal ``scipy.special`` bit for bit.

Values are compared as ``float.hex``, which tells -0.0 from 0.0 and reads
any NaN as ``nan``.  The inputs are hypothesis floats, a seeded corpus, the
confidence levels the CLI passes, 50 ulps on each side of every branch point
of the two routines, and the special values.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from curetau import _normal
from curetau.inference import two_sided_p, z_quantile

SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                  math.nextafter(1.0, 0.0), math.nextafter(0.5, 0.0), 1.0, -1.0,
                  math.inf, -math.inf, math.nan]
# ndtri: the centre against the tails, and the tails' two rational forms.
NDTRI_BRANCHES = [math.exp(-2), 1.0 - math.exp(-2), math.exp(-32), 1.0 - math.exp(-32), 0.5,
                  1.0]
# erfc: 1 - erf below 1, the [1, 8) and [8, inf) forms, and the underflow cut.
ERFC_BRANCHES = [1.0, 8.0, math.sqrt(_normal._MAXLOG)]


def around(points, ulps=50):
    """Every float within ``ulps`` ulps of each positive point."""
    bits = np.asarray(points, dtype=float).view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    return bits.ravel().view(np.float64)


def assert_bitwise(name, values):
    values = np.asarray(values, dtype=float)
    ours = [float.hex(getattr(_normal, name)(value)) for value in values.tolist()]
    theirs = list(map(float.hex, getattr(special, name)(values).tolist()))
    assert [(value, a, b) for value, a, b in zip(values.tolist(), ours, theirs) if a != b] == []


def corpus(seed, count=20_000):
    """Uniform, log-spread, normal and wide uniform floats, then random bit
    patterns: floats of both signs, subnormals, infinities and NaNs."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.random(count), 10.0 ** -rng.uniform(0.0, 300.0, count),
                           rng.normal(0.0, 4.0, count), rng.uniform(-30.0, 30.0, count),
                           rng.integers(0, 2 ** 64, count, dtype=np.uint64).view(np.float64)])


def test_ndtri_is_bitwise_scipy_on_branches_levels_and_corpus():
    levels = np.arange(1, 1000) / 1000
    assert_bitwise("ndtri", np.concatenate([
        around(NDTRI_BRANCHES), (1.0 + levels) / 2.0, corpus(1), 1.0 - corpus(1)[:20_000],
        SPECIAL_VALUES, [2.0, -0.5]]))


def test_erfc_and_erf_are_bitwise_scipy_on_branches_and_corpus():
    xs = np.concatenate([around(ERFC_BRANCHES), -around(ERFC_BRANCHES), corpus(3),
                         SPECIAL_VALUES])
    assert_bitwise("erfc", xs)
    assert_bitwise("erf", xs)


@settings(max_examples=200)
@given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1),
       st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1))
def test_ports_are_bitwise_scipy_on_any_float(probabilities, reals):
    assert_bitwise("ndtri", probabilities)
    for name in ("ndtri", "erfc", "erf"):
        assert_bitwise(name, reals)


def test_ports_take_numpy_scalars_and_return_python_floats():
    for value in (_normal.ndtri(np.float64(0.975)), _normal.erfc(np.float64(1.5)),
                  z_quantile(np.float64(0.975)), two_sided_p(np.float64(0.3), np.float64(0.2))):
        assert type(value) is float
    assert z_quantile(0.975) == float(special.ndtri(0.975)) == 1.959963984540054
