"""No layer holds a quadratic temporary at large n.

Each guard runs one call of ``layer_cases`` at n = 20 000 (the largest of
``SIZES`` and ``LAYER_SIZES``), or ``compare``'s tau bootstrap, its inputs
built beforehand, and holds the tracemalloc peak of that call under a limit
far above what a linear pass takes and far below a quadratic array.
"""

import functools
import tracemalloc

import pytest

import curetau as ct
import layer_cases

N = layer_cases.SIZES[-1]
# A linear pass takes a few MB at n = 20 000; one (n x n) float array takes 3 GB.
LINEAR_MB = 64
TAU_MB = 256
# A chunk of count rows takes a few MB at n = 20 000; one (R x n) int64 array
# of subject counts takes 32 MB.
BOOTSTRAP_MB = 16

LAYERS = functools.partial(layer_cases.layer_calls, ct, N)
BOOTSTRAPS = functools.partial(layer_cases.bootstrap_calls, ct, N)
TAU = functools.partial(layer_cases.tau_calls, ct, N)
FIXED = functools.partial(layer_cases.fixed_calls, ct)
COMPARE = (f"compare bootstrap two-arm-demo n={layer_cases.DEMO_N} "
           f"R={layer_cases.DEMO_R}")
GUARDS = [
    *((LAYERS, name, LINEAR_MB) for name in ("km_fit", "risk_table", "eta_tail",
                                             "eta_extrapolated",
                                             "self_consistency_residual", "parse_csv")),
    (BOOTSTRAPS, "select_b", BOOTSTRAP_MB),
    (BOOTSTRAPS, "one-arm bootstrap", BOOTSTRAP_MB),
    (TAU, "tau_a_curve", TAU_MB),
    (TAU, "tau kernel chunk", TAU_MB),
    (FIXED, COMPARE, TAU_MB),
]


def peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("calls, name, limit_mb", GUARDS,
                         ids=[name for _, name, _ in GUARDS])
def test_peak_memory_is_linear_in_n(calls, name, limit_mb):
    call = calls()[name]
    assert peak_mb(call) < limit_mb
