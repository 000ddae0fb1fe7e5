"""The cases of the per-layer timings and memory guards, one table for both.

``tools/ab_layers.py`` times every case on two commits, call by call, and
``tests/test_memory.py`` holds the tracemalloc peaks of the large ones under
fixed limits.  The samples are drawn once by the checked-out ``curetau``; a
builder that takes ``package`` (a ``curetau``: the checked-out one or a base
commit's) makes them that package's samples and fits them with its code, so
two commits' cases read the same numbers.  Each ``*_calls`` function gives
its cases as calls of no arguments, by name.  The inputs:

- ``arm_sample(n)``: a ``table3-eta02`` arm-0 draw, whose times are
  distinct, for the count-row draws of one or two such arms (``ARMS``) and
  ``REPLICATES`` replicates, at each n of ``SIZES``.
- ``layer_calls``, at each n of ``LAYER_SIZES``: ``fitted(package, n)``, a
  ``table1-eta02`` draw with its event curve, tail cure rate (the
  extrapolated one takes b = ``B`` at the largest event time) and latency
  curve, for ``phi_hat`` at that cure rate among the others; and
  ``two_arm_csv(n)``, the ``write_csv`` text of a
  ``table3-eta02`` draw of n subjects, half in each arm.
- ``bootstrap_calls``, at each n of ``SIZES``: ``arm(n)``, a short-follow-up
  ``table2-eta02`` draw; ``select_b`` and the bootstrap take ``R``
  replicates, the one-arm statistic of the Monte Carlo run (event and
  latency survival at ``GRID``, then the cure rate) is built at the b that
  ``select_b`` picks, and its first chunk holds 81, 8, 3 and 1 rows.
- ``tau_calls``, at each n of ``SIZES``: ``arms(package, n)``,
  ``table3-eta02`` arms of n each with their tail cure rates; the kernel
  chunk is the first of ``compare``'s statistic (both processes on
  ``tau_curve``'s grid, cure rates re-estimated per row): 81, 8, 3 and 1
  rows.
- ``fixed_calls``: the ``mc-extrap`` and ``mc-tau`` bootstraps on
  ``arm(MC_N)`` and ``arms(package, MC_N)`` with ``MC_R`` replicates (the
  latter, ``simulate --scenario table3-eta02``'s, at
  ``simlab.DEFAULT_TAU_GRID``); ``select_b`` on arm 0 of ``two-arm-demo`` at
  ``DEMO_N`` (the shape of ``fit --eta-method extrapolate`` and ``btune`` on
  the cli-large inputs) and ``compare``'s tau bootstrap on both its arms,
  each with ``DEMO_R`` replicates; ``cure_difference_test``, tail and
  extrapolated at b = ``B`` in both arms, on the ``mc-tau`` arms with
  ``MC_R`` replicates and the ``two-arm-demo`` ones with ``DEMO_R``; and
  ``true_tau_quadrature`` at t = 0.5
  for each kind of process on the ``table3-eta02`` arms (Beta(1, 4) against
  Beta(1, 2)) and the ``table4-eta02`` ones (against Beta(0.5, 1.5), whose
  density is singular at 0).
"""

import dataclasses
import functools

import numpy as np

import curetau as ct

SIZES = (200, 2_000, 5_000, 20_000)
LAYER_SIZES = (200, 2_000, 20_000)
ARMS = (1, 2)
REPLICATES = (200, 500)
STATE_COUNTS = (500, 5_000)
STATE_SEED = (7, 3, 2)
R = 200
GRID = np.linspace(0.1, 0.7, 7)
B = 0.8
MC_N, MC_R = 200, 500
DEMO_N, DEMO_R = 5_000, 100


def own(package, sample):
    """``sample``'s times and status as a ``package`` sample."""
    return package.Sample(sample.times, sample.status)


def scenario(name, n):
    """The arms of preset ``name``, or its one arm, with ``n`` subjects each."""
    design, _ = ct.preset(name)
    if isinstance(design, ct.TwoArmScenario):
        return ct.TwoArmScenario(*(dataclasses.replace(arm, n=n)
                                   for arm in (design.arm0, design.arm1)))
    return dataclasses.replace(design, n=n)


@functools.cache
def arm_sample(n):
    return ct.draw_sample(scenario("table3-eta02", n).arm0, 1)


@functools.cache
def fitted(package, n):
    """A ``table1-eta02`` draw as a ``package`` sample, its event curve,
    tail cure rate and latency curve."""
    sample = own(package, ct.draw_sample(scenario("table1-eta02", n), 1))
    curve = package.km_fit(sample, "event")
    eta = package.eta_tail(curve)
    return sample, curve, eta, package.susceptible_curve(sample, eta).curve


@functools.cache
def two_arm_csv(n):
    return ct.write_csv(ct.draw_two_arm_sample(scenario("table3-eta02", n // 2), 1))


def layer_calls(package, n):
    sample, curve, eta, latency = fitted(package, n)
    text = two_arm_csv(n)
    return {
        "km_fit": lambda: package.km_fit(sample, "event"),
        "risk_table": lambda: package.risk_table(sample),
        "phi_hat": lambda: package.phi_hat(sample, eta),
        "eta_tail": lambda: package.eta_tail(curve),
        "eta_extrapolated": lambda: package.eta_extrapolated(curve, B, curve.x[-1]),
        "self_consistency_residual":
            lambda: package.self_consistency_residual(latency, sample, eta),
        "parse_csv": lambda: package.parse_csv(text),
    }


@functools.cache
def arm(n):
    return ct.draw_sample(scenario("table2-eta02", n), 1)


@functools.cache
def one_arm_statistic(package, n):
    """``arm(n)`` as a ``package`` sample, and the one-arm statistic that
    ``package`` builds on it at the b ``select_b`` picks."""
    sample = own(package, arm(n))
    b, _ = package.select_b(sample, replicates=R, seed=1)
    return sample, package.inference._one_arm_statistic(sample, GRID, b)


@functools.cache
def one_arm_chunk(package, n):
    """``one_arm_statistic(package, n)``'s statistic and its first chunk of
    count rows."""
    _, statistic = one_arm_statistic(package, n)
    _, (cells,) = next(package.km._count_chunks(statistic.summaries, 2, R))
    return statistic, cells


def bootstrap_calls(package, n):
    sample, statistic = one_arm_statistic(package, n)
    _, cells = one_arm_chunk(package, n)
    return {
        "select_b": lambda: package.select_b(sample, replicates=R, seed=1),
        "one-arm bootstrap": lambda: package.bootstrap_stats(sample, statistic, R=R, seed=2),
        "one-arm chunk": lambda: statistic.evaluate(cells),
    }


@functools.cache
def arms(package, n):
    """``table3-eta02`` arms of ``n`` each as ``package`` samples, and their
    tail cure rates."""
    s0, s1 = (own(package, sample) for sample in
              ct.draw_two_arm_sample(scenario("table3-eta02", n), 1).split_arms())
    return s0, s1, (package.eta_tail_from_sample(s0), package.eta_tail_from_sample(s1))


@functools.cache
def kernel_chunk(package, n):
    """The two-arm statistic of ``compare`` as ``package`` builds it on
    ``arms(package, n)``, and its first chunk of count rows."""
    s0, s1, _ = arms(package, n)
    statistic = package.inference._two_arm_statistic(
        s0, s1, package.tau_curve(s0, s1).grid, overall=True)
    _, cells = next(package.km._count_chunks(statistic.summaries, 1, 100))
    return statistic, cells


def tau_calls(package, n):
    s0, s1, etas = arms(package, n)
    statistic, cells = kernel_chunk(package, n)
    return {
        "tau_a_curve": lambda: package.tau_a_curve(s0, s1, *etas),
        "tau kernel chunk": lambda: statistic.evaluate(*cells),
    }


def fixed_calls(package):
    mc_extrap = one_arm_statistic(package, MC_N)
    mc_tau = arms(package, MC_N)[:2]
    mc_tau_statistic = package.inference._two_arm_statistic(
        *mc_tau, np.asarray(package.simlab.DEFAULT_TAU_GRID))
    demo = scenario("two-arm-demo", DEMO_N)
    demo_arm = own(package, ct.draw_sample(demo.arm0, 1))
    pair = tuple(own(package, sample)
                 for sample in ct.draw_two_arm_sample(demo, 1).split_arms())
    compare = package.inference._two_arm_statistic(*pair, package.tau_curve(*pair).grid,
                                                   overall=True)
    calls = {
        f"bootstrap_stats mc-extrap n={MC_N} R={MC_R}":
            lambda: package.bootstrap_stats(*mc_extrap, R=MC_R, seed=2),
        f"bootstrap_stats mc-tau n={MC_N} R={MC_R}":
            lambda: package.bootstrap_stats(mc_tau, mc_tau_statistic, R=MC_R, seed=1),
        f"select_b two-arm-demo n={DEMO_N} R={DEMO_R}":
            lambda: package.select_b(demo_arm, replicates=DEMO_R, seed=1),
        f"compare bootstrap two-arm-demo n={DEMO_N} R={DEMO_R}":
            lambda: package.bootstrap_stats(pair, compare, R=DEMO_R, seed=1),
    }
    for method in ("tail", "extrapolated"):
        for label, samples, R in (("mc-tau", mc_tau, MC_R), ("two-arm-demo", pair, DEMO_R)):
            calls[f"cure_difference_test {method} {label} n={samples[0].n} R={R}"] = (
                functools.partial(package.cure_difference_test, *samples, method=method,
                                  b0=B, b1=B, R=R, seed=1))
    for name in ("table3-eta02", "table4-eta02"):
        design, _ = package.preset(name)
        for kind in ("overall", "susceptible"):
            calls[f"true_tau_quadrature {name} {kind} t=0.5"] = functools.partial(
                package.true_tau_quadrature, design.arm0.latency, design.arm1.latency,
                design.arm0.eta, design.arm1.eta, 0.5, kind=kind)
    return calls
