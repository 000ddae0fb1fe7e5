"""Scenario generators and the Monte Carlo experiment runner.

A scenario is a cure mixture: with probability ``eta`` a subject never fails
(and is always censored); otherwise the event time comes from a bounded
latency distribution.  Censoring is uniform on ``[0, c_max]``.  The runner
repeats draw/estimate/bootstrap cycles and aggregates the usual table rows:
average bias, mean bootstrap SD, empirical SD, CI coverage, and CI length.
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .cure import DEFAULT_B_GRID, eta_tail_from_sample, resolve_cure_rate
from .data import Sample
from .distributions import BetaLatency, TruncatedWeibullLatency, latency_from_dict
from .errors import EstimationError
from .inference import (_one_arm_statistic, _two_arm_statistic, _valid_level,
                        bootstrap_stats, z_quantile)
from .seeding import seed_tuple, stream
from .tau import tau_a_curve, true_tau_quadrature

DEFAULT_LEVELS = (0.75, 0.65, 0.55, 0.45, 0.35, 0.25)
DEFAULT_TAU_GRID = tuple(np.round(np.arange(0.1, 1.01, 0.1), 10))


@dataclass(frozen=True)
class Scenario:
    """One arm's generative model: latency, cure rate, censoring, sample size."""

    latency: object
    eta: float
    c_max: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must lie in [0, 1), got {self.eta}")
        if self.c_max <= 0 or self.n < 1:
            raise ValueError("c_max must be positive and n at least 1")

    @property
    def support_end(self):
        return self.latency.support_end

    @property
    def censor_end(self):
        return self.c_max

    @property
    def sufficient_follow_up(self):
        return self.support_end <= self.censor_end

    def to_dict(self):
        return {
            "latency": self.latency.to_dict(),
            "eta": self.eta,
            "c_max": self.c_max,
            "n": self.n,
        }


@dataclass(frozen=True)
class TwoArmScenario:
    """A pair of per-arm scenarios for two-sample experiments."""

    arm0: Scenario
    arm1: Scenario

    def to_dict(self):
        return {"arm0": self.arm0.to_dict(), "arm1": self.arm1.to_dict()}


def scenario_from_dict(spec):
    """Build a Scenario or TwoArmScenario from its JSON-style description."""
    if "arm0" in spec or "arm1" in spec:
        return TwoArmScenario(
            arm0=scenario_from_dict(spec["arm0"]),
            arm1=scenario_from_dict(spec["arm1"]),
        )
    return Scenario(
        latency=latency_from_dict(spec["latency"]),
        eta=float(spec["eta"]),
        c_max=float(spec["c_max"]),
        n=int(spec["n"]),
    )


def _draw_with_rng(scenario, rng):
    n = scenario.n
    susceptible = rng.random(n) < (1.0 - scenario.eta)
    event_times = np.asarray(scenario.latency.ppf(rng.random(n)), dtype=float)
    event_times = np.where(susceptible, event_times, np.inf)
    censor_times = rng.uniform(0.0, scenario.c_max, size=n)
    observed = np.minimum(event_times, censor_times)
    status = (event_times <= censor_times).astype(np.int64)
    return Sample(observed, status)


def draw_sample(scenario, seed):
    """Draw one sample from a scenario; cured subjects are always censored."""
    return _draw_with_rng(scenario, stream(seed))


def draw_two_arm_sample(scenario, seed):
    """Draw both arms of a two-arm scenario, labeled 0 and 1."""
    s0 = _draw_with_rng(scenario.arm0, stream(seed, 0))
    s1 = _draw_with_rng(scenario.arm1, stream(seed, 1))
    times = np.concatenate((s0.times, s1.times))
    status = np.concatenate((s0.status, s1.status))
    arms = np.concatenate((np.zeros(s0.n, np.int64), np.ones(s1.n, np.int64)))
    return Sample(times, status, arms)


@dataclass(frozen=True)
class ExperimentRow:
    """One aggregated results row for a single estimand at a single time."""

    estimand: str  # "latency_survival", "cure_rate", or "tau_susceptible"
    t: float  # NaN for the cure-rate row
    truth: float
    avg_bias: float
    sd_boot: float
    sd_emp: float
    coverage: float
    ci_len: float
    runs: int
    R: int
    n_failed: int = 0


def _latency_grid(scenario, times, levels):
    if times is not None:
        return np.asarray(times, dtype=float)
    return np.asarray(scenario.latency.ppf(1.0 - np.asarray(levels)), dtype=float)


def _run_one_arm(scenario, grid, R, seed, eta_method, b, b_grid, select_replicates, index):
    """One draw/estimate/bootstrap cycle: ``(point, sd)``, or None when it fails.

    The cure-rate method is settled once on the drawn sample by
    ``resolve_cure_rate`` (a fallback to the tail estimate holds for the
    whole run), and its scale factor is held fixed across the bootstrap.
    """
    try:
        sample = draw_sample(scenario, seed_tuple(seed) + (index, 0))
        eta, _ = resolve_cure_rate(sample, eta_method, b, grid=b_grid,
                                   replicates=select_replicates,
                                   seed=seed_tuple(seed) + (index, 1))
        boot = bootstrap_stats(sample, _one_arm_statistic(sample, grid, eta.b), R=R,
                               seed=seed_tuple(seed) + (index, 2))
    except EstimationError:
        return None
    # Keep the latency and cure-rate columns; the event survival is not studied.
    return boot.point[grid.size:], boot.sd[grid.size:]


def _run_two_arm(scenario, grid, R, seed, index):
    """One draw/estimate/bootstrap cycle: ``(point, sd)``, or None when it
    fails.  The point is ``tau_a_curve`` itself, the SD that of its count-row
    bootstrap (equal to it within rounding)."""
    try:
        s0 = _draw_with_rng(scenario.arm0, stream(seed, index, 0))
        s1 = _draw_with_rng(scenario.arm1, stream(seed, index, 1))
        point = tau_a_curve(s0, s1, eta_tail_from_sample(s0), eta_tail_from_sample(s1),
                            grid=grid).values
        boot = bootstrap_stats((s0, s1), _two_arm_statistic(s0, s1, grid), R=R,
                               seed=seed_tuple(seed) + (index, 2))
    except EstimationError:
        return None
    return point, boot.sd


def _aggregate(outcomes, estimands, grid, truths, runs, R, level):
    z = z_quantile((1.0 + level) / 2.0)
    kept = [outcome for outcome in outcomes if outcome is not None]
    n_failed = runs - len(kept)
    if not kept:
        raise EstimationError("every simulation run failed")
    points, sds = (np.vstack(column) for column in zip(*kept))
    rows = []
    for j, (estimand, t, truth) in enumerate(zip(estimands, grid, truths)):
        covered = np.abs(points[:, j] - truth) <= z * sds[:, j]
        rows.append(
            ExperimentRow(
                estimand=estimand,
                t=float(t),
                truth=float(truth),
                avg_bias=float(np.mean(points[:, j] - truth)),
                sd_boot=float(np.mean(sds[:, j])),
                sd_emp=float(np.std(points[:, j], ddof=1)),
                coverage=float(np.mean(covered)),
                ci_len=float(np.mean(2.0 * z * sds[:, j])),
                runs=len(kept),
                R=R,
                n_failed=n_failed,
            )
        )
    return rows, points


def run_experiment(scenario, runs=200, R=500, seed=0, times=None,
                   levels=DEFAULT_LEVELS, level=0.95, eta_method="tail",
                   b="auto", b_grid=DEFAULT_B_GRID, select_replicates=500,
                   jobs=1, collect_points=False):
    """Monte Carlo study of the estimators under a scenario.

    One-arm scenarios study the latency survival curve (at ``times`` or at
    the times hitting the given survival ``levels``) together with the cure
    rate; two-arm scenarios study the susceptible tau process on ``times``
    (default ``0.1 ... 1.0`` capped to the support).  The runs go to
    ``jobs`` worker processes, at most one per CPU, or with one worker run
    in this process.  Per-run RNG streams derive from ``(seed, run index)``,
    so ``jobs`` changes nothing but wall time.  Returns the rows, or
    ``(rows, per-run point matrix)`` when ``collect_points`` is set.
    """
    if runs < 2 or R < 2:
        raise ValueError("runs and R must both be at least 2")
    if not _valid_level(level):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if eta_method not in ("tail", "extrapolate"):
        raise ValueError(f"eta_method must be 'tail' or 'extrapolate', got {eta_method!r}")
    if times is not None and np.isnan(np.asarray(times, dtype=float)).any():
        raise ValueError("times must not hold NaN")

    two_arm = isinstance(scenario, TwoArmScenario)
    if two_arm:
        if times is None:
            end = min(scenario.arm0.support_end, scenario.arm1.support_end)
            grid = np.asarray([t for t in DEFAULT_TAU_GRID if t <= end])
        else:
            grid = np.asarray(times, dtype=float)
        truths = [
            true_tau_quadrature(scenario.arm0.latency, scenario.arm1.latency,
                                scenario.arm0.eta, scenario.arm1.eta, t,
                                kind="susceptible")
            for t in grid
        ]
        estimands = ["tau_susceptible"] * grid.size
        runner = functools.partial(_run_two_arm, scenario, grid, R, seed)
    else:
        grid_times = _latency_grid(scenario, times, levels)
        grid = np.append(grid_times, math.nan)
        truths = list(np.asarray(scenario.latency.sf(grid_times), dtype=float))
        truths.append(scenario.eta)
        estimands = ["latency_survival"] * grid_times.size + ["cure_rate"]
        runner = functools.partial(_run_one_arm, scenario, grid_times, R, seed, eta_method, b,
                                   b_grid, select_replicates)

    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(runner, range(runs)))
    else:
        outcomes = list(map(runner, range(runs)))

    rows, points = _aggregate(outcomes, estimands, grid, truths, runs, R, level)
    if collect_points:
        return rows, points
    return rows


def empirical_censoring_rate(scenario, n_subjects=100_000, seed=0):
    """Monte Carlo estimate of the probability of censoring under a scenario."""
    probe = Scenario(scenario.latency, scenario.eta, scenario.c_max, n_subjects)
    sample = draw_sample(probe, seed)
    return 1.0 - sample.status.mean()


def _beta_arm(alpha, beta, eta, n=200, c_max=1.0):
    return Scenario(BetaLatency(alpha, beta), eta, c_max, n)


def _weibull_arm(eta, c_max, n=200):
    return Scenario(TruncatedWeibullLatency(0.75, 1.5, 4.0), eta, c_max, n)


#: Named presets matching the built-in study designs.  Each value is
#: (scenario, recommended eta_method).
PRESETS = {
    "table1-eta02": (_beta_arm(1, 3, 0.2), "tail"),
    "table1-eta04": (_beta_arm(1, 3, 0.4), "tail"),
    "table2-eta02": (_beta_arm(1, 3, 0.2, c_max=0.8), "extrapolate"),
    "table2-eta04": (_beta_arm(1, 3, 0.4, c_max=0.8), "extrapolate"),
    "table3-eta02": (
        TwoArmScenario(_beta_arm(1, 4, 0.2), _beta_arm(1, 2, 0.2)), "tail"),
    "table3-eta04": (
        TwoArmScenario(_beta_arm(1, 4, 0.4), _beta_arm(1, 2, 0.4)), "tail"),
    "table4-eta02": (
        TwoArmScenario(_beta_arm(1, 4, 0.2), _beta_arm(0.5, 1.5, 0.2)), "tail"),
    "table4-eta02-04": (
        TwoArmScenario(_beta_arm(1, 4, 0.2), _beta_arm(0.5, 1.5, 0.4)), "tail"),
    "tableS1-eta02": (_weibull_arm(0.2, c_max=5.0), "tail"),
    "tableS1-eta04": (_weibull_arm(0.4, c_max=5.0), "tail"),
    "tableS2-eta02": (_weibull_arm(0.2, c_max=4.0), "tail"),
    "tableS2-eta04": (_weibull_arm(0.4, c_max=4.0), "tail"),
    "tableS4-eta02": (
        TwoArmScenario(_beta_arm(1, 4, 0.2), _beta_arm(1, 3, 0.2)), "tail"),
    "tableS4-eta04": (
        TwoArmScenario(_beta_arm(1, 4, 0.4), _beta_arm(1, 3, 0.4)), "tail"),
    "no-cure": (_beta_arm(1, 4, 0.0), "tail"),
    "two-arm-demo": (
        TwoArmScenario(
            Scenario(TruncatedWeibullLatency(1.2, 18.0, 48.0), 0.27, 54.0, 300),
            Scenario(TruncatedWeibullLatency(1.0, 20.0, 48.0), 0.52, 54.0, 300),
        ),
        "tail",
    ),
}


def preset(name):
    """Look up a named preset; returns ``(scenario, recommended_eta_method)``."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown scenario {name!r}; known presets: {known}") from None
