"""Nonparametric survival analysis with a cure fraction.

Estimate cure rates and latency (susceptible) survival curves from
right-censored data, compare two arms through tau treatment-effect processes
with bootstrap inference, and reproduce the estimators' sampling behavior
with a built-in Monte Carlo laboratory.
"""

from .cure import (
    DEFAULT_B_GRID,
    BGridPoint,
    CureRateEstimate,
    eta_extrapolated,
    eta_tail,
    eta_tail_from_sample,
    resolve_cure_rate,
    select_b,
)
from .data import Sample, Subject, ValidationReport, parse_csv, validate, write_csv
from .distributions import (
    BetaLatency,
    TruncatedWeibullLatency,
    latency_from_dict,
    truncated_weibull_sample,
)
from .errors import (
    CureTauError,
    DegenerateWindowError,
    DomainError,
    EstimationError,
    NoEventsError,
    ParseError,
    SelectionFailedError,
    ToleranceError,
    UnstableStatisticError,
)
from .inference import (
    BootstrapResult,
    CountStatistic,
    TestResult,
    bootstrap_stats,
    cure_difference_test,
    normal_interval,
    two_sided_p,
    z_quantile,
)
from .km import RiskTable, km_fit, risk_table
from .simlab import (
    PRESETS,
    ExperimentRow,
    Scenario,
    TwoArmScenario,
    draw_sample,
    draw_two_arm_sample,
    empirical_censoring_rate,
    preset,
    run_experiment,
    scenario_from_dict,
)
from .stepfun import StepFunction, read_curve_csv, write_curve_csv
from .susceptible import (
    SelfConsistencyReport,
    SusceptibleCurve,
    h1a_hat,
    ipcw_latency_curve,
    location_scale_curve,
    phi_hat,
    product_limit_latency_curve,
    self_consistency_residual,
    susceptible_curve,
)
from .tau import (
    TauCurve,
    decomposition_residual,
    read_tau_csv,
    tau_a_curve,
    tau_curve,
    true_tau_quadrature,
    write_tau_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
