"""Command-line front end: fit one sample, compare two arms, simulate, tune b.

Every artifact write is deterministic given the command line (including the
seed): floats are serialized with ``repr`` and JSON keys are sorted, so
repeated invocations produce byte-identical files.

Each random stream is ``--seed`` extended as shown: ``fit`` bootstraps on (0,)
and selects b on (1,), ``btune`` selects b on the seed alone, and ``compare``
makes one two-arm pass (``_two_arm_pass``) per cure-rate method.  The tail
pass, tau bootstrap (0,) and test (1,), writes ``tau``, ``tau_susceptible``,
``latency_survival_arm*`` and ``latency_survival_both``, and the report's
``cure_rate_arm*``, ``tau_end``, ``tau_susceptible_end``, ``cure_difference``
and ``bootstrap_missing``.  The extrapolated pass, b selection (3, arm), tau
bootstrap (4,) and test (2,), writes the two latency files and
``tau_susceptible`` with ``_extrap`` added, and ``cure_rate_extrap_arm*``,
``cure_difference_extrapolated``, ``bootstrap_missing_extrapolated`` and
``extrapolation_notes``.  Each ``cure_difference*`` carries its test's
``n_missing``.  The arms' other curves use the tail cure rate.

``fit``, ``compare`` and ``btune`` import numpy alone, not ``scipy.special``:
only a Beta latency needs it, so only ``simulate`` on a Beta scenario loads
its compiled ``_ufuncs``, and not the package, at the first Beta call (see
``distributions``).
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .cure import DEFAULT_B_GRID, resolve_cure_rate, select_b
from .data import _csv_columns, _csv_text, parse_csv, validate
from .errors import CureTauError, EstimationError, ParseError
from .inference import (
    _one_arm_statistic,
    _two_arm_statistic,
    _valid_level,
    bootstrap_stats,
    cure_difference_test,
    normal_interval,
)
from .km import km_fit
from .seeding import seed_tuple
from .simlab import run_experiment, preset, scenario_from_dict, TwoArmScenario
from .stepfun import write_curve_csv
from .susceptible import phi_hat, susceptible_curve
from .svgplot import step_plot_svg, tau_to_svg
from .tau import TauCurve, _tau_rows, write_tau_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3


class _ValidationFailure(Exception):
    pass


def _write_text(directory, name, text):
    path = Path(directory) / name
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


def _validated_sample(path):
    """The sample in the CSV file at ``path`` and its validation report,
    refused when the file cannot be read or the report is fatal."""
    try:
        # utf-8-sig drops a leading byte-order mark, as spreadsheets write.
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            sample = parse_csv(fh)
    except OSError as exc:
        raise _ValidationFailure(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise _ValidationFailure(f"cannot read {path}: {exc}") from exc
    report = validate(sample)
    if not report.ok:
        raise _ValidationFailure("; ".join(report.fatal))
    return sample, report


def _emit_set(text):
    allowed = {"csv", "svg", "report"}
    items = {token.strip() for token in text.split(",") if token.strip()}
    unknown = items - allowed
    if unknown:
        raise _ValidationFailure(f"unknown emit target(s): {', '.join(sorted(unknown))}")
    return items


def _parse_grid(text):
    try:
        values = [float(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise _ValidationFailure(f"malformed grid {text!r}") from None
    if any(math.isnan(value) for value in values):
        raise _ValidationFailure(f"grid must not hold NaN, got {text!r}")
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise _ValidationFailure("grid must be strictly increasing")
    return values


def _parse_b(text, flag="--b"):
    """``"auto"`` or the scale factor in (0, 1) given by ``--b``/``--b0``/``--b1``."""
    if text == "auto":
        return text
    try:
        b = float(text)
    except (TypeError, ValueError):
        raise _ValidationFailure(f"{flag} must be 'auto' or a number, got {text!r}") from None
    if not 0.0 < b < 1.0:
        raise _ValidationFailure(f"{flag} must lie strictly inside (0, 1)")
    return b


def _json_report(directory, payload):
    return _write_text(directory, "report.json",
                       json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _inputs(args, **sizes):
    return {"command": args.subcommand, "path": str(args.input), **sizes,
            "eta_method": args.eta_method, "seed": args.seed, "boot": args.boot,
            "level": args.level}


def _arm_curves(sample, eta):
    """Event and censoring survival, and the susceptible share of the risk set."""
    return km_fit(sample, "event"), km_fit(sample, "censoring"), phi_hat(sample, eta)


def _bands(values, sd, level):
    half = -normal_interval(0.0, 1.0, level)[0]
    return values - half * sd, values + half * sd


def _run_fit(args):
    emit = _emit_set(args.emit)
    b = _parse_b(args.b)
    sample, report = _validated_sample(args.input)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    eta, fallback = resolve_cure_rate(sample, args.eta_method, b, replicates=args.boot,
                                      seed=seed_tuple(args.seed) + (1,))
    survival, censoring, phi = _arm_curves(sample, eta)
    latency = susceptible_curve(sample, eta)

    grid = np.concatenate(([0.0], survival.x))
    boot = bootstrap_stats(sample, _one_arm_statistic(sample, grid, eta.b), R=args.boot,
                           seed=seed_tuple(args.seed) + (0,))
    # The bootstrap's point is S and S_a at the grid, then the cure rate.
    k = grid.size
    s_bands, lat_bands = (_bands(boot.point[part], boot.sd[part], args.level)
                          for part in (slice(k), slice(k, 2 * k)))
    sd_eta = float(boot.sd[-1])
    if "csv" in emit:
        _write_text(outdir, "survival.csv", write_curve_csv(survival, bands=s_bands))
        _write_text(outdir, "censoring_survival.csv", write_curve_csv(censoring))
        _write_text(outdir, "latency_survival.csv",
                    write_curve_csv(latency.curve, bands=lat_bands))
        _write_text(outdir, "susceptible_in_riskset.csv", write_curve_csv(phi))
    if "svg" in emit:
        _write_text(outdir, "survival.svg", step_plot_svg(
            [("event survival", survival.x, survival.y, 1.0, [band[1:] for band in s_bands]),
             ("censoring survival", censoring.x, censoring.y, 1.0, None)],
            title="Survival curves", y_label="survival"))
        _write_text(outdir, "latency_survival.svg", step_plot_svg(
            [("latency survival", latency.curve.x, latency.curve.y, 1.0,
              [band[1:] for band in lat_bands])],
            title="Latency (susceptible) survival", y_label="survival"))
        _write_text(outdir, "susceptible_in_riskset.svg", step_plot_svg(
            [("susceptible share of risk set", phi.x, phi.y, phi.initial_value, None)],
            title="Susceptible proportion in the risk set", y_label="proportion"))
    low, high = normal_interval(eta.value, sd_eta, args.level)
    eta_interval = {"point": eta.value, "sd": sd_eta, "low": low, "high": high,
                    "level": args.level}
    if "report" in emit:
        _json_report(outdir, {
            "inputs": _inputs(args, n=sample.n, n_events=sample.n_events),
            "estimates": {
                "cure_rate": dataclasses.asdict(eta),
                "latency_form_divergence": latency.form_divergence,
                "latency_clamped": latency.clamped,
            },
            "intervals": {"cure_rate": eta_interval},
            "diagnostics": {
                "warnings": list(report.warnings),
                "fallback": fallback,
                "bootstrap_missing": boot.n_missing,
            },
        })
    print(f"cure_rate ({eta.method}): {eta.value:.4f} "
          f"[{eta_interval['low']:.4f}, {eta_interval['high']:.4f}]")
    if fallback:
        print(f"note: {fallback}", file=sys.stderr)
    return EXIT_OK


def _split_two_arm(sample):
    if not sample.has_arms:
        raise _ValidationFailure("two-sample comparison requires an 'arm' column")
    s0, s1 = sample.split_arms()
    for label, arm in ((0, s0), (1, s1)):
        if arm.n == 0:
            raise _ValidationFailure(f"no subjects in arm {label}")
        if arm.n_events == 0:
            raise _ValidationFailure(f"no events in arm {label}")
    return s0, s1


def _by_arm(curves):
    return [(f"arm {label}", curve.x, curve.y, 1.0, None) for label, curve in enumerate(curves)]


def _two_arm_pass(args, arms, grid, b_settings=None):
    """Both arms analysed under one cure-rate method: the tail one, or with
    ``b_settings`` (each arm's ``--b``) the extrapolated one, falling back to
    the tail one per arm.  The tau processes are the points of the bootstrap
    that bands them, which includes the overall process on the tail pass."""
    extrap = b_settings is not None
    seed = seed_tuple(args.seed)
    etas, notes = [], []
    for label, arm, b in zip((0, 1), arms, b_settings or (None, None)):
        eta, note = resolve_cure_rate(arm, "extrapolate" if extrap else "tail", b,
                                      replicates=args.boot, seed=seed + (3, label))
        etas.append(eta)
        if note:
            notes.append(f"arm {label}: {note}")
    b0, b1 = etas[0].b, etas[1].b
    boot = bootstrap_stats(arms, _two_arm_statistic(*arms, grid, b0, b1, overall=not extrap),
                           R=args.boot, seed=seed + ((4,) if extrap else (0,)))

    def banded(kind, columns):
        values, sd = boot.point[columns], boot.sd[columns]
        return TauCurve(grid, values, kind, sd, *_bands(values, sd, args.level))

    method = "tail" if None in (b0, b1) else "extrapolated"
    test = cure_difference_test(*arms, method=method, b0=b0, b1=b1, R=args.boot,
                                seed=seed + ((2,) if extrap else (1,)), level=args.level)
    if extrap and method == "tail":
        notes.append("cure difference used the tail method after fallback")
    return SimpleNamespace(
        suffix="_extrap" if extrap else "", etas=etas, test=test, notes=notes,
        titles=(("Latency survival by arm (extrapolated cure rate)",
                 "Susceptible process (extrapolated)") if extrap else
                ("Latency survival by arm", "Susceptible treatment-effect process")),
        n_missing=boot.n_missing, tau=None if extrap else banded("overall", slice(0, grid.size)),
        tau_a=banded("susceptible", slice(boot.point.size - grid.size, None)),
        latency=[susceptible_curve(arm, eta).curve for arm, eta in zip(arms, etas)])


def _run_compare(args):
    emit = _emit_set(args.emit)
    b = _parse_b(args.b)
    b_settings = [b if text is None else _parse_b(text, flag)
                  for text, flag in ((args.b0, "--b0"), (args.b1, "--b1"))]
    sample, report = _validated_sample(args.input)
    arms, n = _split_two_arm(sample), sample.n
    del sample  # with its sort from the tie scan: the arms sort their own
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    grid = _tau_rows(*arms)[0]  # where either tau process can move
    passes = [_two_arm_pass(args, arms, grid)]
    if args.eta_method == "extrapolate":
        passes.append(_two_arm_pass(args, arms, grid, b_settings))
    tail = passes[0]
    curves = [_arm_curves(arm, eta) for arm, eta in zip(arms, tail.etas)]
    survivals, _, phis = zip(*curves)

    if "csv" in emit:
        for label, arm_curves in enumerate(curves):
            for name, curve in zip(("survival", "censoring_survival", "susceptible_in_riskset"),
                                   arm_curves):
                _write_text(outdir, f"{name}_arm{label}.csv", write_curve_csv(curve))
        _write_text(outdir, "tau.csv", write_tau_csv(tail.tau))
        for run in passes:
            for label, curve in enumerate(run.latency):
                _write_text(outdir, f"latency_survival{run.suffix}_arm{label}.csv",
                            write_curve_csv(curve))
            _write_text(outdir, f"tau_susceptible{run.suffix}.csv", write_tau_csv(run.tau_a))
    if "svg" in emit:
        _write_text(outdir, "survival_both.svg", step_plot_svg(
            _by_arm(survivals), title="Event survival by arm", y_label="survival"))
        _write_text(outdir, "cured_in_riskset.svg", step_plot_svg(
            [(f"arm {label}", phi.x, 1.0 - phi.y, 1.0 - phi.initial_value, None)
             for label, phi in enumerate(phis)],
            title="Cured proportion in the risk set", y_label="proportion"))
        _write_text(outdir, "tau.svg", tau_to_svg(
            tail.tau, "tau", title="Treatment-effect process", y_label="tau"))
        for run in passes:
            latency_title, tau_title = run.titles
            _write_text(outdir, f"latency_survival{run.suffix}_both.svg", step_plot_svg(
                _by_arm(run.latency), title=latency_title, y_label="survival"))
            _write_text(outdir, f"tau_susceptible{run.suffix}.svg", tau_to_svg(
                run.tau_a, "susceptible tau", title=tau_title, y_label="tau"))

    estimates = {f"cure_rate{run.suffix}_arm{label}": dataclasses.asdict(eta)
                 for run in passes for label, eta in enumerate(run.etas)}
    payload = {
        "inputs": _inputs(args, n=n, n0=arms[0].n, n1=arms[1].n),
        "estimates": {
            **estimates,
            "tau_end": float(tail.tau.values[-1]) if grid.size else 0.0,
            "tau_susceptible_end": float(tail.tau_a.values[-1]) if grid.size else 0.0,
        },
        "intervals": {"cure_difference": _test_dict(tail.test)},
        "diagnostics": {"warnings": list(report.warnings), "bootstrap_missing": tail.n_missing},
    }
    for run in passes[1:]:
        payload["intervals"]["cure_difference_extrapolated"] = {
            **_test_dict(run.test), "b0": run.etas[0].b, "b1": run.etas[1].b}
        payload["diagnostics"]["bootstrap_missing_extrapolated"] = run.n_missing
        payload["diagnostics"]["extrapolation_notes"] = run.notes
    if "report" in emit:
        _json_report(outdir, payload)
    for label, eta in enumerate(tail.etas):
        print(f"cure_rate arm{label} (tail): {eta.value:.4f}")
    for run in passes:
        test = run.test
        print(f"cure_difference ({test.method}): {test.difference:.4f} "
              f"[{test.ci[0]:.4f}, {test.ci[1]:.4f}] p={test.p_value:.3g}")
    return EXIT_OK


def _test_dict(test):
    return {"point": test.difference, "sd": test.sd, "low": test.ci[0],
            "high": test.ci[1], "level": test.level, "p_value": test.p_value,
            "method": test.method, "n_missing": test.n_missing}


_EXPERIMENT_HEADER = ("t", "truth", "a", "b", "c", "d", "e")
_EXPERIMENT_FIELDS = ("truth", "avg_bias", "sd_boot", "sd_emp", "coverage", "ci_len")


def _t_field(row):
    return "" if math.isnan(row.t) else row.t


def write_experiment_csv(rows):
    """Long-form rows ``t,truth,a,b,c,d,e``; the cure-rate row has empty t."""
    return _csv_text(_EXPERIMENT_HEADER, zip(*(
        [_t_field(row)] + [getattr(row, name) for name in _EXPERIMENT_FIELDS]
        for row in rows)))


def read_experiment_csv(source):
    """Parse rows written by :func:`write_experiment_csv` into dicts."""
    columns = _csv_columns(source, _EXPERIMENT_HEADER, blank_t=math.nan)
    return [dict(zip(_EXPERIMENT_HEADER, values)) for values in zip(*columns)]


def _experiment_table_csv(rows):
    header = ["row"] + ["cure_rate" if math.isnan(row.t) else row.t for row in rows]
    return _csv_text(header, [_EXPERIMENT_HEADER[1:]] + [
        [getattr(row, name) for name in _EXPERIMENT_FIELDS] for row in rows])


def _run_simulate(args):
    if (args.scenario is None) == (args.scenario_file is None):
        raise _ValidationFailure("give exactly one of --scenario or --scenario-file")
    if args.scenario is not None:
        try:
            scenario, recommended = preset(args.scenario)
        except ValueError as exc:
            raise _ValidationFailure(str(exc)) from None
    else:
        try:
            with open(args.scenario_file) as fh:
                scenario = scenario_from_dict(json.load(fh))
        except OSError as exc:
            raise _ValidationFailure(f"cannot read {args.scenario_file}: {exc.strerror}") from exc
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise _ValidationFailure(f"bad scenario file: {exc}") from None
        recommended = "tail"
    eta_method = args.eta_method or recommended
    if isinstance(scenario, TwoArmScenario) and eta_method == "extrapolate":
        raise _ValidationFailure("two-arm experiments use the tail estimator")
    runs, boot = args.runs, args.boot
    if args.full_profile:
        runs, boot = 500, 2000
    times = _parse_grid(args.grid) if args.grid else None
    b_setting = _parse_b(args.b)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(
        scenario, runs=runs, R=boot, seed=args.seed, times=times,
        level=args.level, eta_method=eta_method, b=b_setting,
        jobs=args.jobs, collect_points=args.emit_raw,
    )
    rows, points = result if args.emit_raw else (result, None)
    _write_text(outdir, "experiment.csv", write_experiment_csv(rows))
    _write_text(outdir, "experiment_table.csv", _experiment_table_csv(rows))
    if points is not None:
        _write_text(outdir, "raw_estimates.csv", _csv_text(
            ("run", "estimand", "t", "value"),
            zip(*((run, row.estimand, _t_field(row), points[run, col])
                  for run in range(points.shape[0]) for col, row in enumerate(rows)))))
    _json_report(outdir, {
        "inputs": {
            "command": "simulate",
            "scenario": args.scenario or str(args.scenario_file),
            "spec": scenario.to_dict(),
            "two_arm": isinstance(scenario, TwoArmScenario),
            "runs": runs,
            "boot": boot,
            "seed": args.seed,
            "eta_method": eta_method,
            "level": args.level,
        },
        "estimates": [
            {"estimand": row.estimand, "t": None if math.isnan(row.t) else row.t,
             **{name: getattr(row, name) for name in _EXPERIMENT_FIELDS}}
            for row in rows
        ],
        "intervals": {},
        "diagnostics": {"failed_runs": rows[0].n_failed if rows else 0},
    })
    for row in rows:
        name = "cure_rate" if math.isnan(row.t) else f"{row.estimand}@{row.t:g}"
        print(f"{name}: truth={row.truth:.4f} bias={row.avg_bias:+.4f} "
              f"sd_boot={row.sd_boot:.4f} coverage={row.coverage:.3f}")
    return EXIT_OK


def _run_btune(args):
    sample, _ = _validated_sample(args.input)
    grid = _parse_grid(args.grid) if args.grid else DEFAULT_B_GRID
    if not all(0.0 < b < 1.0 for b in grid):
        raise _ValidationFailure("b grid values must lie strictly inside (0, 1)")
    b_star, diagnostics = select_b(sample, grid=grid, replicates=args.boot,
                                   seed=seed_tuple(args.seed))
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_text(outdir, "btune.csv", _csv_text(
        ("b", "eta_estimate", "boot_mean", "criterion", "missing", "selected"),
        zip(*((p.b, p.eta_check, p.boot_mean, p.criterion, p.n_missing, int(p.b == b_star))
              for p in diagnostics))))
    print(f"b_star: {b_star!r}")
    return EXIT_OK


def _add_common(parser, with_input=True, min_boot=2):
    if with_input:
        parser.add_argument("--input", required=True, help="CSV file: time,status[,arm]")
    parser.add_argument("--output-dir", default=".", help="directory for artifacts")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed (>= 0)")
    parser.add_argument("--boot", type=int, default=500,
                        help=f"bootstrap replicates (>= {min_boot})")
    parser.add_argument("--level", type=float, default=0.95, help="confidence level in (0, 1)")
    parser.set_defaults(min_boot=min_boot)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curetau",
        description="Cure-fraction survival analysis and tau-process comparison",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fit = sub.add_parser("fit", help="fit one sample")
    _add_common(fit)
    fit.add_argument("--eta-method", choices=("tail", "extrapolate"), default="tail")
    fit.add_argument("--b", default="auto", help="'auto' or a value in (0, 1)")
    fit.add_argument("--emit", default="csv,report", help="comma list of csv,svg,report")

    compare = sub.add_parser("compare", help="compare two arms")
    _add_common(compare)
    compare.add_argument("--eta-method", choices=("tail", "extrapolate"), default="tail")
    compare.add_argument("--b", default="auto")
    compare.add_argument("--b0", default=None, help="arm-0 override")
    compare.add_argument("--b1", default=None, help="arm-1 override")
    compare.add_argument("--emit", default="csv,report")

    simulate = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    _add_common(simulate, with_input=False)
    simulate.add_argument("--scenario", default=None, help="preset name")
    simulate.add_argument("--scenario-file", default=None, help="JSON scenario")
    simulate.add_argument("--runs", type=int, default=200, help="Monte Carlo runs (>= 2)")
    simulate.add_argument("--full-profile", action="store_true",
                          help="use 500 runs x 2000 resamples")
    simulate.add_argument("--grid", default=None, help="comma list of times")
    simulate.add_argument("--eta-method", choices=("tail", "extrapolate"),
                          default=None)
    simulate.add_argument("--b", default="auto")
    simulate.add_argument("--jobs", type=int, default=1,
                          help="parallel runs (at most one worker per CPU)")
    simulate.add_argument("--emit-raw", action="store_true",
                          help="also write per-run estimates")

    btune = sub.add_parser("btune", help="tune the extrapolation scale factor")
    _add_common(btune, min_boot=1)
    btune.add_argument("--grid", default=None, help="comma list of b values")
    return parser


# Parsing does not change the parser, so one process builds it once.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    # Flag values outside the bounds the library applies, rejected before any work.
    for problem, bad in (("seed must be non-negative", args.seed < 0),
                         (f"--boot must be at least {args.min_boot}", args.boot < args.min_boot),
                         ("--runs must be at least 2", getattr(args, "runs", 2) < 2),
                         ("--level must lie strictly inside (0, 1)", not _valid_level(args.level)),
                         ("--jobs must be at least 1", getattr(args, "jobs", 1) < 1)):
        if bad:
            print(f"error: {problem}", file=sys.stderr)
            return EXIT_VALIDATION
    # Looked up per call, so a replaced ``_run_*`` is the one that runs.
    run = {"fit": _run_fit, "compare": _run_compare, "simulate": _run_simulate,
           "btune": _run_btune}[args.subcommand]
    try:
        return run(args)
    except (_ValidationFailure, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except CureTauError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
