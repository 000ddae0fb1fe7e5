"""Command-line front end: fit one sample, compare two arms, simulate, tune b.

Every artifact write is deterministic given the command line (including the
seed): floats are serialized with ``repr`` and JSON keys are sorted, so
repeated invocations produce byte-identical files.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cure import DEFAULT_B_GRID, eta_tail_from_sample, resolve_cure_rate, select_b
from .data import _csv_columns, _csv_text, parse_csv, validate
from .errors import CureTauError, EstimationError, ParseError
from .inference import (
    _one_arm_statistic,
    _tau_statistic,
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
from .tau import tau_a_curve, tau_curve, write_tau_csv

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


def _read_sample(path):
    try:
        with open(path, "r", newline="") as fh:
            return parse_csv(fh)
    except OSError as exc:
        raise _ValidationFailure(f"cannot read {path}: {exc.strerror}") from exc


def _gate_on_validation(sample):
    report = validate(sample)
    if not report.ok:
        raise _ValidationFailure("; ".join(report.fatal))
    return report


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


def _banded(curve, sd, half):
    return curve.with_bands(sd, curve.values - half * sd, curve.values + half * sd)


def _json_report(directory, payload):
    return _write_text(directory, "report.json",
                       json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _interval_dict(point, sd, level):
    low, high = normal_interval(point, sd, level)
    return {"point": point, "sd": sd, "low": low, "high": high, "level": level}


def _cure_estimate_dict(est):
    return {
        "value": est.value,
        "method": est.method,
        "raw_value": est.raw_value,
        "b": est.b,
        "b_gamma_check": est.b_gamma_check,
    }


def _run_fit(args):
    emit = _emit_set(args.emit)
    b = _parse_b(args.b)
    sample = _read_sample(args.input)
    report = _gate_on_validation(sample)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    eta, fallback = resolve_cure_rate(sample, args.eta_method, b, replicates=args.boot,
                                      seed=seed_tuple(args.seed) + (1,))
    survival = km_fit(sample, "event")
    censoring = km_fit(sample, "censoring")
    latency = susceptible_curve(sample, eta)
    phi = phi_hat(sample, eta)

    grid = np.concatenate(([0.0], survival.x))
    boot = bootstrap_stats(sample, _one_arm_statistic(sample, grid, eta.b), R=args.boot,
                           seed=seed_tuple(args.seed) + (0,))
    k = grid.size
    sd_s, sd_lat, sd_eta = boot.sd[:k], boot.sd[k:2 * k], float(boot.sd[-1])
    half = -normal_interval(0.0, 1.0, args.level)[0]

    def bands(values, sds):
        return values - half * sds, values + half * sds

    s_vals = survival(grid)
    lat_vals = latency.curve(grid)
    if "csv" in emit:
        _write_text(outdir, "survival.csv",
                    write_curve_csv(survival, bands=bands(s_vals, sd_s)))
        _write_text(outdir, "censoring_survival.csv", write_curve_csv(censoring))
        _write_text(outdir, "latency_survival.csv",
                    write_curve_csv(latency.curve, bands=bands(lat_vals, sd_lat)))
        _write_text(outdir, "susceptible_in_riskset.csv", write_curve_csv(phi))
    if "svg" in emit:
        _write_text(outdir, "survival.svg", step_plot_svg(
            [("event survival", survival.x, survival.y, 1.0,
              bands(survival.y, sd_s[1:])),
             ("censoring survival", censoring.x, censoring.y, 1.0, None)],
            title="Survival curves", y_label="survival"))
        _write_text(outdir, "latency_survival.svg", step_plot_svg(
            [("latency survival", latency.curve.x, latency.curve.y, 1.0,
              bands(lat_vals[1:], sd_lat[1:]))],
            title="Latency (susceptible) survival", y_label="survival"))
        _write_text(outdir, "susceptible_in_riskset.svg", step_plot_svg(
            [("susceptible share of risk set", phi.x, phi.y, phi.initial_value, None)],
            title="Susceptible proportion in the risk set", y_label="proportion"))
    eta_interval = _interval_dict(eta.value, sd_eta, args.level)
    if "report" in emit:
        _json_report(outdir, {
            "inputs": {
                "command": "fit",
                "path": str(args.input),
                "n": sample.n,
                "n_events": sample.n_events,
                "eta_method": args.eta_method,
                "seed": args.seed,
                "boot": args.boot,
                "level": args.level,
            },
            "estimates": {
                "cure_rate": _cure_estimate_dict(eta),
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


def _run_compare(args):
    emit = _emit_set(args.emit)
    b = _parse_b(args.b)
    b_settings = [b if text is None else _parse_b(text, flag)
                  for text, flag in ((args.b0, "--b0"), (args.b1, "--b1"))]
    sample = _read_sample(args.input)
    report = _gate_on_validation(sample)
    s0, s1 = _split_two_arm(sample)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    half = -normal_interval(0.0, 1.0, args.level)[0]

    etas = [eta_tail_from_sample(s) for s in (s0, s1)]
    curves = {}
    for label, arm, eta in ((0, s0, etas[0]), (1, s1, etas[1])):
        curves[label] = {
            "survival": km_fit(arm, "event"),
            "censoring": km_fit(arm, "censoring"),
            "latency": susceptible_curve(arm, eta).curve,
            "phi": phi_hat(arm, eta),
        }

    tau = tau_curve(s0, s1)
    tau_a = tau_a_curve(s0, s1, etas[0], etas[1], grid=tau.grid)
    boot = bootstrap_stats((s0, s1), _tau_statistic(tau.grid, overall=True), R=args.boot,
                           seed=seed_tuple(args.seed) + (0,))
    k = tau.grid.size
    tau = _banded(tau, boot.sd[:k], half)
    tau_a = _banded(tau_a, boot.sd[k:], half)

    test_tail = cure_difference_test(s0, s1, method="tail", R=args.boot,
                                     seed=seed_tuple(args.seed) + (1,),
                                     level=args.level)

    extrap = None
    if args.eta_method == "extrapolate":
        extrap = _compare_extrapolated(args, s0, s1, tau.grid, half, b_settings)

    if "csv" in emit:
        for label in (0, 1):
            _write_text(outdir, f"survival_arm{label}.csv",
                        write_curve_csv(curves[label]["survival"]))
            _write_text(outdir, f"censoring_survival_arm{label}.csv",
                        write_curve_csv(curves[label]["censoring"]))
            _write_text(outdir, f"latency_survival_arm{label}.csv",
                        write_curve_csv(curves[label]["latency"]))
            _write_text(outdir, f"susceptible_in_riskset_arm{label}.csv",
                        write_curve_csv(curves[label]["phi"]))
        _write_text(outdir, "tau.csv", write_tau_csv(tau))
        _write_text(outdir, "tau_susceptible.csv", write_tau_csv(tau_a))
        if extrap is not None:
            for label in (0, 1):
                _write_text(outdir, f"latency_survival_extrap_arm{label}.csv",
                            write_curve_csv(extrap["latency"][label]))
            _write_text(outdir, "tau_susceptible_extrap.csv",
                        write_tau_csv(extrap["tau_a"]))
    if "svg" in emit:
        _write_text(outdir, "survival_both.svg", step_plot_svg(
            [(f"arm {label}", curves[label]["survival"].x,
              curves[label]["survival"].y, 1.0, None) for label in (0, 1)],
            title="Event survival by arm", y_label="survival"))
        _write_text(outdir, "latency_survival_both.svg", step_plot_svg(
            [(f"arm {label}", curves[label]["latency"].x,
              curves[label]["latency"].y, 1.0, None) for label in (0, 1)],
            title="Latency survival by arm", y_label="survival"))
        _write_text(outdir, "cured_in_riskset.svg", step_plot_svg(
            [(f"arm {label}", curves[label]["phi"].x,
              1.0 - curves[label]["phi"].y,
              1.0 - curves[label]["phi"].initial_value, None)
             for label in (0, 1)],
            title="Cured proportion in the risk set", y_label="proportion"))
        _write_text(outdir, "tau.svg",
                    tau_to_svg(tau, "tau", title="Treatment-effect process",
                               y_label="tau"))
        _write_text(outdir, "tau_susceptible.svg",
                    tau_to_svg(tau_a, "susceptible tau",
                               title="Susceptible treatment-effect process",
                               y_label="tau"))
        if extrap is not None:
            _write_text(outdir, "latency_survival_extrap_both.svg", step_plot_svg(
                [(f"arm {label}", extrap["latency"][label].x,
                  extrap["latency"][label].y, 1.0, None) for label in (0, 1)],
                title="Latency survival by arm (extrapolated cure rate)",
                y_label="survival"))
            _write_text(outdir, "tau_susceptible_extrap.svg",
                        tau_to_svg(extrap["tau_a"], "susceptible tau",
                                   title="Susceptible process (extrapolated)",
                                   y_label="tau"))

    payload = {
        "inputs": {
            "command": "compare",
            "path": str(args.input),
            "n": sample.n,
            "n0": s0.n,
            "n1": s1.n,
            "eta_method": args.eta_method,
            "seed": args.seed,
            "boot": args.boot,
            "level": args.level,
        },
        "estimates": {
            "cure_rate_arm0": _cure_estimate_dict(etas[0]),
            "cure_rate_arm1": _cure_estimate_dict(etas[1]),
            "tau_end": float(tau.values[-1]) if tau.values.size else 0.0,
            "tau_susceptible_end":
                float(tau_a.values[-1]) if tau_a.values.size else 0.0,
        },
        "intervals": {"cure_difference": _test_dict(test_tail)},
        "diagnostics": {
            "warnings": list(report.warnings),
            "bootstrap_missing": boot.n_missing,
        },
    }
    if extrap is not None:
        payload["estimates"]["cure_rate_extrap_arm0"] = _cure_estimate_dict(
            extrap["etas"][0])
        payload["estimates"]["cure_rate_extrap_arm1"] = _cure_estimate_dict(
            extrap["etas"][1])
        payload["intervals"]["cure_difference_extrapolated"] = {
            **_test_dict(extrap["test"]),
            "b0": extrap["etas"][0].b,
            "b1": extrap["etas"][1].b,
        }
        payload["diagnostics"]["extrapolation_notes"] = extrap["notes"]
    if "report" in emit:
        _json_report(outdir, payload)
    print(f"cure_rate arm0 (tail): {etas[0].value:.4f}")
    print(f"cure_rate arm1 (tail): {etas[1].value:.4f}")
    print(f"cure_difference (tail): {test_tail.difference:.4f} "
          f"[{test_tail.ci[0]:.4f}, {test_tail.ci[1]:.4f}] "
          f"p={test_tail.p_value:.3g}")
    if extrap is not None:
        test = extrap["test"]
        print(f"cure_difference ({test.method}): {test.difference:.4f} "
              f"[{test.ci[0]:.4f}, {test.ci[1]:.4f}] p={test.p_value:.3g}")
    return EXIT_OK


def _test_dict(test):
    return {"point": test.difference, "sd": test.sd, "low": test.ci[0],
            "high": test.ci[1], "level": test.level, "p_value": test.p_value,
            "method": test.method}


def _compare_extrapolated(args, s0, s1, grid, half, b_settings):
    notes = []
    etas = []
    for label, arm, b in zip((0, 1), (s0, s1), b_settings):
        est, note = resolve_cure_rate(arm, "extrapolate", b, replicates=args.boot,
                                      seed=seed_tuple(args.seed) + (3, label))
        if note:
            notes.append(f"arm {label}: {note}")
        etas.append(est)
    b0, b1 = etas[0].b, etas[1].b
    tau_a = tau_a_curve(s0, s1, etas[0], etas[1], grid=grid)
    boot = bootstrap_stats((s0, s1), _tau_statistic(grid, b0, b1), R=args.boot,
                           seed=seed_tuple(args.seed) + (4,))
    method = "tail" if b0 is None or b1 is None else "extrapolated"
    test = cure_difference_test(s0, s1, method=method, b0=b0, b1=b1, R=args.boot,
                                seed=seed_tuple(args.seed) + (2,), level=args.level)
    if method == "tail":
        notes.append("cure difference used the tail method after fallback")
    latencies = {label: susceptible_curve(arm, est).curve
                 for label, arm, est in ((0, s0, etas[0]), (1, s1, etas[1]))}
    return {"etas": etas, "latency": latencies, "tau_a": _banded(tau_a, boot.sd, half),
            "test": test, "notes": notes}


_EXPERIMENT_HEADER = ("t", "truth", "a", "b", "c", "d", "e")
_EXPERIMENT_FIELDS = ("truth", "avg_bias", "sd_boot", "sd_emp", "coverage", "ci_len")


def _t_field(row):
    return "" if math.isnan(row.t) else row.t


def write_experiment_csv(rows):
    """Long-form rows ``t,truth,a,b,c,d,e``; the cure-rate row has empty t."""
    return _csv_text(_EXPERIMENT_HEADER, (
        [_t_field(row)] + [getattr(row, name) for name in _EXPERIMENT_FIELDS]
        for row in rows))


def read_experiment_csv(source):
    """Parse rows written by :func:`write_experiment_csv` into dicts."""
    header, columns = _csv_columns(source, (_EXPERIMENT_HEADER,), blank_t=math.nan)
    return [dict(zip(header, values)) for values in zip(*columns)]


def _experiment_table_csv(rows):
    header = ["row"] + ["cure_rate" if math.isnan(row.t) else row.t for row in rows]
    return _csv_text(header, (
        [label] + [getattr(row, name) for row in rows]
        for label, name in zip(_EXPERIMENT_HEADER[1:], _EXPERIMENT_FIELDS)))


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
        jobs=max(1, args.jobs), collect_points=args.emit_raw,
    )
    rows, points = result if args.emit_raw else (result, None)
    _write_text(outdir, "experiment.csv", write_experiment_csv(rows))
    _write_text(outdir, "experiment_table.csv", _experiment_table_csv(rows))
    if points is not None:
        _write_text(outdir, "raw_estimates.csv", _csv_text(
            ("run", "estimand", "t", "value"),
            ((run, row.estimand, _t_field(row), points[run, col])
             for run in range(points.shape[0]) for col, row in enumerate(rows))))
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
    sample = _read_sample(args.input)
    _gate_on_validation(sample)
    grid = _parse_grid(args.grid) if args.grid else DEFAULT_B_GRID
    bad = [b for b in grid if not 0.0 < b < 1.0]
    if bad:
        raise _ValidationFailure("b grid values must lie strictly inside (0, 1)")
    b_star, diagnostics = select_b(sample, grid=grid, replicates=args.boot,
                                   seed=seed_tuple(args.seed))
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_text(outdir, "btune.csv", _csv_text(
        ("b", "eta_estimate", "boot_mean", "criterion", "missing", "selected"),
        ((p.b, p.eta_check, p.boot_mean, p.criterion, p.n_missing, int(p.b == b_star))
         for p in diagnostics)))
    print(f"b_star: {b_star!r}")
    return EXIT_OK


def _add_common(parser, with_input=True):
    if with_input:
        parser.add_argument("--input", required=True, help="CSV file: time,status[,arm]")
    parser.add_argument("--output-dir", default=".", help="directory for artifacts")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed (>= 0)")
    parser.add_argument("--boot", type=int, default=500,
                        help="bootstrap replicates")
    parser.add_argument("--level", type=float, default=0.95,
                        help="confidence level")


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
    fit.set_defaults(func=_run_fit)

    compare = sub.add_parser("compare", help="compare two arms")
    _add_common(compare)
    compare.add_argument("--eta-method", choices=("tail", "extrapolate"),
                         default="tail")
    compare.add_argument("--b", default="auto")
    compare.add_argument("--b0", default=None, help="arm-0 override")
    compare.add_argument("--b1", default=None, help="arm-1 override")
    compare.add_argument("--emit", default="csv,report")
    compare.set_defaults(func=_run_compare)

    simulate = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    _add_common(simulate, with_input=False)
    simulate.add_argument("--scenario", default=None, help="preset name")
    simulate.add_argument("--scenario-file", default=None, help="JSON scenario")
    simulate.add_argument("--runs", type=int, default=200)
    simulate.add_argument("--full-profile", action="store_true",
                          help="use 500 runs x 2000 resamples")
    simulate.add_argument("--grid", default=None, help="comma list of times")
    simulate.add_argument("--eta-method", choices=("tail", "extrapolate"),
                          default=None)
    simulate.add_argument("--b", default="auto")
    simulate.add_argument("--jobs", type=int, default=1, help="parallel runs")
    simulate.add_argument("--emit-raw", action="store_true",
                          help="also write per-run estimates")
    simulate.set_defaults(func=_run_simulate)

    btune = sub.add_parser("btune", help="tune the extrapolation scale factor")
    _add_common(btune)
    btune.add_argument("--grid", default=None, help="comma list of b values")
    btune.set_defaults(func=_run_btune)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        print("error: seed must be non-negative", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args)
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
