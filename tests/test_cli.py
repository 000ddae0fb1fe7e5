import concurrent.futures
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

import curetau as ct
from curetau import cli
from curetau.cli import main, read_experiment_csv

D1_TEXT = "time,status\n1,1\n2,0\n3,1\n4,0\n5,0\n"


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.csv"
    path.write_text(D1_TEXT)
    return path


@pytest.fixture
def two_arm_file(tmp_path):
    scenario, _ = ct.preset("two-arm-demo")
    sample = ct.draw_two_arm_sample(scenario, 11)
    path = tmp_path / "two.csv"
    path.write_text(ct.write_csv(sample))
    return path


def test_fit_reports_tail_estimate(tmp_path, d1_file, capsys):
    out = tmp_path / "fit"
    rc = main(["fit", "--input", str(d1_file), "--boot", "200", "--seed", "7",
               "--eta-method", "tail", "--output-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert round(report["estimates"]["cure_rate"]["value"], 4) == 0.5333
    assert "0.5333" in capsys.readouterr().out
    for name in ("survival.csv", "censoring_survival.csv",
                 "latency_survival.csv", "susceptible_in_riskset.csv"):
        assert (out / name).exists()


def test_fit_emitted_curves_reparse(tmp_path, d1_file):
    out = tmp_path / "fit"
    assert main(["fit", "--input", str(d1_file), "--boot", "50", "--seed", "1",
                 "--output-dir", str(out)]) == 0
    survival = ct.read_curve_csv((out / "survival.csv").read_text())
    assert survival == ct.km_fit(ct.parse_csv(D1_TEXT), "event")
    censor = ct.read_curve_csv((out / "censoring_survival.csv").read_text())
    assert censor == ct.km_fit(ct.parse_csv(D1_TEXT), "censoring")


def test_fit_missing_file_exits_2(tmp_path, capsys):
    rc = main(["fit", "--input", str(tmp_path / "nope.csv"),
               "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "compare", "btune"])
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"time,status,arm\n1,1,0\n2\xe9,0,1\n3,1,1\n")
    rc = main([command, "--input", str(path), "--boot", "20",
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9 in position 23: "
        "invalid continuation byte\n")


def test_a_leading_byte_order_mark_is_dropped(tmp_path, d1_file):
    # Spreadsheets save "CSV UTF-8" with a byte-order mark; read it from the
    # same path, so that report.json names the same input.
    outputs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        d1_file.write_bytes(prefix + D1_TEXT.encode())
        out = tmp_path / name
        assert main(["fit", "--input", str(d1_file), "--boot", "20", "--seed", "3",
                     "--emit", "csv,svg,report", "--output-dir", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1] and len(outputs[0]) > 1


@pytest.mark.parametrize("text, error", [
    ("\ufeff\ufefftime,status\n1,1\n", "line 1: missing required column 'time'"),
    ("time,\ufeffstatus\n1,1\n", "line 1: missing required column 'status'"),
    ("\ufefftime,status\n1,1\n\ufeff2,0\n", "line 3: malformed number '\\ufeff2' in column 'time'"),
])
def test_a_byte_order_mark_elsewhere_is_an_error(tmp_path, capsys, text, error):
    path = tmp_path / "marks.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["fit", "--input", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_fit_no_events_exits_2(tmp_path, capsys):
    path = tmp_path / "allcensored.csv"
    path.write_text("time,status\n1,0\n2,0\n")
    rc = main(["fit", "--input", str(path), "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "no events" in capsys.readouterr().err


@pytest.mark.parametrize("status", [1, 0])
@pytest.mark.parametrize("command", ["fit", "btune", "compare"])
def test_observation_at_time_zero_exits_2(tmp_path, capsys, command, status):
    path = tmp_path / "zero.csv"
    path.write_text(f"time,status,arm\n0,{status},0\n1,1,0\n2,0,1\n3,1,1\n"
                    if command == "compare" else f"time,status\n0,{status}\n1,1\n2,0\n3,1\n")
    rc = main([command, "--input", str(path), "--boot", "20",
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "time 0" in capsys.readouterr().err


def test_fit_numeric_b_writes_the_extrapolated_estimate(tmp_path):
    scenario, _ = ct.preset("table2-eta02")
    path = tmp_path / "sample.csv"
    path.write_text(ct.write_csv(ct.draw_sample(scenario, 2)))
    out = tmp_path / "fit"
    assert main(["fit", "--input", str(path), "--eta-method", "extrapolate", "--b", "0.8",
                 "--boot", "20", "--output-dir", str(out)]) == 0
    sample = ct.parse_csv(path.read_text())
    expected = ct.eta_extrapolated(ct.km_fit(sample), 0.8,
                                   ct.risk_table(sample).last_event_time)
    report = json.loads((out / "report.json").read_text())
    assert report["estimates"]["cure_rate"] == dataclasses.asdict(expected)
    assert report["diagnostics"]["fallback"] is None


@pytest.mark.parametrize("text, b, reason", [
    # b * t_K rounds back to the subnormal t_K, so the outer window is flat.
    ("time,status\n5e-324,1\n1,0\n2,0\n", "0.8",
     "flat tail window: curve equal at 5e-324 and 5e-324"),
    ("time,status\n1,1\n2,1\n3,0\n4,0\n", "0.5",
     "window ratio equals one; correction undefined"),
])
def test_fit_numeric_b_on_a_degenerate_window_falls_back(tmp_path, capsys, text, b, reason):
    path = tmp_path / "sample.csv"
    path.write_text(text)
    out = tmp_path / "fit"
    assert main(["fit", "--input", str(path), "--eta-method", "extrapolate", "--b", b,
                 "--boot", "20", "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    tail = ct.eta_tail_from_sample(ct.parse_csv(text))
    assert report["estimates"]["cure_rate"] == dataclasses.asdict(tail)
    note = f"extrapolation fell back to the tail estimate: {reason}"
    assert report["diagnostics"]["fallback"] == note
    assert capsys.readouterr().err == f"note: {note}\n"


def test_fit_bad_b_rejected(tmp_path, d1_file, capsys):
    rc = main(["fit", "--input", str(d1_file), "--eta-method", "extrapolate",
               "--b", "1.5", "--output-dir", str(tmp_path)])
    assert rc == 2


def test_fit_bad_b_rejected_for_tail_method(tmp_path, d1_file, capsys):
    rc = main(["fit", "--input", str(d1_file), "--eta-method", "tail",
               "--b", "7", "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "--b must lie strictly inside (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--b", "--b0", "--b1"])
def test_compare_bad_b_rejected_for_tail_method(tmp_path, two_arm_file, capsys, flag):
    rc = main(["compare", "--input", str(two_arm_file), flag, "banana",
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"{flag} must be 'auto' or a number, got 'banana'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_extrapolated_fallback_labelled_tail(tmp_path, capsys):
    # select_b finds no usable grid point on either arm, so both fall back
    path = tmp_path / "fallback.csv"
    path.write_text("time,status,arm\n" + "".join(
        f"{t},{s},{arm}\n" for arm in (0, 1) for t, s in zip(range(1, 6), (1, 0, 1, 0, 0))))
    out = tmp_path / "cmp"
    rc = main(["compare", "--input", str(path), "--eta-method", "extrapolate",
               "--boot", "20", "--seed", "1", "--output-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    interval = report["intervals"]["cure_difference_extrapolated"]
    assert interval["b0"] is None and interval["b1"] is None
    assert interval["method"] == "tail"
    assert "cure difference used the tail method after fallback" in \
        report["diagnostics"]["extrapolation_notes"]
    stdout = capsys.readouterr().out
    assert "cure_difference (extrapolated)" not in stdout
    assert stdout.count("cure_difference (tail)") == 2


@pytest.mark.parametrize("mixed", [False, True])
def test_compare_extrapolated_rerun_byte_identical(tmp_path, two_arm_file, mixed):
    path = two_arm_file
    if mixed:
        # Arm 0 of the draw extrapolates; the short arm 1 has no usable b and falls back.
        arm0 = ct.parse_csv(two_arm_file.read_text()).split_arms()[0]
        path = tmp_path / "mixed.csv"
        path.write_text("time,status,arm\n" + "".join(
            [f"{t!r},{s},0\n" for t, s in zip(arm0.times.tolist(), arm0.status.tolist())]
            + [f"{t},{s},1\n" for t, s in zip(range(1, 6), (1, 0, 1, 0, 0))]))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["compare", "--input", str(path), "--eta-method", "extrapolate",
                     "--emit", "csv,svg,report", "--boot", "30", "--seed", "6",
                     "--output-dir", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 21
    notes = json.loads(outputs[0]["report.json"])["diagnostics"]["extrapolation_notes"]
    assert any(note.startswith("arm 1: extrapolation fell back") for note in notes) == mixed
    assert not any(note.startswith("arm 0:") for note in notes)


def test_compare_gives_each_arm_its_own_b(tmp_path, two_arm_file):
    out = tmp_path / "cmp"
    assert main(["compare", "--input", str(two_arm_file), "--eta-method", "extrapolate",
                 "--b0", "0.7", "--b1", "0.8", "--boot", "20",
                 "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    arms = ct.parse_csv(two_arm_file.read_text()).split_arms()
    for label, (arm, b) in enumerate(zip(arms, (0.7, 0.8))):
        expected = ct.eta_extrapolated(ct.km_fit(arm), b, ct.risk_table(arm).last_event_time)
        assert report["estimates"][f"cure_rate_extrap_arm{label}"] == dataclasses.asdict(expected)
    interval = report["intervals"]["cure_difference_extrapolated"]
    assert (interval["b0"], interval["b1"], interval["method"]) == (0.7, 0.8, "extrapolated")


def test_compare_reports_every_bootstraps_missing_count(tmp_path, two_arm_file):
    draw = ct.parse_csv(two_arm_file.read_text())
    whole_months = tmp_path / "months.csv"
    whole_months.write_text(ct.write_csv(ct.Sample(np.ceil(draw.times), draw.status, draw.arms)))
    # Arm 0 of the draw extrapolates; the short arm 1 has no usable b and falls back.
    mixed = tmp_path / "mixed.csv"
    arm0 = draw.split_arms()[0]
    mixed.write_text("time,status,arm\n" + "".join(
        [f"{t!r},{s},0\n" for t, s in zip(arm0.times.tolist(), arm0.status.tolist())]
        + [f"{t},{s},1\n" for t, s in zip(range(1, 6), (1, 0, 1, 0, 0))]))
    # (tail tau, extrapolated tau, tail test, extrapolated test) replicates lost of 60
    for path, lost in ((whole_months, (0, 7, 0, 0)), (mixed, (6, 9, 7, 8))):
        out = tmp_path / path.stem
        assert main(["compare", "--input", str(path), "--eta-method", "extrapolate",
                     "--boot", "60", "--seed", "4", "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["diagnostics"]["bootstrap_missing"],
                report["diagnostics"]["bootstrap_missing_extrapolated"],
                report["intervals"]["cure_difference"]["n_missing"],
                report["intervals"]["cure_difference_extrapolated"]["n_missing"]) == lost


def test_compare_all_censored_arm_message(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("time,status,arm\n1,0,0\n2,0,0\n1,1,1\n3,1,1\n")
    rc = main(["compare", "--input", str(path), "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "no events in arm 0" in capsys.readouterr().err


def test_compare_requires_arm_column(tmp_path, d1_file, capsys):
    rc = main(["compare", "--input", str(d1_file), "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "arm" in capsys.readouterr().err


def test_compare_emits_all_panels(tmp_path, two_arm_file):
    out = tmp_path / "cmp"
    rc = main(["compare", "--input", str(two_arm_file), "--boot", "40",
               "--seed", "3", "--output-dir", str(out),
               "--emit", "csv,svg,report", "--eta-method", "extrapolate"])
    assert rc == 0
    for name in ("survival_arm0.csv", "survival_arm1.csv",
                 "latency_survival_arm0.csv", "latency_survival_arm1.csv",
                 "tau.csv", "tau_susceptible.csv",
                 "latency_survival_extrap_arm0.csv",
                 "latency_survival_extrap_arm1.csv",
                 "tau_susceptible_extrap.csv",
                 "survival_both.svg", "tau.svg", "cured_in_riskset.svg"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert "cure_difference" in report["intervals"]
    tau = ct.read_tau_csv((out / "tau.csv").read_text())
    assert tau.sd is not None and np.all(tau.sd >= 0)


def test_compare_tau_consistency_with_library(tmp_path, two_arm_file):
    out = tmp_path / "cmp"
    assert main(["compare", "--input", str(two_arm_file), "--boot", "30",
                 "--seed", "2", "--output-dir", str(out)]) == 0
    sample = ct.parse_csv(two_arm_file.read_text())
    s0, s1 = sample.split_arms()
    expected = ct.tau_curve(s0, s1)
    emitted = ct.read_tau_csv((out / "tau.csv").read_text())
    assert np.array_equal(emitted.grid, expected.grid)
    assert np.array_equal(emitted.values, expected.values)


def test_compare_tau_values_are_the_bootstrap_points(tmp_path, monkeypatch):
    # Each tau CSV holds the point estimate of the bootstrap behind its band:
    # the count-row kernel's row of ones.  Whole-number times tie within and
    # across the arms, where a looped pair sum would differ in the last bits.
    scenario, _ = ct.preset("two-arm-demo")
    sample = ct.draw_two_arm_sample(scenario, 11)
    two_arm_file = tmp_path / "tied.csv"
    two_arm_file.write_text(ct.write_csv(ct.Sample(np.ceil(sample.times), sample.status,
                                                   sample.arms)))
    points = []

    def recording(*args, **kwargs):
        boot = ct.bootstrap_stats(*args, **kwargs)
        points.append(boot.point)
        return boot

    monkeypatch.setattr(cli, "bootstrap_stats", recording)
    out = tmp_path / "cmp"
    assert main(["compare", "--input", str(two_arm_file), "--boot", "30", "--seed", "5",
                 "--eta-method", "extrapolate", "--output-dir", str(out)]) == 0
    both, extrapolated = points
    tau, tau_a, tau_extrap = (ct.read_tau_csv((out / f"{name}.csv").read_text())
                              for name in ("tau", "tau_susceptible", "tau_susceptible_extrap"))
    k = tau.grid.size
    assert np.array_equal(tau.values, both[:k])
    assert np.array_equal(tau_a.values, both[k:])
    assert np.array_equal(tau_extrap.values, extrapolated)


def test_simulate_preset_schema_and_roundtrip(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--scenario", "table1-eta02", "--runs", "3",
               "--boot", "4", "--seed", "1", "--output-dir", str(out)])
    assert rc == 0
    text = (out / "experiment.csv").read_text()
    assert text.splitlines()[0] == "t,truth,a,b,c,d,e"
    rows = read_experiment_csv(text)
    assert len(rows) == 7  # six time points plus the cure-rate row
    assert sum(1 for r in rows if np.isnan(r["t"])) == 1
    table = (out / "experiment_table.csv").read_text().splitlines()
    assert table[0].startswith("row,")
    assert {line.split(",")[0] for line in table[1:]} == \
           {"truth", "a", "b", "c", "d", "e"}


def test_simulate_scenario_file_and_raw(tmp_path):
    spec = {"latency": {"kind": "beta", "alpha": 1, "beta": 3},
            "eta": 0.2, "c_max": 1.0, "n": 25}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "sim"
    rc = main(["simulate", "--scenario-file", str(path), "--runs", "2",
               "--boot", "2", "--seed", "4", "--grid", "0.2,0.4",
               "--output-dir", str(out), "--emit-raw"])
    assert rc == 0
    raw = (out / "raw_estimates.csv").read_text().splitlines()
    assert raw[0] == "run,estimand,t,value"
    assert len(raw) == 1 + 2 * 3  # two runs x (two times + cure rate)


def test_simulate_unknown_scenario_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "table9", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["table1-eta02", "table3-eta02"])
def test_simulate_grid_with_nan_exits_2(tmp_path, capsys, scenario):
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", scenario, "--grid", "0.2,nan",
               "--output-dir", str(out)])
    assert rc == 2
    assert "error: grid must not hold NaN, got '0.2,nan'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["table1-eta02", "table3-eta02"])
def test_simulate_grid_with_inf_runs(tmp_path, scenario):
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", scenario, "--runs", "2", "--boot", "2",
               "--grid", "0.2,inf", "--output-dir", str(out)])
    assert rc == 0
    times = [line.split(",")[0] for line in
             (out / "experiment.csv").read_text().splitlines()[1:]]
    assert times[:2] == ["0.2", "inf"]


def test_simulate_requires_exactly_one_source(tmp_path, capsys):
    rc = main(["simulate", "--output-dir", str(tmp_path)])
    assert rc == 2


def test_simulate_byte_identical_reruns_and_jobs(tmp_path):
    args = ["simulate", "--scenario", "table1-eta02", "--runs", "4",
            "--boot", "3", "--seed", "5"]
    outputs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--jobs", "2"])):
        out = tmp_path / name
        assert main(args + ["--output-dir", str(out)] + extra) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]
    first_csvs = {k: v for k, v in outputs[0].items() if k.endswith(".csv")}
    jobs_csvs = {k: v for k, v in outputs[2].items() if k.endswith(".csv")}
    assert first_csvs == jobs_csvs


def test_btune_emits_diagnostics(tmp_path):
    scenario, _ = ct.preset("table2-eta02")
    sample = ct.draw_sample(scenario, 2)
    path = tmp_path / "sample.csv"
    path.write_text(ct.write_csv(sample))
    out = tmp_path / "bt"
    rc = main(["btune", "--input", str(path), "--boot", "40", "--seed", "2",
               "--grid", "0.5,0.6,0.7,0.8,0.9", "--output-dir", str(out)])
    assert rc == 0
    lines = (out / "btune.csv").read_text().splitlines()
    assert lines[0] == "b,eta_estimate,boot_mean,criterion,missing,selected"
    assert len(lines) == 6
    assert sum(line.endswith(",1") for line in lines[1:]) == 1


def test_fit_fallback_note_names_the_fallback_once(tmp_path, d1_file, capsys):
    out = tmp_path / "fit"
    assert main(["fit", "--input", str(d1_file), "--eta-method", "extrapolate",
                 "--boot", "20", "--seed", "1", "--output-dir", str(out)]) == 0
    note = "extrapolation fell back to the tail estimate: every grid point is degenerate " \
           "on this sample"
    assert json.loads((out / "report.json").read_text())["diagnostics"]["fallback"] == note
    assert capsys.readouterr().err == f"note: {note}\n"


def test_btune_selection_failure_exits_3(tmp_path, capsys):
    # a single tight grid point on a tiny sample leaves no usable window
    path = tmp_path / "tiny.csv"
    path.write_text("time,status\n1,1\n2,0\n3,1\n4,0\n5,0\n")
    rc = main(["btune", "--input", str(path), "--boot", "10", "--seed", "1",
               "--grid", "0.9", "--output-dir", str(tmp_path)])
    assert rc == 3
    # btune has nothing to fall back to, so its message offers no fallback.
    assert capsys.readouterr().err == \
        "estimation error: every grid point is degenerate on this sample\n"


def test_btune_without_a_defined_bootstrap_mean_exits_3(tmp_path, capsys):
    # With one resample, every live grid point is undefined on it.
    path = tmp_path / "six.csv"
    path.write_text("time,status\n2.3,1\n3.8,0\n3.1,0\n0.5,1\n3.3,0\n0.9,1\n")
    out = tmp_path / "bt"
    assert main(["btune", "--input", str(path), "--boot", "1", "--seed", "1813",
                 "--output-dir", str(out)]) == 3
    assert capsys.readouterr().err == \
        "estimation error: no grid point has a defined bootstrap mean\n"
    assert not out.exists()


def test_btune_rerun_byte_identical(tmp_path, two_arm_file):
    scenario, _ = ct.preset("table2-eta02")
    sample = ct.draw_sample(scenario, 6)
    path = tmp_path / "sample.csv"
    path.write_text(ct.write_csv(sample))
    blobs = []
    for name in ("x", "y"):
        out = tmp_path / name
        assert main(["btune", "--input", str(path), "--boot", "25", "--seed", "9",
                     "--output-dir", str(out)]) == 0
        blobs.append((out / "btune.csv").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("command, flags, message", [
    ("fit", ["--boot", "1"], "--boot must be at least 2"),
    ("fit", ["--boot", "-3"], "--boot must be at least 2"),
    ("fit", ["--level", "1.5"], "--level must lie strictly inside (0, 1)"),
    ("compare", ["--boot", "1"], "--boot must be at least 2"),
    ("fit", ["--level", "0.9999999999999999"], "--level must lie strictly inside (0, 1)"),
    ("compare", ["--level", "0"], "--level must lie strictly inside (0, 1)"),
    ("compare", ["--level", "0.9999999999999999"], "--level must lie strictly inside (0, 1)"),
    ("simulate", ["--level", "nan"], "--level must lie strictly inside (0, 1)"),
    ("simulate", ["--runs", "1"], "--runs must be at least 2"),
    ("simulate", ["--boot", "1"], "--boot must be at least 2"),
    ("btune", ["--boot", "0"], "--boot must be at least 1"),
])
def test_out_of_range_flags_exit_2_before_any_work(tmp_path, two_arm_file, capsys,
                                                   command, flags, message):
    source = (["--scenario", "table1-eta02"] if command == "simulate"
              else ["--input", str(two_arm_file)])
    out = tmp_path / "out"
    assert main([command, *source, *flags, "--output-dir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["fit", "--input", "{sample}", "--emit", "csv,pdf"], "unknown emit target(s): pdf"),
    (["simulate", "--scenario", "table1-eta02", "--grid", "0.2,abc"],
     "malformed grid '0.2,abc'"),
    (["simulate", "--scenario", "table1-eta02", "--grid", "0.4,0.2"],
     "grid must be strictly increasing"),
    (["simulate", "--scenario-file", "{missing}"],
     "cannot read {missing}: No such file or directory"),
    (["simulate", "--scenario-file", "{malformed}"],
     "bad scenario file: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    (["simulate", "--scenario", "table3-eta02", "--eta-method", "extrapolate"],
     "two-arm experiments use the tail estimator"),
    (["btune", "--input", "{sample}", "--grid", "0.5,1.2"],
     "b grid values must lie strictly inside (0, 1)"),
    (["compare", "--input", "{one_arm}"], "no subjects in arm 1"),
])
def test_bad_input_exits_2_with_its_message(tmp_path, d1_file, capsys, argv, message):
    (tmp_path / "malformed.json").write_text("{")
    (tmp_path / "one_arm.csv").write_text("time,status,arm\n1,1,0\n2,0,0\n3,1,0\n")
    names = {"sample": d1_file, "missing": tmp_path / "nope.json",
             "malformed": tmp_path / "malformed.json", "one_arm": tmp_path / "one_arm.csv"}
    out = tmp_path / "out"
    assert main([arg.format(**names) for arg in argv] + ["--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(**names)}\n"
    assert not out.exists()


def test_full_profile_runs_500_runs_of_2000_resamples(tmp_path, monkeypatch):
    calls = []

    def recording(scenario, **kwargs):
        calls.append(kwargs)
        raise _Recorded

    monkeypatch.setattr(cli, "run_experiment", recording)
    with pytest.raises(_Recorded):
        main(["simulate", "--scenario", "table1-eta02", "--full-profile",
              "--runs", "3", "--boot", "4", "--output-dir", str(tmp_path / "out")])
    assert [(call["runs"], call["R"]) for call in calls] == [(500, 2000)]


def test_repeated_calls_print_the_same_help_version_and_usage_errors(d1_file, capsys):
    # The parser is built once per process; parsing must leave it as built.
    argvs = [["--help"], ["--version"], ["fit", "--help"], ["simulate", "--help"], [],
             ["fit"], ["fit", "--input", str(d1_file), "--eta-method", "median"],
             ["nope"], ["fit", "--input", str(d1_file), "--boot", "1"],
             ["simulate", "--scenario", "table1-eta02", "--jobs", "0"]]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    first = [call(argv) for argv in argvs]
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 2, 2, 2, 2, 2, 2]
    assert first[0][1] == cli.build_parser().format_help()
    assert first[1][1] == f"{ct.__version__}\n"
    assert first[8][2] == "error: --boot must be at least 2\n"
    assert "invalid choice: 'median'" in first[6][2]
    for _ in range(2):
        assert [call(argv) for argv in argvs] == first


def test_a_replaced_command_runs_after_the_parser_is_built(d1_file, monkeypatch):
    assert main(["btune", "--input", str(d1_file), "--boot", "0"]) == 2
    monkeypatch.setattr(cli, "_run_btune", lambda args: 7)
    assert main(["btune", "--input", str(d1_file)]) == 7


class _Recorded(Exception):
    pass


@pytest.mark.parametrize("jobs, workers", [
    ("0", None), ("-5", None), ("1", 1), (str(os.cpu_count() or 1), os.cpu_count() or 1),
    (str((os.cpu_count() or 1) + 1), os.cpu_count() or 1), ("100000", os.cpu_count() or 1),
])
def test_simulate_jobs_at_least_one_and_at_most_the_cpus(tmp_path, capsys, monkeypatch,
                                                          jobs, workers):
    # The stub stands in for the process pool, so no worker process is ever
    # started; one worker runs the (two, tiny) runs in this process.
    calls = []

    def recording(max_workers):
        calls.append(max_workers)
        raise _Recorded

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", "table1-eta02", "--runs", "2", "--boot", "2",
            "--jobs", jobs, "--output-dir", str(out)]
    if workers is None:
        assert main(argv) == 2
        assert "error: --jobs must be at least 1" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()
    elif workers == 1:
        assert main(argv) == 0
        assert calls == []
    else:
        with pytest.raises(_Recorded):
            main(argv)
        assert calls == [workers]


def test_negative_seed_rejected(tmp_path, d1_file):
    rc = main(["fit", "--input", str(d1_file), "--seed", "-1",
               "--output-dir", str(tmp_path)])
    assert rc == 2
