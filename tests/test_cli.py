import json
from pathlib import Path

import numpy as np
import pytest

import curetau as ct
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


def test_btune_selection_failure_exits_3(tmp_path, capsys):
    # a single tight grid point on a tiny sample leaves no usable window
    path = tmp_path / "tiny.csv"
    path.write_text("time,status\n1,1\n2,0\n3,1\n4,0\n5,0\n")
    rc = main(["btune", "--input", str(path), "--boot", "10", "--seed", "1",
               "--grid", "0.9", "--output-dir", str(tmp_path)])
    assert rc == 3
    assert "fall back" in capsys.readouterr().err


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


def test_negative_seed_rejected(tmp_path, d1_file):
    rc = main(["fit", "--input", str(d1_file), "--seed", "-1",
               "--output-dir", str(tmp_path)])
    assert rc == 2
