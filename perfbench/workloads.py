"""Workloads: their inputs, the CLI operations they run, and output checks.

Every operation is one ``curetau.cli.main(argv)`` call in this process.  An
operation's artifacts are re-parsed and checked after its timer stops, and
hashed so that two commits, or a traced and an untraced pass, can be shown
to write identical bytes.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import curetau.cli
from curetau.cli import EXIT_ESTIMATION, read_experiment_csv
from curetau.stepfun import read_curve_csv
from curetau.tau import read_tau_csv

#: Shape, scale, truncation point and cure rate of the two arms of the
#: ``two-arm-demo`` preset; censoring is uniform on [0, C_MAX].
DEMO_ARMS = ((1.2, 18.0, 48.0, 0.27), (1.0, 20.0, 48.0, 0.52))
C_MAX = 54.0
LARGE_N = 5000
WARMUP_N = 300
MC_RUNS_PER_OP = 2
CLI_BOOT = "100"
# A tail cure-rate estimate must lie this many bootstrap SDs from its truth.
ETA_SD_LIMIT = 5.0


@dataclass(frozen=True)
class Op:
    """One CLI call: a label for grouping timings, its argv, its output dir."""

    label: str
    argv: tuple
    outdir: Path
    runs: int = 1


@dataclass
class OpResult:
    op: Op
    seconds: float
    exit_code: int
    runs_failed: int = 0
    digest: str = ""
    artifact_bytes: int = 0
    report: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _draw_arm(rng, shape, scale, t_b, eta, n):
    """Cure mixture with a Weibull latency truncated to [0, t_b]."""
    mass = -math.expm1(-((t_b / scale) ** shape))
    latency = np.minimum(scale * (-np.log1p(-rng.random(n) * mass)) ** (1.0 / shape), t_b)
    event = np.where(rng.random(n) < eta, np.inf, latency)
    censor = rng.uniform(0.0, C_MAX, n)
    return np.minimum(event, censor), (event <= censor).astype(np.int64)


def write_demo_inputs(seed, directory, n):
    """Write ``arm0.csv`` (one arm) and ``two_arm.csv`` (both arms, same arm 0)."""
    directory.mkdir(parents=True, exist_ok=True)
    arms = [_draw_arm(np.random.default_rng([seed, 0xC0DE, label]), *spec, n)
            for label, spec in enumerate(DEMO_ARMS)]
    rows = [[f"{t!r},{d}" for t, d in zip(times.tolist(), status.tolist())]
            for times, status in arms]
    (directory / "arm0.csv").write_text("time,status\n" + "\n".join(rows[0]) + "\n")
    (directory / "two_arm.csv").write_text(
        "time,status,arm\n"
        + "".join(f"{row},{label}\n" for label in (0, 1) for row in rows[label]))


def run_op(op, check=True):
    """Run one operation, timing only the CLI call; then hash its artifacts
    and, with ``check``, re-parse them."""
    shutil.rmtree(op.outdir, ignore_errors=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        started = time.perf_counter()
        code = curetau.cli.main(list(op.argv))
        seconds = time.perf_counter() - started
    result = OpResult(op, seconds, code)
    if code != 0:
        # Exit 3 is the CLI's documented answer when an estimator is undefined
        # on the data: a failed operation.  Any other code is a defect.
        result.runs_failed = op.runs
        message = f"{' '.join(op.argv)} exited {code}: {sink.getvalue()[-300:]}"
        (result.notes if code == EXIT_ESTIMATION else result.problems).append(message)
        return result
    digest = hashlib.sha256()
    for path in sorted(op.outdir.iterdir()):
        blob = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + blob)
        result.artifact_bytes += len(blob)
        if not check:
            continue
        try:
            _check_file(path.name, blob.decode(), result)
        except Exception as exc:  # any parse failure is an output defect
            result.problems.append(f"{op.label}/{path.name}: {type(exc).__name__}: {exc}")
    result.digest = digest.hexdigest()
    return result


def _check_file(name, text, result):
    if name.endswith(".json"):
        result.report.update(json.loads(text))
    elif name.endswith(".svg"):
        ElementTree.fromstring(text)
    elif name == "experiment.csv":
        rows = read_experiment_csv(text)
        values = [row[key] for row in rows for key in ("truth", "a", "b", "c", "d", "e")]
        if not rows or not all(math.isfinite(v) for v in values):
            raise ValueError("experiment rows are missing or not finite")
        result.report["rows"] = rows
    elif name == "experiment_table.csv":
        for line in text.splitlines()[1:]:
            for value in line.split(",")[1:]:
                float(value)
    elif name == "btune.csv":
        lines = text.splitlines()
        if lines[0] != "b,eta_estimate,boot_mean,criterion,missing,selected":
            raise ValueError("bad btune header")
        if sum(line.endswith(",1") for line in lines[1:]) != 1:
            raise ValueError("btune must select exactly one b")
    elif name.startswith("tau"):
        read_tau_csv(text)
    elif name.endswith(".csv"):
        read_curve_csv(text)
    else:
        raise ValueError("unexpected artifact")


class Workload:
    """A closed loop of CLI operations, grouped into repeating rounds."""

    name = ""
    #: Nominal seconds of traced-run work per round; sizes the traced run.
    trace_round_s = 1.0
    min_rounds = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def prepare_inputs(self):
        """Write this workload's input files; returns their digest."""
        return ""

    def round(self, index):
        raise NotImplementedError

    def warmup_round(self):
        raise NotImplementedError

    def check_round(self, results):
        """Problems found across the results of one round."""
        return []


class MonteCarlo(Workload):
    """``simulate`` calls of a few runs each; each call has its own seed."""

    min_rounds = 3
    scenario = ""
    extra = ()
    boot = "500"

    def _op(self, seed, boot, subdir):
        argv = ("simulate", "--scenario", self.scenario, *self.extra,
                "--boot", boot, "--runs", str(MC_RUNS_PER_OP), "--jobs", "1",
                "--seed", str(seed), "--output-dir", str(self.workdir / subdir))
        return Op("simulate", argv, self.workdir / subdir, runs=MC_RUNS_PER_OP)

    def round(self, index):
        return [self._op(self.seed * 1000 + index, self.boot, "out")]

    def warmup_round(self):
        return [self._op(self.seed * 1000 + 999, "20", "warmup")]

    def check_round(self, results):
        problems = []
        for result in results:
            if result.exit_code != 0 or result.problems:
                continue
            result.runs_failed = int(result.report["diagnostics"]["failed_runs"])
            truths = self.truths()
            got = [row["truth"] for row in result.report["rows"]]
            if len(got) != len(truths) or max(abs(a - b) for a, b in zip(got, truths)) > 1e-7:
                problems.append(f"{self.name}: truths {got} differ from {truths}")
        return problems

    def truths(self):
        raise NotImplementedError


class McExtrap(MonteCarlo):
    name = "mc-extrap"
    trace_round_s = 4.0
    scenario = "table2-eta02"
    extra = ("--eta-method", "extrapolate", "--b", "auto")

    def truths(self):
        # Beta(1, 3) latency read at its own quantiles, then the cure rate.
        return [0.75, 0.65, 0.55, 0.45, 0.35, 0.25, 0.2]


class McTau(MonteCarlo):
    name = "mc-tau"
    trace_round_s = 6.0
    scenario = "table3-eta02"

    def truths(self):
        # Beta(1, 4) against Beta(1, 2): tau_a(t) = (1 - (1 - t)**6) / 3.
        return [(1.0 - (1.0 - t / 10.0) ** 6) / 3.0 for t in range(1, 11)]


class CliLarge(Workload):
    """The five analysis commands on 5 000-subject arms, same seed each round."""

    name = "cli-large"
    trace_round_s = 30.0
    min_rounds = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._first_digests = None

    def prepare_inputs(self):
        directory = self.workdir / "inputs"
        write_demo_inputs(self.seed, directory, LARGE_N)
        digest = hashlib.sha256()
        for name in ("arm0.csv", "two_arm.csv"):
            digest.update((directory / name).read_bytes())
        return digest.hexdigest()

    def _commands(self, inputs, boot, tag):
        one = str(inputs / "arm0.csv")
        two = str(inputs / "two_arm.csv")
        extrap = ("--eta-method", "extrapolate")
        emit = ("--emit", "csv,svg,report")
        commands = (("fit", ("fit", "--input", one, *emit)),
                    ("fit_extrap", ("fit", "--input", one, *extrap, *emit)),
                    ("compare", ("compare", "--input", two, *emit)),
                    ("compare_extrap", ("compare", "--input", two, *extrap, *emit)),
                    ("btune", ("btune", "--input", one)))
        return [Op(label, argv + ("--boot", boot, "--seed", str(self.seed),
                                  "--output-dir", str(self.workdir / tag / label)),
                   self.workdir / tag / label)
                for label, argv in commands]

    def round(self, index):
        return self._commands(self.workdir / "inputs", CLI_BOOT, "out")

    def warmup_round(self):
        inputs = self.workdir / "warmup_inputs"
        write_demo_inputs(self.seed + 1, inputs, WARMUP_N)
        return self._commands(inputs, "10", "warmup")

    def check_round(self, results):
        # Every round repeats the same commands, so it must repeat the bytes.
        digests = [r.digest for r in results]
        self._first_digests = self._first_digests or digests
        problems = [] if digests == self._first_digests else [
            "a repeated round wrote different artifacts"]
        reports = {r.op.label: r.report for r in results
                   if r.exit_code == 0 and not r.problems}
        truth0, truth1 = DEMO_ARMS[0][3], DEMO_ARMS[1][3]
        fit = reports.get("fit")
        if fit is not None:
            interval = fit["intervals"]["cure_rate"]
            if abs(interval["point"] - truth0) > ETA_SD_LIMIT * interval["sd"]:
                problems.append(f"fit: tail cure rate {interval['point']} is "
                                f"more than {ETA_SD_LIMIT} SDs from {truth0}")
        for label in ("compare", "compare_extrap"):
            report = reports.get(label)
            if report is None:
                continue
            diff = report["intervals"]["cure_difference"]
            if abs(diff["point"] - (truth1 - truth0)) > ETA_SD_LIMIT * diff["sd"]:
                problems.append(f"{label}: tail cure difference {diff['point']} is "
                                f"more than {ETA_SD_LIMIT} SDs from {truth1 - truth0}")
            if fit is not None and (report["estimates"]["cure_rate_arm0"]["value"]
                                    != fit["estimates"]["cure_rate"]["value"]):
                problems.append(f"{label}: arm-0 tail cure rate differs from fit")
        return problems


WORKLOADS = {cls.name: cls for cls in (McExtrap, McTau, CliLarge)}
