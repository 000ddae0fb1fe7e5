"""Measurement passes of the benchmark: set-up, untraced loop, traced loop.

``run.py`` prepares the environment and then calls :func:`run`; importing
this module imports numpy and curetau, so it must come after that.
"""

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from run import ROOT, THREAD_VARS
from reference import NOMINAL_BLOCK_S, Reference
from tracer import Tracer
from workloads import WORKLOADS, run_op

WORKDIR = Path(".perfbench_run")
SETUP_REPEATS = 3
TRACED_METHODS = ("data.Sample.resampled", "stepfun.StepFunction.__init__",
                  "stepfun.StepFunction.__call__")
#: Functions whose calls, self time and failures are per-layer metrics.
LAYERS = ("km.km_fit", "km.risk_table", "cure.select_b", "cure.eta_extrapolated",
          "tau.tau_a_curve", "tau.tau_curve", "tau.true_tau_quadrature",
          "inference.bootstrap_stats", "data.Sample.resampled", "seeding.stream",
          "stepfun.StepFunction.__init__", "stepfun.StepFunction.__call__",
          "susceptible.location_scale_curve", "data.parse_csv", "data.validate",
          "stepfun.write_curve_csv", "tau.write_tau_csv", "svgplot.step_plot_svg",
          "svgplot.tau_to_svg", "susceptible.susceptible_curve",
          "susceptible.phi_hat", "cli.main")
COMMAND_LABELS = ("simulate", "fit", "fit_extrap", "compare", "compare_extrap", "btune")
REPLICATE_OWNERS = ("inference.bootstrap_stats", "cure.select_b")


def environment_info():
    nproc = len(os.sched_getaffinity(0))
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() if done.returncode == 0 else sha
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: int(os.environ[var]) for var in THREAD_VARS},
    }


def measure_setup(workload):
    """Median over repeats of a fresh ``import curetau.cli`` plus input writing,
    each rescaled to the reference machine's speed; also the wall times."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, digests = [], set()
    reference = Reference()
    reference.chunk()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import curetau.cli"], env=env,
                       cwd=ROOT, check=True, timeout=120)
        digests.add(workload.prepare_inputs())
        times.append(time.perf_counter() - started)
        reference.chunk(after_s=times[-1])
    return statistics.median(reference.rescaled(times)), times, digests


def closed_loop(workload, seconds=None, rounds=None, check=True, reference=None):
    """Run rounds for ``seconds`` (at least ``min_rounds``) or exactly ``rounds``.

    With a ``reference``, a chunk of it runs before the first operation and
    after every operation, sized to that operation.
    """
    results, problems = [], []
    started = time.perf_counter()
    if reference is not None:
        reference.chunk()
    while (len(results) < rounds if rounds is not None else
           len(results) < workload.min_rounds or time.perf_counter() - started < seconds):
        done = []
        for op in workload.round(len(results)):
            done.append(run_op(op, check))
            if reference is not None:
                reference.chunk(after_s=done[-1].seconds)
        results.append(done)
        problems += [p for r in done for p in r.problems]
        if check:
            problems += workload.check_round(done)
    return results, time.perf_counter() - started, problems


def digest_of(rounds):
    return hashlib.sha256("".join(r.digest for done in rounds for r in done)
                          .encode()).hexdigest()


def label_medians(rounds):
    by_label = {}
    for done in rounds:
        for r in done:
            by_label.setdefault(r.op.label, []).append(r.seconds)
    return {label: statistics.median(v) for label, v in by_label.items()}, by_label


def tally(rounds):
    attempted = sum(r.op.runs for done in rounds for r in done)
    failed = sum(r.runs_failed for done in rounds for r in done)
    return attempted, failed


def failed_notes(rounds):
    return [f"failed operation: {note}" for done in rounds for r in done for note in r.notes]


def run_untraced(workload, seconds):
    setup_s, setup_wall, input_digests = measure_setup(workload)
    problems = [] if len(input_digests) == 1 else ["input generation is not deterministic"]
    for op in workload.warmup_round():
        run_op(op, check=False)
    reference = Reference()
    rounds, _, found = closed_loop(workload, seconds=seconds, reference=reference)
    problems += found
    medians, samples = label_medians(rounds)
    runs = sum(r.op.runs for done in rounds for r in done)
    wall = [r.seconds for done in rounds for r in done]
    metrics = {
        "setup_s": setup_s,
        "runs_per_s": runs / sum(reference.rescaled(wall)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = [f"setup: median {statistics.median(setup_wall):.4f} s wall over {len(setup_wall)}"]
    info += [f"command {label}: median {medians[label]:.4f} s wall over {len(v)} calls"
            for label, v in samples.items()]
    info.append(f"runs_per_s at wall-clock speed: {runs / sum(wall):.4f} 1/s; reference "
                f"block median {statistics.median(reference.block_seconds()):.4f} s, "
                f"nominal {NOMINAL_BLOCK_S} s, over {len(reference.chunks)} chunks")
    info += failed_notes(rounds)
    info.append(f"artifacts sha256 (first {workload.min_rounds} rounds): "
                f"{digest_of(rounds[:workload.min_rounds])}")
    return metrics, tally(rounds), problems, info


def run_traced(workload, seconds):
    workload.prepare_inputs()
    for op in workload.warmup_round():
        run_op(op, check=False)
    count = max(1, int(seconds // workload.trace_round_s))
    plain, plain_wall, problems = closed_loop(workload, rounds=count)

    boot = {"R": 0, "missing": 0}

    def count_missing(result):
        boot["R"] += result.R
        boot["missing"] += result.n_missing

    tracer = Tracer()
    tracer.install("curetau", TRACED_METHODS,
                   on_return={"inference.bootstrap_stats": count_missing})
    try:
        with tracer.span("bench.pass"):
            traced, _, found = closed_loop(workload, rounds=count, check=False)
    finally:
        tracer.uninstall()
    problems += found
    wall_ns = tracer.root_ns()
    if digest_of(traced) != digest_of(plain):
        problems.append("traced and untraced passes wrote different artifacts")
    if int(tracer.self_times().sum()) != wall_ns or not tracer.nests():
        problems.append("span self times do not add up to the traced wall time")
    WORKDIR.mkdir(exist_ok=True)
    tracer.save(WORKDIR / f"spans-{workload.name}.npz")

    summary = tracer.summary()
    empty = {"calls": 0, "self_ns": 0, "fail": 0, "fail_by_class": {}}
    metrics = {}
    for name in LAYERS:
        entry = summary.get(name, empty)
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_ns"] / 1e9
        metrics[f"{name}.fail"] = entry["fail"]
    replicates = tracer.child_calls("seeding.stream", REPLICATE_OWNERS)
    select_b = summary.get("cure.select_b", empty)
    metrics["km.km_fit.calls_per_replicate"] = (
        metrics["km.km_fit.calls"] / replicates if replicates else 0.0)
    metrics["cure.select_b.fail_frac"] = (
        select_b["fail"] / select_b["calls"] if select_b["calls"] else 0.0)
    metrics["inference.bootstrap_stats.missing_frac"] = (
        boot["missing"] / boot["R"] if boot["R"] else 0.0)
    metrics["cli.artifact_bytes"] = sum(r.artifact_bytes for done in traced for r in done)
    medians, _ = label_medians(plain)
    for label in COMMAND_LABELS:
        metrics[f"cmd.{label}.wall_s"] = medians.get(label, 0.0)
    metrics["trace.wall_s"] = wall_ns / 1e9
    metrics["trace.overhead"] = wall_ns / 1e9 / plain_wall

    info = [f"traced {count} rounds: {wall_ns / 1e9:.3f} s traced, "
            f"{plain_wall:.3f} s untraced, overhead x{metrics['trace.overhead']:.3f}",
            f"bootstrap replicates {replicates}",
            f"spans {len(tracer.start)} written to {WORKDIR / f'spans-{workload.name}.npz'}"]
    for name in sorted(summary, key=lambda n: -summary[n]["self_ns"]):
        entry = summary[name]
        fails = "".join(f" {cls}={n}" for cls, n in sorted(entry["fail_by_class"].items()))
        info.append(f"span {name}: calls {entry['calls']} self {entry['self_ns'] / 1e9:.4f} s"
                    f" fail {entry['fail']}{fails}")
    info += failed_notes(plain)
    info.append(f"artifacts sha256 (all {count} rounds, traced and untraced): "
                f"{digest_of(plain)}")
    return metrics, tally(plain), problems, info


def run(args):
    """Run one workload as ``args`` say, print the result; returns the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    env = environment_info()
    workdir = WORKDIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        measure = run_traced if args.trace else run_untraced
        values, (attempted, failed), problems, info = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if any(limit > env["nproc"] for limit in env["threads"].values()):
        problems.append("a thread limit exceeds nproc")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for line in info:
        print(line)
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} runs)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0

