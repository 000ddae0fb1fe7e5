"""Time the bootstrap draw and kernel layers of two commits in one process,
call by call.

Run from a checkout, naming the commit to compare the checked-out tree with:

    python3 tools/ab_layers.py BASE

BASE is exported with ``git archive`` into a temporary directory and its
``src/curetau`` imported as the package ``curetau_base``; the checked-out
``src/curetau`` is imported as ``curetau``.  Each case gives both the same
inputs and calls them in turn for ``ROUNDS`` rounds, the one that goes first
alternating from round to round, so a drift in the machine's load falls on
both alike (timing one commit per process cannot show a 10-30 % change on a
loaded host).

The draw cases are those of ``bench/bench_draws.py``: ``km._count_chunks``
drawing all R replicates of one arm, or of two arms of the same size, for
each n, and ``seeding._pcg64_states`` for each count.  A ``_count_chunks``
call is timed over all its chunks, after a check that the two commits draw
the same rows.  The kernel cases take one chunk of count rows at each n of
``bench/bench_bootstrap.py`` through ``km._km_rows`` and the one-arm
statistic, and at each n of ``bench/bench_tau.py`` through the two-arm tau
kernel, after a check that the two commits give the same values bit for
bit: the statistics' rows, and ``_km_rows``' at-risk counts and event
curves at every distinct time.  The whole-bootstrap cases run
``bootstrap_stats`` on the one-arm extrapolated statistic of
``bench/bench_bootstrap.py`` and on the ``mc-tau`` statistic of
``bench/bench_tau.py`` (R = 500, n = 200), point included, after a check
that the point, SD and replicate matrix are the same bit for bit.  The codec
cases read the cli-large inputs (``arm0.csv`` and ``two_arm.csv`` of
``perfbench/workloads.py``'s ``write_demo_inputs``, seed 1) with
``parse_csv``, after a check that the two commits read the same columns, and
write the arm-0 event curve with ``write_curve_csv`` and the overall tau
curve of the two arms with ``write_tau_csv``, both with bands, after a check
that the two commits write the same bytes.  For each case it prints both
sides' median and quartiles in milliseconds and the rounds the checked-out
tree won.
"""

import argparse
import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import product
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 31


def import_package(name, source):
    """The package in directory ``source``, imported under ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, source / "__init__.py", submodule_search_locations=[str(source)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def export(rev, tree):
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)


def draw_all(package, summaries, seed, count):
    """Every chunk of ``count`` replicates, stacked per arm."""
    chunks = [cells for _, cells in package.km._count_chunks(summaries, seed, count)]
    return [np.concatenate(arm) for arm in zip(*chunks)]


def same(*arrays):
    """Whether the arrays hold the same values bit for bit."""
    return all(a.shape == arrays[0].shape and a.tobytes() == arrays[0].tobytes()
               for a in arrays)


def km_values(package, summary, cells):
    """``_km_rows``' at-risk counts and event curves at every distinct time."""
    km = package.km._km_rows(summary, cells)
    shape = (cells.shape[0], summary.distinct.size)
    return km.at_risk[:, :shape[1]], km.at(np.broadcast_to(summary.distinct, shape))


def bootstrap_values(package, samples, statistic, bench):
    """``bootstrap_stats``' point, SD and replicate matrix, with the number
    of replicates and the seed of ``bench`` (a bench module)."""
    result = package.bootstrap_stats(samples, statistic, R=bench.MC_R, seed=bench.MC_SEED)
    return np.asarray(result.point), np.asarray(result.sd), result.replicate_values


def sample_columns(sample):
    return [sample.times, sample.status] + ([sample.arms] if sample.has_arms else [])


def codec_cases(packages):
    """``(label, call per package)`` for the CSV reader and writers on the
    cli-large inputs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # imports the checked-out curetau, already loaded

    with tempfile.TemporaryDirectory() as inputs:
        workloads.write_demo_inputs(1, Path(inputs), workloads.LARGE_N)
        texts = {name: (Path(inputs) / name).read_text() for name in ("arm0.csv", "two_arm.csv")}
    for name, text in texts.items():
        if not all(map(same, *(sample_columns(package.parse_csv(text)) for package in packages))):
            raise SystemExit(f"the commits read {name} differently")
        yield (f"parse_csv {name} n={workloads.LARGE_N}",
               [lambda parse=package.parse_csv, text=text: parse(text) for package in packages])
    curves, taus = [], []
    for package in packages:
        two_arm = package.parse_csv(texts["two_arm.csv"])
        curve = package.km_fit(package.parse_csv(texts["arm0.csv"]))
        values = curve(np.concatenate(([0.0], curve.x)))
        curves.append((curve, (0.9 * values, np.minimum(1.1 * values, 1.0))))
        tau = package.tau_curve(*two_arm.split_arms())
        spread = 0.01 + 0.1 * np.abs(tau.values)
        taus.append(tau.with_bands(spread, tau.values - 2 * spread, tau.values + 2 * spread))
    for label, calls in (
            ("write_curve_csv with bands", [lambda write=package.write_curve_csv, curve=curve,
                                            bands=bands: write(curve, bands)
                                            for package, (curve, bands) in zip(packages, curves)]),
            ("write_tau_csv with bands", [lambda write=package.write_tau_csv, tau=tau: write(tau)
                                          for package, tau in zip(packages, taus)])):
        if len({call() for call in calls}) != 1:
            raise SystemExit(f"the commits' {label} bytes differ")
        yield f"{label} n={workloads.LARGE_N}", calls


def cases(packages):
    """``(label, call per package)`` for every case, on shared inputs."""
    yield from codec_cases(packages)
    sys.path.insert(0, str(ROOT / "bench"))
    # These import the checked-out curetau, already loaded.
    import bench_bootstrap
    import bench_draws as bench
    import bench_tau

    for n, arms, R in product(bench.SIZES, bench.ARMS, bench.REPLICATES):
        sample = bench.arm_sample(n)
        summaries = [(package.km._sort_sample(package.Sample(sample.times, sample.status)),)
                     * arms for package in packages]
        drawn = [draw_all(package, own, 1, R) for package, own in zip(packages, summaries)]
        if not all(map(np.array_equal, *drawn)):
            raise SystemExit(f"the commits draw different rows at n = {n}, {arms} arm(s), R = {R}")
        yield (f"_count_chunks n={n} arms={arms} R={R}",
               [lambda chunks=package.km._count_chunks, own=own, R=R: sum(
                   1 for _ in chunks(own, 1, R)) for package, own in zip(packages, summaries)])
    for count in bench.STATE_COUNTS:
        yield (f"_pcg64_states R={count}",
               [lambda states=package.seeding._pcg64_states, count=count: states(
                   bench.STATE_SEED, count) for package in packages])
    for n in bench_bootstrap.SIZES:
        built = [bench_bootstrap.one_arm_chunk(package, n) for package in packages]
        rows = built[0][1].shape[0]
        if not (all(map(same, *(km_values(package, statistic.summaries[0], cells)
                                for package, (statistic, cells) in zip(packages, built))))
                and same(*(statistic.evaluate(cells) for statistic, cells in built))):
            raise SystemExit(f"the commits' one-arm chunks differ at n = {n}")
        yield (f"_km_rows n={n} rows={rows}",
               [lambda rows=package.km._km_rows, summary=statistic.summaries[0], cells=cells:
                rows(summary, cells) for package, (statistic, cells) in zip(packages, built)])
        yield (f"one-arm chunk n={n} rows={rows}",
               [lambda statistic=statistic, cells=cells: statistic.evaluate(cells)
                for statistic, cells in built])
    for n in bench_tau.SIZES:
        built = [bench_tau.kernel_chunk(package, n) for package in packages]
        if not same(*(statistic.evaluate(*cells) for statistic, cells in built)):
            raise SystemExit(f"the commits' tau kernel chunks differ at n = {n}")
        yield (f"tau kernel chunk n={n} rows={built[0][1][0].shape[0]}",
               [lambda statistic=statistic, cells=cells: statistic.evaluate(*cells)
                for statistic, cells in built])
    for label, bench in (("one-arm extrapolated", bench_bootstrap), ("mc-tau", bench_tau)):
        built = [bench.mc_bootstrap(package) for package in packages]
        if not all(map(same, *(bootstrap_values(package, samples, statistic, bench)
                               for package, (samples, statistic) in zip(packages, built)))):
            raise SystemExit(f"the commits' {label} bootstraps differ")
        yield (f"bootstrap_stats {label} n={bench.MC_N} R={bench.MC_R}",
               [lambda package=package, samples=samples, statistic=statistic, bench=bench:
                bootstrap_values(package, samples, statistic, bench)
                for package, (samples, statistic) in zip(packages, built)])


def race(calls):
    """Per side, the seconds of each round's call, base and change in turn."""
    times = [[], []]
    for turn in range(ROUNDS):
        for side in (1, 0) if turn % 2 else (0, 1):
            start = time.perf_counter()
            calls[side]()
            times[side].append(time.perf_counter() - start)
    return times


def quartiles(values):
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return median, low, high


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit to compare the checked-out tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        export(args.base, Path(scratch))
        base = import_package("curetau_base", Path(scratch) / "src" / "curetau")
        change = import_package("curetau", ROOT / "src" / "curetau")
        print(f"base {args.base} against the checked-out tree, {ROUNDS} rounds; "
              "median [quartiles] in ms")
        for label, (change_call, base_call) in cases((change, base)):
            change_call(), base_call()  # warm up
            base_times, change_times = race((base_call, change_call))
            won = sum(c < b for b, c in zip(base_times, change_times))
            sides = [" %.3f [%.3f, %.3f]" % tuple(1e3 * v for v in quartiles(times))
                     for times in (base_times, change_times)]
            print(f"{label}:{sides[0]} ->{sides[1]}, won {won} of {ROUNDS}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
