"""Time the layers of two commits in one process, call by call.

Run from a checkout, naming the commit to compare the checked-out tree with:

    python3 tools/ab_layers.py BASE

BASE is exported with ``git archive`` into a temporary directory and its
``src/curetau`` imported as the package ``curetau_base``; the checked-out
``src/curetau`` is imported as ``curetau``.  Each case gives both the same
inputs and calls them in turn for ``ROUNDS`` rounds, the one that goes first
alternating from round to round, so a drift in the machine's load falls on
both alike (timing one commit per process cannot show a 10-30 % change on a
loaded host).  With BASE the checked-out commit, both sides run the same
code and each gives that commit's own timings.

Before timing a case it checks that the two commits give the same results
bit for bit: arrays by dtype, shape and bytes, other results field by field.
The cases, with the inputs of ``tests/layer_cases.py`` (its docstring gives
their sizes and seeds):

- the CSV codec on the cli-large inputs (``arm0.csv`` and ``two_arm.csv`` of
  ``perfbench/workloads.py``'s ``write_demo_inputs``, seed 1): ``parse_csv``
  of both, and ``write_curve_csv`` of the arm-0 event curve and
  ``write_tau_csv`` of the overall tau curve of the two arms, both with
  bands;
- ``km._count_chunks`` drawing all R replicates of one arm, or of two arms
  of the same size, timed over all its chunks and checked on the rows it
  draws; and ``seeding._pcg64_states`` for each count;
- the one-sample layers and ``parse_csv`` (``layer_calls``): ``km_fit``,
  ``risk_table``, ``phi_hat``, ``eta_tail``, ``eta_extrapolated`` and
  ``self_consistency_residual``, at n = 200, 2 000 and 20 000;
- the one-arm bootstrap (``bootstrap_calls``) at each n: ``km._km_rows`` on
  one chunk of count rows, checked on its at-risk counts and event curves
  at every distinct time; ``select_b``; the bootstrap with R = 200; and the
  one-arm statistic on that chunk;
- the tau kernel (``tau_calls``) at each n: ``tau_a_curve``, and one chunk
  of count rows through ``compare``'s kernel;
- whole calls (``fixed_calls``): the bootstraps of one ``mc-extrap`` and
  one ``mc-tau`` run, point included; ``select_b`` and ``compare``'s tau
  bootstrap on the 5 000-subject ``two-arm-demo`` arms;
  ``cure_difference_test``, tail and extrapolated, on the ``mc-tau`` arms
  and the ``two-arm-demo`` ones; and the four quadrature truths.

For each case it prints both sides' median and quartiles in milliseconds
and the rounds the checked-out tree won.
"""

import argparse
import dataclasses
import importlib.util
import sys
import tempfile
import time
from itertools import product
from pathlib import Path

import numpy as np

from ab_common import ROOT, export, quartiles

ROUNDS = 31


def import_package(name, source):
    """The package in directory ``source``, imported under ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, source / "__init__.py", submodule_search_locations=[str(source)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def fingerprint(value):
    """``value`` as nested tuples of text and bytes, equal for two commits'
    results exactly where they hold the same values bit for bit.  Cached
    attributes (a leading ``_``) are left out."""
    if isinstance(value, (float, np.ndarray, np.generic)):
        value = np.asarray(value)
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    elif hasattr(value, "__slots__"):
        value = [getattr(value, name) for name in value.__slots__]
    elif hasattr(value, "__dict__"):
        value = sorted(item for item in vars(value).items() if not item[0].startswith("_"))
    if isinstance(value, (tuple, list)):
        return tuple(map(fingerprint, value))
    return repr(value)


def draw_all(package, summaries, seed, count):
    """Every chunk of ``count`` replicates, stacked per arm."""
    chunks = [cells for _, cells in package.km._count_chunks(summaries, seed, count)]
    return [np.concatenate(arm) for arm in zip(*chunks)]


def km_values(package, summary, cells):
    """``_km_rows``' at-risk counts and event curves at every distinct time."""
    km = package.km._km_rows(summary, cells)
    shape = (cells.shape[0], summary.distinct.size)
    return km.at_risk[:, :shape[1]], km.at(np.broadcast_to(summary.distinct, shape))


def table(packages, calls, *args, suffix=""):
    """``(label, call per package)`` for each case that ``calls`` (a
    ``layer_cases`` function) gives."""
    tables = [calls(package, *args) for package in packages]
    for name in tables[0]:
        yield name + suffix, [own[name] for own in tables]


def codec_cases(packages):
    """The CSV reader and writers on the cli-large inputs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # imports the checked-out curetau, already loaded

    with tempfile.TemporaryDirectory() as inputs:
        workloads.write_demo_inputs(1, Path(inputs), workloads.LARGE_N)
        texts = {name: (Path(inputs) / name).read_text() for name in ("arm0.csv", "two_arm.csv")}
    for name, text in texts.items():
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
    yield (f"write_curve_csv with bands n={workloads.LARGE_N}",
           [lambda write=package.write_curve_csv, curve=curve, bands=bands: write(curve, bands)
            for package, (curve, bands) in zip(packages, curves)])
    yield (f"write_tau_csv with bands n={workloads.LARGE_N}",
           [lambda write=package.write_tau_csv, tau=tau: write(tau)
            for package, tau in zip(packages, taus)])


def cases(packages):
    """``(label, calls)`` for every case, one call per package on shared
    inputs; a case whose timed calls' results are not the ones to check
    adds the calls that give those."""
    yield from codec_cases(packages)
    sys.path.insert(0, str(ROOT / "tests"))
    import layer_cases as lc  # imports the checked-out curetau, already loaded

    for n, arms, R in product(lc.SIZES, lc.ARMS, lc.REPLICATES):
        summaries = [(package.km._sort_sample(lc.own(package, lc.arm_sample(n))),) * arms
                     for package in packages]
        yield (f"_count_chunks n={n} arms={arms} R={R}",
               [lambda chunks=package.km._count_chunks, own=own, R=R: sum(
                   1 for _ in chunks(own, 1, R)) for package, own in zip(packages, summaries)],
               [lambda package=package, own=own, R=R: draw_all(package, own, 1, R)
                for package, own in zip(packages, summaries)])
    for count in lc.STATE_COUNTS:
        yield (f"_pcg64_states R={count}",
               [lambda states=package.seeding._pcg64_states, count=count: states(
                   lc.STATE_SEED, count) for package in packages])
    for n in lc.LAYER_SIZES:
        yield from table(packages, lc.layer_calls, n, suffix=f" n={n}")
    for n in lc.SIZES:
        built = [lc.one_arm_chunk(package, n) for package in packages]
        yield (f"_km_rows n={n}",
               [lambda rows=package.km._km_rows, summary=statistic.summaries[0], cells=cells:
                rows(summary, cells) for package, (statistic, cells) in zip(packages, built)],
               [lambda package=package, summary=statistic.summaries[0], cells=cells:
                km_values(package, summary, cells)
                for package, (statistic, cells) in zip(packages, built)])
        yield from table(packages, lc.bootstrap_calls, n, suffix=f" n={n} R={lc.R}")
    for n in lc.SIZES:
        yield from table(packages, lc.tau_calls, n, suffix=f" n={n}")
    yield from table(packages, lc.fixed_calls)


def race(calls):
    """Per side, the seconds of each round's call, base and change in turn."""
    times = [[], []]
    for turn in range(ROUNDS):
        for side in (1, 0) if turn % 2 else (0, 1):
            start = time.perf_counter()
            calls[side]()
            times[side].append(time.perf_counter() - start)
    return times


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
        for label, calls, *checks in cases((change, base)):
            if len({fingerprint(check()) for check in (checks[0] if checks else calls)}) != 1:
                raise SystemExit(f"{label}: the commits' results differ")
            change_call, base_call = calls
            change_call(), base_call()  # warm up
            base_times, change_times = race((base_call, change_call))
            won = sum(c < b for b, c in zip(base_times, change_times))
            sides = [" %.3f [%.3f, %.3f]" % tuple(1e3 * v for v in quartiles(times))
                     for times in (base_times, change_times)]
            print(f"{label}:{sides[0]} ->{sides[1]}, won {won} of {ROUNDS}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
