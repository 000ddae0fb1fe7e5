"""Time whole ``curetau`` commands of two commits, each in a fresh interpreter.

Run from a checkout, naming the commit to compare the checked-out tree with:

    python3 tools/ab_fresh.py BASE

BASE is exported with ``git archive`` into a temporary directory.  Each case
is one CLI call, run as a new ``python3`` process with ``PYTHONPATH`` set to
one side's ``src``, so it pays for the interpreter, the imports and the work
as a user's command does: ``fit``, ``compare`` and ``btune`` on the
``arm0.csv`` and ``two_arm.csv`` that ``perfbench/workloads.py``'s
``write_demo_inputs`` writes (seed 1) at n = 200 and 5 000 per arm,
``simulate --scenario table3-eta02 --runs 2 --boot 500`` (shaped like the
mc-tau workload) and ``simulate --scenario table2-eta02 --eta-method
extrapolate --runs 2 --boot 500`` (shaped like mc-extrap).  The two sides
take turns for ``ROUNDS`` rounds, the one that goes first alternating from
round to round, so a drift in the machine's load falls on both alike.

Each child reports its own wall time, from before ``import curetau.cli`` to
the end of ``main``, and its own ``ru_maxrss`` and ``ru_minflt``
(``RUSAGE_SELF``: ``RUSAGE_CHILDREN`` would give the parent the maximum over
all its children), and whether the ``scipy.special`` package and its
compiled ``scipy.special._ufuncs`` were loaded.  After a check
that both sides exited alike and wrote the same bytes, on stdout and in every
artifact, it prints for each case both sides' median and quartiles of the
wall time, their median peak RSS and minor faults, the rounds the
checked-out tree won on wall time, and for each side which of the two
``scipy.special`` modules it loaded.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_common import ROOT, export, quartiles

ROUNDS = 7
SIZES = (200, 5000)
BOOT = "200"
CHILD = """
import json, resource, sys, time
start = time.perf_counter()
import curetau.cli
code = curetau.cli.main(sys.argv[1:])
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"code": code, "wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024,
                  "minflt": usage.ru_minflt,
                  "special": [name for name in ("scipy.special", "scipy.special._ufuncs")
                              if name in sys.modules]}))
"""


def cases(inputs):
    """``(label, argv)`` of each command, its inputs written into ``inputs``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads  # imports the checked-out curetau

    for n in SIZES:
        directory = inputs / f"n{n}"
        workloads.write_demo_inputs(1, directory, n)
        one, two = str(directory / "arm0.csv"), str(directory / "two_arm.csv")
        emit = ("--emit", "csv,svg,report")
        for command, argv in (("fit", ("--input", one, *emit)),
                              ("compare", ("--input", two, *emit)),
                              ("btune", ("--input", one))):
            yield f"{command} n={n}", (command, *argv, "--boot", BOOT, "--seed", "1")
    for scenario, extra in (("table3-eta02", ()),
                            ("table2-eta02", ("--eta-method", "extrapolate"))):
        yield (" ".join(("simulate", scenario, *extra[1:], "runs=2")),
               ("simulate", "--scenario", scenario, *extra, "--runs", "2", "--boot", "500",
                "--seed", "1"))


def run(src, argv, outdir):
    """One fresh CLI call on the package in ``src``: its report and a digest
    of its stdout and of every file it wrote."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", CHILD, *argv, "--output-dir", str(outdir)],
                          cwd=outdir, env=env, capture_output=True, text=True)
    *printed, last = done.stdout.splitlines() or [""]
    try:
        report = json.loads(last)
    except json.JSONDecodeError:
        raise SystemExit(f"{' '.join(argv)} failed:\n{done.stderr[-2000:]}") from None
    digest = hashlib.sha256("\n".join(printed).encode())
    for path in sorted(outdir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    report["digest"] = (report.pop("code"), digest.hexdigest())
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit to compare the checked-out tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        export(args.base, scratch)
        sides = (scratch / "src", ROOT / "src")
        print(f"base {args.base} against the checked-out tree, {ROUNDS} rounds of fresh "
              "processes; wall median [quartiles] in s, peak RSS and minor faults as medians")
        for label, argv in cases(scratch / "inputs"):
            reports = [[], []]
            for turn in range(ROUNDS):
                for side in (1, 0) if turn % 2 else (0, 1):
                    reports[side].append(run(sides[side], argv, scratch / "out"))
            if len({report["digest"] for side in reports for report in side}) != 1:
                raise SystemExit(f"{label}: the commits exit or write differently")
            walls = [[report["wall_s"] for report in side] for side in reports]
            won = sum(c < b for b, c in zip(*walls))
            text = []
            for side in reports:
                text.append("%.3f [%.3f, %.3f] s, " % quartiles([r["wall_s"] for r in side])
                            + "%.1f MB, %d faults" % tuple(statistics.median(r[key] for r in side)
                                                           for key in ("maxrss_mb", "minflt"))
                            + "".join(f", {name}" for name in sorted(
                                {name for r in side for name in r["special"]})))
            print(f"{label}: {text[0]} -> {text[1]}; won {won} of {ROUNDS}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
