"""Run the benchmark and keep its results on file as ``BENCH_<sha>.json``.

Run from a checkout, naming the commit to compare the checked-out one with:

    python3 tools/bench_record.py BASE

or print the comparison of the two files already on record, running nothing:

    python3 tools/bench_record.py --summarize BASE

Both commits are exported with ``git archive`` into a temporary directory and
run from there, so only committed code is measured.  Every workload that
``BENCHMARK.json`` lists runs once per seed 1-10, for its ``run_seconds``, as
an untraced ``python3 perfbench/run.py``.  The two commits take turns run by
run, and the one that goes first alternates from seed to seed, so a drift in
the machine's load falls on both alike.

Each commit gets one file at the root of the checkout, which makes the pair a
before/after record: the commit, the machine, the Python, numpy and scipy
versions, and for each run the result line perfbench prints last and the
median time of its reference block.  The exit code is 1 when a run fails or
reports an incorrect output.

Then, for each workload and end-to-end metric, it prints both commits'
medians and quartiles over the seeds, the pairs (same workload and seed) the
checked-out commit won, ties counting for neither, and whether the rule for
claiming a gain holds: at least nine tenths of the pairs won, and the medians
apart by more than the base commit's quartile distance.  Each workload's line
ends with the operations failed out of those attempted on each side.
"""

import argparse
import json
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_common import ROOT, export, quartiles

SEEDS = range(1, 11)
BLOCK_MEDIAN = re.compile(r"reference block median ([0-9.]+) s")


def git(*args, **kwargs):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True, **kwargs)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(tree, workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    run = {"workload": workload, "seed": seed, "exit_code": done.returncode}
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["error"] = (done.stdout + done.stderr)[-2000:]
        return run, None
    env = next((line for line in lines if line.startswith("environment: ")), None)
    match = next(filter(None, map(BLOCK_MEDIAN.search, lines)), None)
    run["reference_block_median_s"] = float(match.group(1)) if match else None
    return run, env and json.loads(env[len("environment: "):])


def summarize(benchmark, base, change):
    """Print the claim-rule table of two commits' records (see the module doc)."""
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        results = [{run["seed"]: run.get("result", {}) for run in record["runs"]
                    if run["workload"] == workload} for record in (base, change)]
        seeds = sorted(results[0].keys() & results[1].keys())
        print(f"{workload}: {len(seeds)} pairs; failed "
              + " -> ".join(f"{sum(r.get('failed', 0) for r in side.values())} of "
                            f"{sum(r.get('attempted', 0) for r in side.values())}"
                            for side in results))
        for metric in benchmark["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = [[side[seed].get("metrics", {}).get(name, {}).get("value")
                       for seed in seeds] for side in results]
            if not seeds or None in values[0] + values[1]:
                print(f"  {name}: missing")
                continue
            (b_mid, b_low, b_high), (c_mid, c_low, c_high) = map(quartiles, values)
            won = sum(sign * (c - b) > 0 for b, c in zip(*values))
            gap, spread = sign * (c_mid - b_mid), b_high - b_low
            met = won >= 0.9 * len(seeds) and gap > spread
            print(f"  {name} ({metric['unit']}, {metric['better']} is better): "
                  f"{b_mid:.4g} [{b_low:.4g}, {b_high:.4g}] -> "
                  f"{c_mid:.4g} [{c_low:.4g}, {c_high:.4g}], won {won} of {len(seeds)}, "
                  f"median gap {gap:+.4g} against base quartile distance {spread:.4g}; "
                  f"claim rule {'met' if met else 'not met'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    given = parser.add_mutually_exclusive_group(required=True)
    given.add_argument("base", nargs="?", help="the commit to compare HEAD with")
    given.add_argument("--summarize", metavar="BASE",
                       help="print the table from BENCH_BASE.json and BENCH_HEAD.json only")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    shas = [git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
            for rev in (args.summarize or args.base, "HEAD")]
    if shas[0] == shas[1]:
        parser.error("BASE is the checked-out commit")
    if args.summarize:
        paths = [ROOT / f"BENCH_{sha}.json" for sha in shas]
        for path in paths:
            if not path.exists():
                parser.error(f"no {path.name}")
        summarize(benchmark, *(json.loads(path.read_text()) for path in paths))
        return 0
    machine = {"cpu": cpu_model(), "platform": platform.platform()}
    records = {sha: {"git_sha": sha, "machine": machine, "seconds": seconds, "runs": []}
               for sha in shas}
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        trees = {sha: Path(scratch) / sha for sha in shas}
        for sha, tree in trees.items():
            export(sha, tree)
        for turn, seed in enumerate(SEEDS):
            for workload in workloads:
                for sha in shas[::-1] if turn % 2 else shas:
                    run, env = run_once(trees[sha], workload, seed, seconds)
                    if env is not None:
                        records[sha].setdefault("environment", env)
                    result = run.get("result", {})
                    failed |= run["exit_code"] != 0 or not result.get("correct", False)
                    records[sha]["runs"].append(run)
                    value = result.get("metrics", {}).get("runs_per_s", {}).get("value")
                    print(f"{sha[:12]} {workload} seed {seed}: runs_per_s {value}", flush=True)
    for sha, record in records.items():
        path = ROOT / f"BENCH_{sha}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    summarize(benchmark, *records.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
