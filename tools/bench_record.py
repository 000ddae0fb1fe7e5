"""Run the benchmark and keep its results on file as ``BENCH_<sha>.json``.

Run from a checkout, naming the commit to compare the checked-out one with:

    python3 tools/bench_record.py BASE

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
"""

import argparse
import json
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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


def export(sha, tree):
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=git("archive", sha).stdout, check=True)


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit to compare HEAD with")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    shas = [git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
            for rev in (args.base, "HEAD")]
    if shas[0] == shas[1]:
        parser.error("BASE is the checked-out commit")
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
