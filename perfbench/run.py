"""curetau benchmark: one workload, untraced (end-to-end) or traced (per layer).

Run from the repository root:

    python3 perfbench/run.py --workload mc-tau --seed 1 --seconds 25 --trace 0

Everything runs in this process as a closed loop with one client: each
``curetau.cli.main(argv)`` call starts after the previous one returned, and
Monte Carlo commands pass ``--jobs 1``.  BLAS and OpenMP pools are limited to
one thread.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the environment, the per-command timings and the artifact digest.
The exit code is 1 when an output check failed, 2 when the program is not
there to benchmark.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def prepare_environment():
    """Pin thread pools to one thread and import curetau from ``src``.

    Must run before numpy is imported.  Raises SystemExit when the checkout
    holds no program to benchmark.
    """
    if not (ROOT / "src" / "curetau" / "__init__.py").is_file():
        print(f"error: no curetau package under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import curetau

    if Path(curetau.__file__).resolve().parent != ROOT / "src" / "curetau":
        print(f"error: curetau imported from {curetau.__file__}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    prepare_environment()
    import bench

    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
