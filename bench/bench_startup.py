"""Wall time of a fresh interpreter running the CLI, import included.

Run from the repository root with pytest-benchmark installed:

    PYTHONPATH=src python3 -m pytest -q bench/bench_startup.py

(the file name keeps it out of the library's own test collection).  Each
round starts a new Python process with ``PYTHONPATH`` set to ``src``, so the
time includes interpreter start-up and every module import.  One case only
imports ``curetau.cli``; one runs ``curetau fit --boot 200`` on a
200-subject ``table1-eta02`` draw; one runs the two-arm ``curetau simulate
--scenario table3-eta02 --runs 2 --boot 20``, which computes ten quadrature
truths.  Each case records the child's peak resident set (``ru_maxrss``, in
MB) as ``extra_info["maxrss_mb"]`` and the number of ``scipy`` modules it
loaded as ``extra_info["scipy_modules"]``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curetau as ct

SRC = Path(__file__).resolve().parents[1] / "src"
ROUNDS = 5
# Runs the case's statements, then reports on stderr (stdout is the CLI's).
CHILD = """
import json, resource, sys
{body}
usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
scipy_modules = sum(1 for name in sys.modules if name == "scipy" or name.startswith("scipy."))
sys.stderr.write(json.dumps({{"maxrss_mb": round(usage / 1024, 1),
                              "scipy_modules": scipy_modules}}))
"""


@pytest.fixture(scope="module")
def fit_input(tmp_path_factory):
    design, _ = ct.preset("table1-eta02")
    path = tmp_path_factory.mktemp("startup") / "table1.csv"
    path.write_text(ct.write_csv(ct.draw_sample(design, 1)))
    return path


def run_child(body):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", CHILD.format(body=body)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stderr)


@pytest.mark.parametrize("case", ["import", "fit", "simulate"])
def test_startup(benchmark, fit_input, case):
    argv = {
        "fit": ["fit", "--input", str(fit_input), "--boot", "200",
                "--output-dir", str(fit_input.parent / "fit")],
        "simulate": ["simulate", "--scenario", "table3-eta02", "--runs", "2", "--boot", "20",
                     "--output-dir", str(fit_input.parent / "simulate")],
    }.get(case)
    body = "import curetau.cli"
    if argv is not None:
        body += f"\nassert curetau.cli.main({argv!r}) == 0"
    seen = benchmark.pedantic(run_child, args=(body,), rounds=ROUNDS, iterations=1)
    benchmark.extra_info.update(seen)
    assert seen["scipy_modules"] > 0
