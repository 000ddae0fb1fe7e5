"""What the A/B tools share: exporting a commit and summing up timings."""

import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev, tree):
    """Write the files of commit ``rev`` into directory ``tree``, made if
    missing."""
    tree.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)


def quartiles(values):
    """Median and the lower and upper quartiles (linear interpolation)."""
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return median, low, high
