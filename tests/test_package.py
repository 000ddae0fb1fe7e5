import json
import os
import subprocess
import sys
import types
from pathlib import Path

import curetau as ct

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_lists_exactly_the_public_names():
    assert len(set(ct.__all__)) == len(ct.__all__)
    listed = {name: getattr(ct, name) for name in ct.__all__}
    assert not [name for name, value in listed.items() if isinstance(value, types.ModuleType)]
    public = {name for name in dir(ct) if not name.startswith("_")
              and not isinstance(getattr(ct, name), types.ModuleType)}
    assert public == set(listed)
    namespace = {}
    exec("from curetau import *", namespace)
    assert "np" not in namespace and "km" not in namespace
    assert set(namespace) - {"__builtins__"} == set(listed)


def test_import_loads_neither_scipy_stats_nor_integrate():
    """A CLI call pays only for ``numpy`` and ``scipy.special``, and the
    quadrature truths load neither heavy module either."""
    child = """
import json, sys
import curetau.cli
import curetau
heavy = ("scipy.stats", "scipy.integrate")
before = [name for name in heavy if name in sys.modules]
value = curetau.true_tau_quadrature(curetau.BetaLatency(1, 4), curetau.BetaLatency(1, 2),
                                    0.2, 0.2, 0.5)
print(json.dumps({"before": before, "value": value,
                  "after": [name for name in heavy if name in sys.modules]}))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, check=True)
    seen = json.loads(done.stdout)
    assert seen["before"] == []
    assert seen["after"] == []
    assert seen["value"] == ct.true_tau_quadrature(ct.BetaLatency(1, 4), ct.BetaLatency(1, 2),
                                                   0.2, 0.2, 0.5)
