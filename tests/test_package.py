import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

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


def test_import_loads_neither_scipy_stats_nor_integrate(tmp_path):
    """A command that reads a CSV pays only for ``numpy``: importing the CLI,
    the normal quantile and tail, and whole ``fit``, ``compare`` and
    ``btune`` calls leave ``scipy.special`` and ``concurrent.futures``
    unloaded.  A Beta truth then loads ``scipy.special``'s compiled ufuncs,
    but not the package and neither heavy module."""
    child = """
import json, sys
import numpy as np
import curetau.cli
import curetau
from curetau.inference import normal_interval, two_sided_p, z_quantile
watched = ("scipy.special", "scipy.special._ufuncs", "scipy.stats", "scipy.integrate",
           "concurrent.futures")
loaded = lambda: [name for name in watched if name in sys.modules]
seen = {"import": loaded()}
z_quantile(0.975), normal_interval(0.1, 0.2), two_sided_p(0.1, 0.2)
seen["normal"] = loaded()
rng = np.random.default_rng(5)
latency = np.where(rng.random(80) < 0.3, np.inf, rng.beta(1.0, 3.0, 80))
censor = rng.uniform(0.05, 1.5, 80)
times, status = np.minimum(latency, censor), latency <= censor
directory = sys.argv[1]
with open(f"{directory}/two_arm.csv", "w") as fh:
    fh.write(curetau.write_csv(curetau.Sample(times, status, np.arange(80) % 2)))
with open(f"{directory}/arm.csv", "w") as fh:
    fh.write(curetau.write_csv(curetau.Sample(times, status)))
codes = [curetau.cli.main([command, "--input", f"{directory}/{name}", "--boot", "20",
                           "--output-dir", f"{directory}/{command}", *extra])
         for command, name, extra in (("fit", "arm.csv", ()),
                                      ("compare", "two_arm.csv", ("--eta-method", "extrapolate")),
                                      ("btune", "arm.csv", ()))]
seen["commands"] = loaded()
value = curetau.true_tau_quadrature(curetau.BetaLatency(1, 4), curetau.BetaLatency(1, 2),
                                    0.2, 0.2, 0.5)
print(json.dumps({**seen, "codes": codes, "value": value, "beta": loaded()}))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", child, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == seen["normal"] == seen["commands"] == []
    assert seen["codes"] == [0, 0, 0]
    assert seen["beta"] == ["scipy.special._ufuncs"]
    assert seen["value"] == ct.true_tau_quadrature(ct.BetaLatency(1, 4), ct.BetaLatency(1, 2),
                                                   0.2, 0.2, 0.5)


LOADER_PROBE = """
import importlib, json, sys
import numpy as np

if sys.argv[1] == "package-first":
    import scipy.special
    package = scipy.special
real_import_module = importlib.import_module
failed = []


def failing_import_module(name, package=None):
    parent = sys.modules.get("scipy.special")
    if name == "scipy.special._ufuncs" and parent is not None and not hasattr(parent, "gamma"):
        failed.append(name)
        raise ImportError(f"no module named {name!r}")
    return real_import_module(name, package)


if sys.argv[1] == "failing":
    importlib.import_module = failing_import_module
import curetau as ct
from curetau import distributions

points = np.array([float.fromhex(point) for point in json.loads(sys.argv[2])])
values = [np.asarray(getattr(ct.BetaLatency(0.5, 1.5), method)(points)).tolist()
          for method in ("sf", "cdf", "pdf", "ppf")]
importlib.import_module = real_import_module
parent = sys.modules.get("scipy.special")
seen = {"failed": failed, "values": [[float(v).hex() for v in row] for row in values],
        "ufuncs": "scipy.special._ufuncs" in sys.modules,
        "parent": None if parent is None else hasattr(parent, "gamma")}
if sys.argv[1] == "package-first":
    seen["kept"] = sys.modules["scipy.special"] is package
import scipy.special
forms = distributions._forms()
seen["complete"] = (hasattr(scipy.special, "gamma")
                    and set(scipy.special.__all__) <= set(dir(scipy.special)))
seen["same"] = all(getattr(scipy.special, name) is getattr(forms.special, name)
                   for name in ("betainc", "betaincc", "xlogy", "xlog1py", "betaln"))
print(json.dumps(seen))
"""


@pytest.mark.parametrize("path, parent", [("default", None), ("package-first", True),
                                          ("failing", True)])
def test_beta_calls_load_the_ufuncs_under_a_placeholder_that_goes(path, parent):
    """The first Beta call loads ``scipy.special._ufuncs`` under a placeholder
    parent and leaves no ``scipy.special`` in ``sys.modules``; a later
    ``import scipy.special`` gives the whole package, whose ufuncs are the
    objects the forms hold.  With the package imported first, the forms are
    its ufuncs and the package stays its entry.  Where the import under the
    placeholder raises, the placeholder goes and the package is imported
    whole.  Each gives this process's values bit for bit."""
    points = np.concatenate(([-0.5, 0.0, 1e-320, 1e-12], np.linspace(0.0, 1.0, 101), [1.0, 1.5]))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", LOADER_PROBE, path,
                           json.dumps([point.hex() for point in points.tolist()])],
                          env=env, capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout)
    assert seen["parent"] is parent
    assert seen["ufuncs"] and seen["complete"] and seen["same"]
    assert seen["failed"] == (["scipy.special._ufuncs"] if path == "failing" else [])
    assert seen.get("kept", True)
    dist = ct.BetaLatency(0.5, 1.5)
    assert seen["values"] == [[value.hex() for value in np.asarray(getattr(dist, method)(points))
                               .tolist()] for method in ("sf", "cdf", "pdf", "ppf")]


BETA_PROBE = """
import importlib, json, sys, types
import numpy as np

hidden = {"_beta_pdf", "_beta_ppf"}
real_import_module = importlib.import_module


def hiding_import_module(name, package=None):
    module = real_import_module(name, package)
    if name == "scipy.special._ufuncs":
        return types.SimpleNamespace(**{key: value for key, value in vars(module).items()
                                        if key not in hidden})
    return module


if sys.argv[1] == "fallback":
    importlib.import_module = hiding_import_module
import curetau as ct
from curetau import distributions

points = np.concatenate(([-0.5, 0.0, 1e-12], np.linspace(0.0, 1.0, 201),
                         [1.0 - 2.0 ** -53, 1.0, 1.5]))
values = {}
for alpha, beta in ((1, 4), (0.5, 1.5), (0.3, 0.3), (3, 0.6), (6, 2.5)):
    dist = ct.BetaLatency(alpha, beta)
    for method in ("sf", "cdf", "pdf", "ppf"):
        values[f"{method}{alpha},{beta}"] = np.asarray(getattr(dist, method)(points)).tolist()
design, _ = ct.preset("table4-eta02")
arm0, arm1 = design.arm0, design.arm1
for kind in ("susceptible", "overall"):
    values[kind] = [ct.true_tau_quadrature(arm0.latency, arm1.latency, arm0.eta, arm1.eta,
                                           t / 10, kind=kind) for t in range(1, 11)]
importlib.import_module = real_import_module
print(json.dumps({"fallback": distributions._forms().through_stats,
                  "values": {key: [float(v).hex() for v in value]
                             for key, value in values.items()}}))
"""


def test_beta_fallback_through_scipy_stats_is_bit_identical():
    """Where ``scipy.special._ufuncs`` lacks ``_beta_pdf``/``_beta_ppf``,
    ``BetaLatency`` reaches the same forms through ``scipy.stats.beta``: a
    child process hides the two names from the ``_ufuncs`` module that
    ``importlib.import_module`` gives the loader until the values are
    computed, since the forms are loaded at the first Beta call, and the
    four methods and the table4 truths, which call ``ppf``, equal the default
    path bit for bit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    seen = {}
    for path in ("default", "fallback"):
        done = subprocess.run([sys.executable, "-c", BETA_PROBE, path], env=env,
                              capture_output=True, text=True, check=True)
        seen[path] = json.loads(done.stdout)
    assert not seen["default"]["fallback"]
    assert seen["fallback"]["fallback"]
    assert seen["fallback"]["values"] == seen["default"]["values"]
