"""Latency distributions with bounded support.

Used both to generate susceptible event times and to compute population
truths by quadrature.  All sampling goes through the inverse CDF so draws are
fully determined by the supplied uniforms.  A truth reads a latency through
``sf``, ``cdf``, ``ppf`` and ``support_end`` only: it integrates one arm's
survival over the other arm's quantiles.

The Beta methods and the Weibull density evaluate the ``scipy.special`` and
numpy forms that ``stats.beta`` and ``stats.weibull_min`` call, with the same
support rule, so they equal ``scipy.stats`` bit for bit without importing it.
Only the ``BetaLatency`` methods need those ufuncs, and ``_forms`` loads them
at their first call, not with the package: a command that reads a CSV never
loads them, and a Beta call loads the compiled ``scipy.special._ufuncs``
alone, not the ``scipy.special`` package and its array-API layer.  While the
package is not loaded, a placeholder parent (a package module whose
``__init__`` never runs) stands in ``sys.modules`` for that one import and is
removed after it.  A later ``import scipy.special`` runs the real
``__init__``, which reuses the loaded ``_ufuncs``, so its ufuncs are the
objects ``_forms`` holds; only the compiled modules that ``_ufuncs`` loaded
under the placeholder are not attributes of it, though ``from scipy.special
import`` still finds them.  Where that import fails, the package is imported
whole.  Where ``_ufuncs`` lacks the two Beta forms, they are taken from
``stats.beta``, with the same values bit for bit.
"""

import functools
import importlib.util
import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

_Forms = namedtuple("_Forms", "special pdf ppf through_stats")


def _ufuncs():
    """``scipy.special._ufuncs``, under a placeholder parent while the
    ``scipy.special`` package is not loaded, else through the package."""
    if "scipy.special" not in sys.modules:
        placeholder = importlib.util.module_from_spec(importlib.util.find_spec("scipy.special"))
        sys.modules["scipy.special"] = placeholder
        try:
            return importlib.import_module("scipy.special._ufuncs")
        except ImportError:
            pass  # loaded below with the whole package, as ``from scipy import special`` does
        finally:
            if sys.modules.get("scipy.special") is placeholder:
                del sys.modules["scipy.special"]
    return importlib.import_module("scipy.special._ufuncs")


@functools.cache
def _forms():
    """The ``scipy.special._ufuncs`` module, the Beta density and quantile
    forms, and whether these came through ``stats.beta``; loaded on the first
    call (see the module docstring for the placeholder parent)."""
    special = _ufuncs()
    try:
        return _Forms(special, special._beta_pdf, special._beta_ppf, False)
    except AttributeError:  # older scipy: the same forms, reached through stats.beta
        from scipy import stats

        return _Forms(special, stats.beta._pdf, stats.beta.ppf, True)


def truncated_weibull_sample(shape, scale, t_b, u):
    """Inverse-CDF draw from a Weibull conditioned on ``[0, t_b]``.

    ``u`` may be a scalar or an array of uniforms in (0, 1); the output never
    exceeds ``t_b``.
    """
    if shape <= 0 or scale <= 0 or t_b <= 0:
        raise ValueError("shape, scale, and t_b must be positive")
    mass = -math.expm1(-((t_b / scale) ** shape))  # Weibull CDF at t_b
    u = np.asarray(u, dtype=float)
    out = scale * (-np.log1p(-u * mass)) ** (1.0 / shape)
    return np.minimum(out, t_b) if out.ndim else float(min(out, t_b))


@dataclass(frozen=True)
class BetaLatency:
    """Beta(alpha, beta) event times on [0, 1].

    Each method calls the ``scipy.special`` ufunc behind ``stats.beta``'s,
    with its support rule; the first call loads ``scipy.special._ufuncs``
    alone, not the ``scipy.special`` package (see ``_forms``).
    """

    alpha: float
    beta: float

    @property
    def support_end(self):
        return 1.0

    def sf(self, t):
        return _forms().special.betaincc(self.alpha, self.beta, np.clip(t, 0.0, 1.0))

    def cdf(self, t):
        return _forms().special.betainc(self.alpha, self.beta, np.clip(t, 0.0, 1.0))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        x = np.clip(t, 0.0, 1.0)
        # At a subnormal x with alpha < 1 the ufunc raises OverflowError for
        # the whole call; there the density is taken in log form instead.
        subnormal = (x > 0.0) & (x < np.finfo(float).tiny)
        a, b = self.alpha, self.beta
        forms = _forms()
        with np.errstate(over="ignore"):
            dens = forms.pdf(np.where(subnormal, 0.5, x), a, b)
            if subnormal.any():
                special = forms.special
                log = (special.xlogy(a - 1.0, x) + special.xlog1py(b - 1.0, -x)
                       - special.betaln(a, b))
                dens = np.where(subnormal, np.exp(log), dens)
        return np.where((t < 0.0) | (t > 1.0), 0.0, dens)[()]

    def ppf(self, q):
        return _forms().ppf(q, self.alpha, self.beta)

    def label(self):
        return f"beta({self.alpha:g},{self.beta:g})"

    def to_dict(self):
        return {"kind": "beta", "alpha": self.alpha, "beta": self.beta}


@dataclass(frozen=True)
class TruncatedWeibullLatency:
    """Weibull(shape, scale) event times conditioned on [0, t_b]."""

    shape: float
    scale: float
    t_b: float

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0 or self.t_b <= 0:
            raise ValueError("shape, scale, and t_b must be positive")

    @property
    def support_end(self):
        return self.t_b

    def _mass(self):
        return -math.expm1(-((self.t_b / self.scale) ** self.shape))

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        base = -np.expm1(-((np.clip(t, 0.0, self.t_b) / self.scale) ** self.shape))
        out = np.clip(base / self._mass(), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def sf(self, t):
        return 1.0 - self.cdf(t)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.t_b)
        y = t / self.scale
        c = self.shape
        with np.errstate(all="ignore"):  # inf at t = 0 when c < 1; outside is masked
            dens = c * np.power(y, c - 1.0) * np.exp(-np.power(y, c)) / self.scale / self._mass()
        out = np.where(inside, dens, 0.0)
        return float(out) if out.ndim == 0 else out

    def ppf(self, q):
        return truncated_weibull_sample(self.shape, self.scale, self.t_b, q)

    def label(self):
        return f"truncated_weibull({self.shape:g},{self.scale:g},{self.t_b:g})"

    def to_dict(self):
        return {
            "kind": "truncated_weibull",
            "shape": self.shape,
            "scale": self.scale,
            "t_b": self.t_b,
        }


def latency_from_dict(spec):
    """Build a latency distribution from its JSON-style description."""
    kind = spec.get("kind")
    if kind == "beta":
        return BetaLatency(float(spec["alpha"]), float(spec["beta"]))
    if kind == "truncated_weibull":
        return TruncatedWeibullLatency(
            float(spec["shape"]), float(spec["scale"]), float(spec["t_b"])
        )
    raise ValueError(f"unknown latency kind {kind!r}")
