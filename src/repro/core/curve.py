"""Weight-latency curves (§4.2).

KnapsackLB learns, per DIP, a mapping from LB weight to the mean response
latency the DIP would exhibit at that weight.  The mapping is fitted with
polynomial regression (degree 2 in the paper) over a handful of measured
points — only points without packet drops are used — and corrected to be
monotonically non-decreasing, since assigning more traffic can never make a
DIP faster.

The curve also supports the §4.5 adaptations: *rescaling* the weight axis
when aggregate traffic changes (the same latency is now reached at a
different weight) and *inverting* the curve (weight for a target latency),
which is what the rescaling computation needs.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.config import CurveConfig
from repro.core.types import MeasurementPoint
from repro.exceptions import ConfigurationError, CurveFitError


@dataclass(frozen=True)
class WeightLatencyCurve:
    """A fitted weight → latency curve for one DIP.

    ``coefficients`` are in :func:`numpy.polyval` order (highest degree
    first) and describe the fit in the *unscaled* weight domain;
    ``weight_scale`` multiplies query weights before evaluation, which is
    how traffic-change rescaling (§4.5) is applied without re-fitting.
    """

    coefficients: tuple[float, ...]
    l0_ms: float
    w_max: float
    weight_scale: float = 1.0
    fit_points: tuple[MeasurementPoint, ...] = field(default=())
    enforce_monotone: bool = True

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ConfigurationError("coefficients must not be empty")
        if self.l0_ms < 0:
            raise ConfigurationError("l0_ms must be >= 0")
        if self.w_max < 0:
            raise ConfigurationError("w_max must be >= 0")
        if self.weight_scale <= 0:
            raise ConfigurationError("weight_scale must be positive")

    # -- evaluation -------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def _raw(self, weights: np.ndarray | float) -> np.ndarray:
        """The polynomial at the (scaled) weights, before corrections."""
        return np.polyval(self.coefficients, weights / self.weight_scale)

    def predict_many(self, weights: Sequence[float] | np.ndarray) -> np.ndarray:
        """Estimated mean latency (ms) at each of ``weights``.

        The one evaluation kernel: the polynomial over the whole grid, then
        the monotone correction (max of the polynomial over ``[0, w]``) and
        the idle-latency floor, each the same IEEE operation per element as
        evaluating one weight at a time.
        """
        ws = np.asarray(weights, dtype=np.float64)
        if (ws < 0).any():
            raise ConfigurationError("weight must be >= 0")
        values = self._raw(ws)
        if self.enforce_monotone:
            # The polynomial at weight 0 is its constant term.
            values = np.maximum(self.coefficients[-1], values)
            if self.degree == 2:
                a, b, _ = self.coefficients
                if a < 0 and abs(a) > 1e-15:
                    # A concave fit peaks at its vertex; past it the
                    # envelope holds the peak.
                    vertex = -b / (2 * a) * self.weight_scale
                    if vertex > 0.0:
                        peak = np.maximum(values, self._raw(vertex))
                        values = np.where(vertex < ws, peak, values)
            elif self.degree > 2:
                # No closed form: scan 64 points of [0, w] per weight.
                scan = np.stack([np.linspace(0.0, w, 64) for w in ws], axis=-1)
                values = np.maximum(values, self._raw(scan).max(axis=0))
        return np.maximum(self.l0_ms, values)

    def predict(self, weight: float) -> float:
        """Estimated mean latency (ms) at ``weight``.

        The prediction is never below the idle latency ``l0``.
        """
        return float(self.predict_many((weight,))[0])

    # -- inversion and rescaling (§4.5) -------------------------------------------

    def weight_for_latency(
        self, latency_ms: float, *, upper: float | None = None, tol: float = 1e-6
    ) -> float:
        """The smallest weight whose predicted latency reaches ``latency_ms``.

        Solved by bisection over the monotone prediction; returns ``upper``
        when even the largest weight stays below the target latency.
        """
        upper = upper if upper is not None else max(self.w_max, 1e-3) * 2.0
        if latency_ms <= self.predict(0.0):
            return 0.0
        if self.predict(upper) < latency_ms:
            return upper
        lo, hi = 0.0, upper
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if self.predict(mid) >= latency_ms:
                hi = mid
            else:
                lo = mid
            if hi - lo < tol:
                break
        return hi

    def rescaled(self, delta: float) -> "WeightLatencyCurve":
        """Shift the curve along the weight axis by multiplying weights by δ.

        §4.5: if the latency previously seen at weight ``w1`` is now seen at
        weight ``w2``, all weights are multiplied by ``δ = w1 / w2``; the
        curve must be evaluated accordingly (a query at weight ``w`` now
        corresponds to the old ``w / δ``).
        """
        if delta <= 0:
            raise ConfigurationError("delta must be positive")
        return WeightLatencyCurve(
            coefficients=self.coefficients,
            l0_ms=self.l0_ms,
            w_max=self.w_max * delta,
            weight_scale=self.weight_scale * delta,
            fit_points=self.fit_points,
            enforce_monotone=self.enforce_monotone,
        )

    def rescale_for_latency_shift(
        self, weight: float, observed_latency_ms: float
    ) -> "WeightLatencyCurve":
        """Rescale so the curve predicts ``observed_latency_ms`` at ``weight``.

        This is the full §4.5 mechanism: find ``w2`` (the weight at which the
        current curve predicts the observed latency), compute
        ``δ = w1 / w2`` and apply :meth:`rescaled`.
        """
        if weight <= 0:
            raise ConfigurationError("weight must be positive")
        w2 = self.weight_for_latency(observed_latency_ms)
        if w2 <= 0:
            # The observed latency is at/below idle latency even at weight 0:
            # treat as "plenty of headroom" and stretch the curve outward.
            w2 = min(self.w_max if self.w_max > 0 else weight, weight) / 2.0
            if w2 <= 0:
                return self
        delta = weight / w2
        return self.rescaled(delta)


#: the compiled module behind ``scipy.optimize.nnls`` (SciPy ≥ 1.15).
_NNLS_MODULE = "scipy.optimize._slsqplib"


def _nnls_extension_path() -> str | None:
    """The file of :data:`_NNLS_MODULE` in the installed SciPy, if any.

    ``find_spec`` of a top-level package only locates it; nothing of SciPy
    executes.
    """
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_slsqplib" + suffix)
            if os.path.isfile(path):
                return path
    return None


@functools.cache
def _compiled_nnls() -> Callable | None:
    """SciPy's compiled ``nnls(A, b, maxiter) -> (x, rnorm, info)``, or ``None``.

    Importing ``scipy.optimize`` for it costs ≈0.3 s and ≈40 MiB (HiGHS,
    sparse, linalg …); the extension alone costs neither.  It registers
    under its package name, so a later ``import scipy.optimize`` reuses it.
    ``None`` (the caller then imports the package) when the file or the
    symbol is missing, or the loader needs SciPy's own initialisation.
    """
    module = sys.modules.get(_NNLS_MODULE)
    if module is None:
        path = _nnls_extension_path()
        if path is None:
            return None
        loader = importlib.machinery.ExtensionFileLoader(_NNLS_MODULE, path)
        try:
            spec = importlib.util.spec_from_file_location(
                _NNLS_MODULE, path, loader=loader
            )
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
        except ImportError:
            return None
        module = sys.modules.setdefault(_NNLS_MODULE, module)
    return getattr(module, "nnls", None)


def _nnls(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """``scipy.optimize.nnls(design, target)``, bit for bit.

    The same checks, default ``maxiter`` and error as SciPy's Python
    wrapper around the same compiled routine; the wrapper itself only when
    :func:`_compiled_nnls` cannot load that routine.
    """
    routine = _compiled_nnls()
    if routine is None:
        from scipy.optimize import nnls

        return nnls(design, target)
    design = np.asarray_chkfinite(design, dtype=np.float64, order="C")
    target = np.asarray_chkfinite(target, dtype=np.float64)
    if design.ndim != 2 or target.shape != design.shape[:1]:
        raise ValueError(f"shapes {design.shape} and {target.shape} do not match")
    solution, rnorm, info = routine(design, target, 3 * design.shape[1])
    if info == 3:
        raise RuntimeError("Maximum number of iterations reached.")
    return solution, rnorm


def fit_curve(
    points: Sequence[MeasurementPoint],
    *,
    config: CurveConfig | None = None,
    l0_ms: float | None = None,
    w_max: float | None = None,
) -> WeightLatencyCurve:
    """Fit a weight-latency curve from measurement points.

    Only points without packet drops are used (as in §6.1).  ``l0_ms``
    defaults to the latency of the smallest-weight point; ``w_max`` defaults
    to the largest non-dropped weight.
    """
    config = config or CurveConfig()
    usable = [p for p in points if not p.dropped]
    if len(usable) < config.min_points:
        raise CurveFitError(
            f"need at least {config.min_points} non-dropped points, got {len(usable)}"
        )
    usable.sort(key=lambda p: p.weight)

    weights = np.array([p.weight for p in usable], dtype=float)
    latencies = np.array([p.latency_ms for p in usable], dtype=float)

    degree = min(config.degree, len(usable) - 1)
    if config.nonnegative_coefficients:
        # Constrained least squares with non-negative coefficients: latency
        # can only grow with weight, which keeps the fit sane in weight
        # regions the exploration did not sample densely (Algorithm 1 tends
        # to cluster points near capacity).  The solve is SciPy's compiled
        # Lawson-Hanson routine, loaded alone (see ``_nnls``): a fit loads
        # one extension module, not the ``scipy.optimize`` package.
        design = np.vander(weights, degree + 1, increasing=True)
        solution, _ = _nnls(design, latencies)
        coefficients = solution[::-1]
    else:
        coefficients = np.polyfit(weights, latencies, degree)

    inferred_l0 = float(latencies[0]) if l0_ms is None else float(l0_ms)
    inferred_wmax = float(weights[-1]) if w_max is None else float(w_max)

    return WeightLatencyCurve(
        coefficients=tuple(float(c) for c in coefficients),
        l0_ms=max(0.0, inferred_l0),
        w_max=max(0.0, inferred_wmax),
        fit_points=tuple(usable),
        enforce_monotone=config.enforce_monotone,
    )


def fit_error(curve: WeightLatencyCurve, points: Sequence[MeasurementPoint]) -> float:
    """Root-mean-square error of the curve against (non-dropped) points."""
    usable = [p for p in points if not p.dropped]
    if not usable:
        return 0.0
    errors = curve.predict_many([p.weight for p in usable]) - np.array(
        [p.latency_ms for p in usable]
    )
    return float(np.sqrt(np.mean(np.square(errors))))
