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

Both run on a *bank* of curves: :func:`predict_curves` and
:func:`weights_for_latencies` take every DIP of a VIP in one array pass, and
the single-curve methods are their one-row calls.  A :class:`CurveBank` keeps
a VIP's curve set with its stacked bank, so a control tick's drift check,
§4.5 rescale and ILP grid read the same arrays instead of re-stacking rows.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro import kernels
from repro.core.config import CurveConfig
from repro.core.types import DipId, MeasurementPoint
from repro.exceptions import ConfigurationError, CurveFitError


class _Row(NamedTuple):
    """What a curve contributes to a bank (:func:`_bank`): every input of
    its evaluation that does not depend on the query weights."""

    #: the coefficients, highest degree first, then the weight scale and l0.
    cells: tuple[float, ...]
    monotone: bool
    #: the weight past which the envelope holds ``peak`` (+inf: never).
    vertex: float
    peak: float
    #: bounded by a scan of ``[0, w]``: monotone above degree 2.
    scanned: bool
    #: where a concave monotone parabola peaks before the weight scale
    #: (``vertex`` is ``axis · scale`` when positive); nan: no such vertex.
    axis: float


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

    @functools.cached_property
    def bank_row(self) -> _Row:
        """This curve's row of a bank, computed once: down to where a
        concave envelope peaks."""
        coefficients = tuple(float(c) for c in self.coefficients)
        scale, monotone = float(self.weight_scale), self.enforce_monotone
        axis, a = math.nan, coefficients[0]
        if monotone and self.degree == 2 and a < 0 and abs(a) > 1e-15:
            # A concave fit peaks at its vertex.
            axis = -coefficients[1] / (2 * a)
        return _Row(
            (*coefficients, scale, float(self.l0_ms)),
            monotone,
            *_vertex(axis, scale, coefficients),
            monotone and self.degree > 2,
            axis,
        )

    def predict_many(self, weights: Sequence[float] | np.ndarray) -> np.ndarray:
        """Estimated mean latency (ms) at each of ``weights``: one row of
        :func:`predict_curves`."""
        ws = np.asarray(weights, dtype=np.float64)
        return predict_curves((self,), ws.reshape(1, -1)).reshape(ws.shape)

    def predict(self, weight: float) -> float:
        """Estimated mean latency (ms) at ``weight``.

        The prediction is never below the idle latency ``l0``.
        """
        return float(self.predict_many((weight,))[0])

    # -- inversion and rescaling (§4.5) -------------------------------------------

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


# -- the curve-bank kernels ----------------------------------------------------------
#
# Row ``i`` of a bank is ``curves[i]``; every per-element operation is the one
# a single curve's evaluation performs, so a bank of one row *is* that
# evaluation and a bank of many rows costs one kernel call instead of one per
# curve.


def _bank(curves: Sequence[WeightLatencyCurve]) -> tuple:
    """Curves as the bank arguments of :func:`repro.kernels.predict_bank`
    and :func:`repro.kernels.bisect_bank`, a row each: the coefficients,
    zero-padded in front to the widest curve, then the weight scale and l0
    (``table``), its ``width``, and the ``monotone``, ``vertex``, ``peak``
    and ``scanned`` columns of the rows' envelopes."""
    return _stack([c.bank_row for c in curves])


def _stack(rows: Sequence[_Row]) -> tuple:
    width = max((len(r.cells) for r in rows), default=3) - 2
    table = np.array(
        [(0.0,) * (width + 2 - len(r.cells)) + r.cells for r in rows], dtype=np.float64
    ).reshape(len(rows), width + 2)
    return (
        table,
        width,
        np.array([r.monotone for r in rows], dtype=bool),
        np.array([r.vertex for r in rows], dtype=np.float64),
        np.array([r.peak for r in rows], dtype=np.float64),
        np.array([r.scanned for r in rows], dtype=bool),
    )


def _vertex(axis: float, scale: float, coefficients: Sequence[float]) -> tuple[float, float]:
    """Where a row's envelope stops rising, ``axis · scale`` when that is
    positive, and the polynomial there; else ``(inf, -inf)``."""
    at = axis * scale
    if not at > 0.0:
        return math.inf, -math.inf
    x, value = at / scale, 0.0
    for c in coefficients:
        value = value * x + c
    return at, value


class CurveBank(Mapping[DipId, WeightLatencyCurve]):
    """A VIP's curve set, DIP → curve in row order, kept with its bank.

    ``arrays`` is what :func:`_bank` makes of the curves — ``table``,
    ``width``, ``monotone``, ``vertex``, ``peak``, ``scanned`` — and
    ``w_max`` their safe maxima.  Only the constructor and
    :meth:`with_curves` (fits, a restore) read a curve's
    :attr:`~WeightLatencyCurve.bank_row`.  A row slice (:meth:`take`) and a
    §4.5 rescale (:meth:`shifted`) derive the new bank from this one's
    columns, so every bank's ``arrays`` equal ``_bank`` of its curves byte
    for byte; a rescaled curve object is made from its row when it is first
    read.  A bank is never changed in place.
    """

    __slots__ = ("ids", "arrays", "w_max", "_axis", "_widths", "_base", "_curves", "_position")

    def __init__(self, curves: Mapping[DipId, WeightLatencyCurve] | None = None) -> None:
        curves = curves or {}
        rows = [c.bank_row for c in curves.values()]
        self._fill(
            tuple(curves),
            _stack(rows),
            np.array([c.w_max for c in curves.values()], dtype=np.float64),
            tuple(r.axis for r in rows),
            tuple(len(r.cells) - 2 for r in rows),
            tuple(curves.values()),
            list(curves.values()),
        )

    @classmethod
    def of(cls, curves: Mapping[DipId, WeightLatencyCurve]) -> "CurveBank":
        """``curves`` itself when it is a bank, else the bank built from it."""
        return curves if isinstance(curves, CurveBank) else cls(curves)

    def _fill(self, ids, arrays, w_max, axis, widths, base, curves, position=None) -> "CurveBank":
        self.ids, self.arrays, self.w_max = ids, arrays, w_max
        self._axis, self._widths = axis, widths
        #: per row, a curve with the row's coefficients, l0 and fit points,
        #: and the row's curve where it has been made (else None).
        self._base, self._curves = base, curves
        self._position = position or {dip: row for row, dip in enumerate(ids)}
        return self

    # -- the mapping ----------------------------------------------------------------

    def __getitem__(self, dip: DipId) -> WeightLatencyCurve:
        row = self._position[dip]
        curve = self._curves[row]
        if curve is None:
            # The rescaled() chain's fields: its products are the columns'.
            base = self._base[row]
            curve = self._curves[row] = WeightLatencyCurve(
                coefficients=base.coefficients,
                l0_ms=base.l0_ms,
                w_max=self.w_max[row].item(),
                weight_scale=self.arrays[0][row, self.arrays[1]].item(),
                fit_points=base.fit_points,
                enforce_monotone=base.enforce_monotone,
            )
        return curve

    def __contains__(self, dip: object) -> bool:
        return dip in self._position

    def __iter__(self) -> Iterator[DipId]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, ids: Iterable[DipId]) -> list[int]:
        """The rows of ``ids``."""
        return [self._position[dip] for dip in ids]

    # -- derived banks --------------------------------------------------------------

    def with_curves(self, curves: Mapping[DipId, WeightLatencyCurve]) -> "CurveBank":
        """This bank with ``curves`` (fits, restores): new DIPs' rows, read
        from their :attr:`~WeightLatencyCurve.bank_row`, go after the others;
        a DIP the bank holds keeps its row, and the bank is restacked."""
        if not curves:
            return self
        if any(dip in self._position for dip in curves):
            return CurveBank({**self, **curves})
        added = CurveBank(curves)
        (table, width, *columns), (more, own, *new) = self.arrays, added.arrays
        wide = max(width, own)
        cells = np.zeros((len(self) + len(added), wide + 2))
        cells[: len(self), wide - width :] = table
        cells[len(self) :, wide - own :] = more
        return object.__new__(CurveBank)._fill(
            self.ids + added.ids,
            (cells, wide, *(np.concatenate(pair) for pair in zip(columns, new))),
            np.concatenate((self.w_max, added.w_max)),
            self._axis + added._axis,
            self._widths + added._widths,
            self._base + added._base,
            self._curves + added._curves,
        )

    def take(self, ids: Sequence[DipId]) -> "CurveBank":
        """The bank of ``ids``' curves, in that order: a row slice."""
        ids = tuple(ids)
        if ids == self.ids:
            return self
        if len(set(ids)) != len(ids):
            raise ConfigurationError("a bank holds each DIP once")
        picked = self.rows(ids)
        rows = np.array(picked, dtype=np.intp)
        table, width, monotone, vertex, peak, scanned = self.arrays
        widths = tuple(self._widths[row] for row in picked)
        narrow = max(widths, default=1)
        return object.__new__(CurveBank)._fill(
            ids,
            (
                np.ascontiguousarray(table[rows, width - narrow :]),
                narrow,
                monotone[rows],
                vertex[rows],
                peak[rows],
                scanned[rows],
            ),
            self.w_max[rows],
            tuple(self._axis[row] for row in picked),
            widths,
            tuple(self._base[row] for row in picked),
            [self._curves[row] for row in picked],
        )

    def shifted(
        self,
        ids: Sequence[DipId],
        weights: Sequence[float],
        observed_latencies_ms: Sequence[float],
    ) -> "CurveBank":
        """The §4.5 shift of each ``ids[i]``'s curve to ``observed_latencies_ms[i]``
        at ``weights[i]``: one :func:`weights_for_latencies` over the bank
        finds ``w2``, and the curve is :meth:`WeightLatencyCurve.rescaled` by
        ``δ = w1 / w2``.  An observation at or below the curve's weight-0
        prediction (``w2 = 0``) means headroom: ``w2`` becomes half of
        ``min(w_max or w1, w1)``, and the curve is kept when that is 0.

        The new bank is this one's columns with the scale and ``w_max`` of
        each shifted row times δ and its ``vertex`` and ``peak`` by
        :attr:`~WeightLatencyCurve.bank_row`'s own law — the bits of the
        rescaled curves' rows — and refuses what ``rescaled`` refuses.
        """
        ids = tuple(ids)
        if any(weight <= 0 for weight in weights):
            raise ConfigurationError("weight must be positive")
        if len(weights) != len(ids) or len(set(ids)) != len(ids):
            raise ConfigurationError("need one weight per curve, each curve once")
        observed = np.array(observed_latencies_ms, dtype=np.float64)
        if observed.shape != (len(ids),):
            raise ConfigurationError("need one target latency per curve")
        # One inversion over the whole bank; a row not shifted aims at 0.
        rows = np.array(self.rows(ids), dtype=np.intp)
        targets = np.zeros(len(self))
        targets[rows] = observed
        found = weights_for_latencies(self, targets)[rows].tolist()
        table, width, monotone, vertex, peak, scanned = self.arrays
        cells, tops = table.tolist(), self.w_max.tolist()
        vertices, peaks, curves = vertex.tolist(), peak.tolist(), list(self._curves)
        for row, weight, w2 in zip(rows.tolist(), weights, found):
            if w2 <= 0:
                # The observed latency is at/below idle latency even at
                # weight 0: treat as "plenty of headroom" and stretch the
                # curve outward.
                w2 = min(tops[row] if tops[row] > 0 else weight, weight) / 2.0
                if w2 <= 0:
                    continue
            delta = weight / w2
            if delta <= 0:
                raise ConfigurationError("delta must be positive")
            scale = cells[row][width] * delta
            if scale <= 0:
                raise ConfigurationError("weight_scale must be positive")
            cells[row][width], tops[row], curves[row] = scale, tops[row] * delta, None
            coefficients = cells[row][width - self._widths[row] : width]
            vertices[row], peaks[row] = _vertex(self._axis[row], scale, coefficients)
        return object.__new__(CurveBank)._fill(
            self.ids,
            (
                np.array(cells, dtype=np.float64).reshape(table.shape),
                width,
                monotone,
                np.array(vertices, dtype=np.float64),
                np.array(peaks, dtype=np.float64),
                scanned,
            ),
            np.array(tops, dtype=np.float64),
            self._axis,
            self._widths,
            self._base,
            curves,
            self._position,
        )


def predict_curves(
    curves: Sequence[WeightLatencyCurve] | CurveBank,
    weights: Sequence[Sequence[float]] | np.ndarray,
) -> np.ndarray:
    """Estimated mean latency (ms) of ``curves[i]`` at each of ``weights[i]``.

    The one evaluation kernel, over a (curves, k) array: the polynomial, then
    the monotone correction (max of the polynomial over ``[0, w]``: the
    constant term, a concave parabola's vertex, or a 64-point scan above
    degree 2) and the idle-latency floor — each the same IEEE operation per
    element as evaluating one weight of one curve at a time.  A
    :class:`CurveBank` is read as it is kept.
    """
    arrays = curves.arrays if isinstance(curves, CurveBank) else _bank(curves)
    ws = np.asarray(weights, dtype=np.float64)
    if ws.ndim != 2 or len(ws) != len(curves):
        raise ConfigurationError("weights must be one row per curve")
    if ws.size and ws.min() < 0:
        raise ConfigurationError("weight must be >= 0")
    ws = np.ascontiguousarray(ws)
    out = np.empty_like(ws)
    kernels.predict_bank(*arrays, ws, out)
    return out


def weights_for_latencies(
    curves: Sequence[WeightLatencyCurve] | CurveBank,
    latencies_ms: Sequence[float] | np.ndarray,
    *,
    upper: float | Sequence[float] | np.ndarray | None = None,
    tol: float = 1e-6,
) -> np.ndarray:
    """Per curve, the smallest weight whose predicted latency reaches its target.

    Solved by bisection over the monotone prediction of ``[0, upper]``
    (default ``2·max(w_max, 1e-3)`` per curve; a scalar is every curve's),
    stopping once the bracket is under ``tol`` or after 200 halvings; 0 when
    the target is at or below the prediction at weight 0, ``upper`` when
    even ``upper`` stays below it.  One target per curve, finite; a finite
    ``upper >= 0`` and ``tol >= 0`` (at 0, every bisection runs its 200
    halvings), else :class:`ConfigurationError`.

    The bisections run in :func:`repro.kernels.bisect_bank`, one scalar loop
    per curve over the bank's arrays (a :class:`CurveBank`'s as it is kept).
    """
    bank = curves if isinstance(curves, CurveBank) else CurveBank(dict(enumerate(curves)))
    targets = np.array(latencies_ms, dtype=np.float64)
    if targets.shape != (len(bank),):
        raise ConfigurationError("need one target latency per curve")
    if not np.isfinite(targets).all():
        raise ConfigurationError("target latencies must be finite")
    if upper is None:
        uppers = np.maximum(bank.w_max, 1e-3) * 2.0
    else:
        uppers = np.array(upper, dtype=np.float64)
        if uppers.ndim == 0:
            uppers = np.full(len(bank), uppers)
        if uppers.shape != (len(bank),):
            raise ConfigurationError("upper must be one weight, or one per curve")
        if not ((uppers >= 0) & (uppers < np.inf)).all():
            raise ConfigurationError("upper must be finite and >= 0")
    if not 0 <= tol < np.inf:
        raise ConfigurationError("tol must be finite and >= 0")
    found = np.empty(len(bank))
    kernels.bisect_bank(*bank.arrays, targets, uppers, tol, found)
    return found


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
