"""The scalar loops the simulator and the control tick spend their time in.

:func:`walk` is :meth:`repro.sim.queueing.StationWalk.advance`'s loop,
:func:`smooth_wrr` the argmax loop :class:`repro.lb.WeightedRoundRobin` and
the epoch engine's ``_SmoothWrrRouter`` share, and :func:`station_stats` the
busy integrals a replayed station reports.  The first two do not vectorize —
each step reads the state the previous one wrote — and the third costs numpy
a sort and five passes for what one merge does.  :func:`band_dp` is the
``dp`` solver's band DP, :func:`bisect_bank` the §4.5 curve inversion
(:func:`repro.core.curve.weights_for_latencies`) and :func:`expand_core`
the stage loop of the ``mckp`` solver's core DP: each is a few scalar
operations per step, which numpy pays a call (or ≈20 a stage) for.  All six
are compiled: the C module ``_kernels.c`` beside this file transcribes the
Python bodies below (the inversion's is ``core/curve.py::_bisect`` and the
core DP's the loop in ``solver/mckp.py::_expand_core``, as this module
imports nothing of :mod:`repro.core` or :mod:`repro.solver`), which are the
fallback where it cannot be built and the oracle the tests hold it to, byte
for byte.

Where the compiled module comes from:

- a source checkout (``_kernels.c`` is here) builds it on first import into
  ``__pycache__/``, named by the sha-256 of the source and flags and by the
  interpreter's extension suffix, with ``sysconfig``'s compiler and
  :data:`CFLAGS`; the file is written aside and moved into place with
  :func:`os.replace`, so concurrent first imports race harmlessly.  A later
  import finds it and loads it without ``subprocess`` or ``sysconfig``;
- an installed package ships it as the ``repro._kernels`` extension
  (``pyproject.toml`` builds it with the same flags);
- with no compiler, or a build that fails, the Python bodies run.

:data:`PATH` names the one that loaded (``"compiled"`` or ``"python"``); a
request run, and a fluid or fleet run whose controller ran, records it as
``provenance.kernels``.
"""

from __future__ import annotations

import hashlib
import heapq
import importlib
import importlib.machinery
import importlib.util
import os
from types import ModuleType
from typing import Any

import numpy as np

#: compile flags of the kernels: no fused multiply-add, no fast-math, so the
#: C arithmetic is the Python loops' IEEE arithmetic.
CFLAGS = ("-O2", "-ffp-contract=off")

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_kernels.c")
_NAME = "repro._kernels"

_NAN = float("nan")
_INF = float("inf")


# -- the Python bodies (the fallback, and the oracle the tests read) --------------


def py_walk(
    arrivals: np.ndarray,
    departures: np.ndarray,
    i: int,
    free: np.ndarray,
    ring: np.ndarray,
    pos: int,
    draws: np.ndarray,
    j: int,
    scale: float,
    aligned: bool,
    until: float,
    busy: float,
) -> tuple[int, int, int, float]:
    """Walk ``arrivals[i:]`` through one FCFS M/M/c/K station.

    ``free`` is the heap of worker-free times and ``ring`` the start times
    of the last ``len(ring)`` admissions that had to wait, the oldest at
    ``pos``: an arrival at ``a`` is dropped iff ``ring[pos] > a`` (with no
    queue, iff every worker frees after ``a``).  Each admitted request
    starts at ``max(a, free[0])`` and takes ``draws[j] * scale`` of
    service; one that would start after ``until`` takes none and departs
    at ``inf``, a drop at NaN, written to ``departures[i]``.

    ``aligned``: ``draws`` is aligned to ``arrivals`` and a request that
    takes no service skips its entry.  Otherwise ``draws`` is a buffer of
    unit draws read from ``j``, and the walk stops at the first start that
    finds it empty.  ``free``, ``ring`` and ``departures`` are updated in
    place; returns ``(i, j, pos, busy)`` where the walk stopped, ``busy``
    plus the service it handed out.
    """
    heap = free.tolist()
    starts = ring.tolist()
    lag = len(starts)
    units = draws.tolist()
    end = len(units)
    heapreplace = heapq.heapreplace
    out: list[float] = []
    depart = out.append
    first = i
    for a in arrivals[i:].tolist():
        if (starts[pos] if lag else heap[0]) > a:  # the station is full at ``a``
            depart(_NAN)
            j += aligned
            continue
        start = heap[0]
        waits = start > a  # every worker is busy (so there is a queue)
        if waits and start > until:
            starts[pos] = start
            pos = (pos + 1) % lag
            depart(_INF)
            j += aligned
            continue
        if j == end:
            break  # out of unit draws: the caller refills and resumes here
        if waits:
            starts[pos] = start
            pos = (pos + 1) % lag
        else:
            start = a
        service = units[j] * scale
        j += 1
        leaves = start + service
        heapreplace(heap, leaves)
        busy += service
        depart(leaves)
    i = first + len(out)
    departures[first:i] = out
    free[:] = heap
    ring[:] = starts
    return i, j, pos, busy


def py_smooth_wrr(
    current: np.ndarray,
    w: np.ndarray,
    total: float,
    out: np.ndarray | None,
    count: int,
) -> int | None:
    """``count`` smooth-WRR picks over aligned arrays, advancing ``current``.

    Every candidate's score grows by its weight, the highest score wins —
    the first of equal scores, so ties go in pool order — and the winner
    pays the total back.  Pick ``k`` goes to ``out[k]`` (unless ``out`` is
    ``None``); returns the last pick, ``None`` for ``count == 0``.
    """
    best = None
    for k in range(count):
        current += w
        best = int(current.argmax())
        current[best] -= total
        if out is not None:
            out[k] = best
    return best


def py_station_stats(
    arrivals: np.ndarray,
    admitted: np.ndarray,
    departures: np.ndarray,
    servers: int,
    until: float,
) -> tuple[float, float]:
    """A station's ``(busy_time_s, busy_worker_seconds)`` from its events.

    :class:`repro.sim.queueing.DipStation` integrates busy workers at every
    arrival and departure in time order (a departure before an arrival of
    the same instant), one ``+=`` per event, and the integral closes at
    ``until`` (with none, at the last event); ``cumsum`` is that same
    left-to-right sum, so both come out to the last bit.  ``arrivals`` and
    ``departures`` (the completed ones) are each sorted, so the stable sort
    is a merge of them; with no event at all both integrals are zero.
    """
    closing = [until] if until < _INF else []
    times = np.concatenate([departures, arrivals, closing])
    if not times.size:
        return 0.0, 0.0
    step = np.zeros(times.size, dtype=np.int8)
    step[: departures.size] = -1
    step[departures.size : departures.size + arrivals.size] = admitted
    order = times.argsort(kind="stable")
    times, step = times[order], step[order]
    del order
    holding = step.cumsum(dtype=np.int32)
    holding -= step  # in the station just before each event
    elapsed = np.diff(times, prepend=0.0)
    del times
    worker_seconds = np.minimum(holding, servers) * elapsed
    elapsed *= holding > 0
    return (
        float(elapsed.cumsum(out=elapsed)[-1]),
        float(worker_seconds.cumsum(out=worker_seconds)[-1]),
    )


def _bands(units: list[list[int]], lo: int, hi: int) -> tuple[list[int], list[int]]:
    """Per DIP ``i``, the unit sums ``[band_lo[i], band_hi[i]]`` the DP keeps.

    Only candidates of at most ``hi`` units can ever be picked; with min and
    max over those, a sum over ``dips[: i + 1]`` is reachable only inside
    ``[Σmin≤i, Σmax≤i]`` and can still end in ``[lo, hi]`` only inside
    ``[lo − Σmax>i, hi − Σmin>i]``.  A DIP with no such candidate empties
    every band, as does a window out of reach.
    """
    fits = [[k for k in ks if k <= hi] for ks in units]
    if not all(fits):
        return [0] * len(units), [-1] * len(units)
    mins, maxs = [min(ks) for ks in fits], [max(ks) for ks in fits]
    before_min = before_max = 0
    after_min, after_max = sum(mins), sum(maxs)
    band_lo, band_hi = [], []
    for least, most in zip(mins, maxs):
        before_min, after_min = before_min + least, after_min - least
        before_max, after_max = before_max + most, after_max - most
        band_lo.append(max(before_min, lo - after_max, 0))
        band_hi.append(min(before_max, hi - after_min))
    return band_lo, band_hi


def py_band_dp(
    units: np.ndarray,
    latencies: np.ndarray,
    k: int,
    lo: int,
    hi: int,
    selection: np.ndarray,
) -> bool:
    """The least-latency pick of one candidate per DIP whose units sum into
    ``[lo, hi]``; whether there is one.

    Row ``i`` of ``units`` (int64) and ``latencies`` (float64), ``k`` wide,
    are DIP ``i``'s candidates: units ``>= 0`` and latencies finite and
    ``>= 0`` (else :class:`ValueError`), a row padded past ``hi`` so the
    pad never fits.  After DIP
    ``i`` only the sums of :func:`_bands` are kept, each the least over the
    candidates in order of its source cell plus the candidate's latency (one
    ``np.minimum`` per candidate), so the DP costs the band, not ``[0, hi]``.
    The answer is the first cheapest sum in the window, traced back per DIP
    to the first candidate whose source cell plus its latency is the cell's
    value — the one a strict ``<`` sweep over the candidates would have
    recorded, since every later one can only tie; its index goes to
    ``selection[i]``.
    """
    units = np.asarray(units).reshape(-1, k)
    latencies = np.asarray(latencies).reshape(-1, k)
    if (units < 0).any() or not ((latencies >= 0) & (latencies < _INF)).all():
        raise ValueError("band_dp: units must be >= 0 and latencies finite and >= 0")
    steps, lats = units.tolist(), latencies.tolist()
    band_lo, band_hi = _bands(steps, lo, hi)
    # costs[i][u - band_lo[i]] = min latency to reach exactly u units with
    # DIPs 0..i; before the first DIP only u = 0 is reached, at no cost.
    cost = np.zeros(1)
    prev_lo, prev_hi = 0, 0
    costs: list[np.ndarray] = []
    for low, high, row, row_lats in zip(band_lo, band_hi, steps, lats):
        new_cost = np.full(max(0, high - low + 1), np.inf)
        for step, latency in zip(row, row_lats):
            # The cells u in the band whose source u - step the last band holds.
            first, last = max(low, prev_lo + step), min(high, prev_hi + step)
            if first > last:
                continue
            cells = new_cost[first - low : last - low + 1]
            shifted = cost[first - step - prev_lo : last - step - prev_lo + 1]
            np.minimum(cells, shifted + latency, out=cells)
        cost, prev_lo, prev_hi = new_cost, low, high
        costs.append(cost)
    # The last band is the window [lo, hi] cut to the reachable sums.
    if not np.isfinite(cost).any():
        return False
    reached = band_lo[-1] + int(np.argmin(cost))
    for i in range(len(steps) - 1, -1, -1):
        target = costs[i][reached - band_lo[i]]
        before = costs[i - 1] if i else np.zeros(1)
        low, high = (band_lo[i - 1], band_hi[i - 1]) if i else (0, 0)
        for j, (step, latency) in enumerate(zip(steps[i], lats[i])):
            source = reached - step
            if low <= source <= high and before[source - low] + latency == target:
                break
        selection[i] = j
        reached = source
    return True


# -- the compiled module ---------------------------------------------------------


def _cache_path() -> str:
    """Where a source checkout keeps the module built from this source."""
    with open(_SOURCE, "rb") as handle:
        digest = hashlib.sha256(handle.read())
    digest.update(" ".join(CFLAGS).encode())
    name = f"_kernels.{digest.hexdigest()[:16]}{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    return os.path.join(_HERE, "__pycache__", name)


def _compiler() -> list[str] | None:
    """The interpreter's own command for building an extension, or ``None``."""
    import shlex
    import shutil
    import sysconfig

    ldshared = sysconfig.get_config_var("LDSHARED")
    if not ldshared:
        return None
    command = shlex.split(ldshared)
    if shutil.which(command[0]) is None:
        return None
    ccshared = shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    return [*command, *ccshared, "-I", sysconfig.get_paths()["include"]]


def _build(target: str) -> bool:
    """Compile :data:`_SOURCE` to ``target``; whether it worked."""
    command = _compiler()
    if command is None:
        return False
    import subprocess
    import tempfile

    os.makedirs(os.path.dirname(target), exist_ok=True)
    handle, partial = tempfile.mkstemp(
        prefix="_kernels.", suffix=".tmp", dir=os.path.dirname(target)
    )
    os.close(handle)
    try:
        done = subprocess.run(
            [*command, *CFLAGS, _SOURCE, "-o", partial],
            capture_output=True,
            check=False,
            timeout=300,
        )
        if done.returncode != 0:
            return False
        os.replace(partial, target)
        return True
    except subprocess.TimeoutExpired:
        return False
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _load_file(path: str) -> ModuleType:
    loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
    spec = importlib.util.spec_from_file_location(_NAME, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _compiled() -> ModuleType | None:
    """The compiled kernels, built first if need be; ``None`` when unavailable."""
    try:
        if os.path.isfile(_SOURCE):
            path = _cache_path()
            if os.path.isfile(path) or _build(path):
                return _load_file(path)
            return None
        return importlib.import_module(_NAME)
    except (ImportError, OSError):
        return None


def load() -> str:
    """Bind :data:`walk` / :data:`smooth_wrr` / :data:`station_stats` /
    :data:`band_dp` / :data:`bisect_bank` / :data:`expand_core` to the
    compiled module, or to the Python bodies where it is unavailable
    (``bisect_bank`` and ``expand_core`` to ``None``: their bodies are
    :mod:`repro.core.curve`'s and :mod:`repro.solver.mckp`'s, which the
    callers pick when the kernel is absent); returns :data:`PATH`.

    Runs once at import.  Callers look the kernels up on this module at
    call time, so a test that makes the build fail and calls this again
    runs everything on the Python bodies.
    """
    global walk, smooth_wrr, station_stats, band_dp, bisect_bank, expand_core, PATH
    module = _compiled()
    if module is None:
        walk, smooth_wrr, station_stats = py_walk, py_smooth_wrr, py_station_stats
        band_dp, bisect_bank, expand_core = py_band_dp, None, None
        PATH = "python"
    else:
        walk, smooth_wrr, station_stats = (
            module.walk, module.smooth_wrr, module.station_stats
        )
        band_dp, bisect_bank, expand_core = (
            module.band_dp, module.bisect_bank, module.expand_core
        )
        PATH = "compiled"
    return PATH


walk: Any
smooth_wrr: Any
station_stats: Any
band_dp: Any
bisect_bank: Any
expand_core: Any
#: ``"compiled"`` or ``"python"``: which kernels :func:`load` bound.
PATH: str
load()
