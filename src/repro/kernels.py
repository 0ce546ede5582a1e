"""The scalar loops the request substrate spends its time in.

:func:`walk` is :meth:`repro.sim.queueing.StationWalk.advance`'s loop,
:func:`smooth_wrr` the argmax loop :class:`repro.lb.WeightedRoundRobin` and
the epoch engine's ``_SmoothWrrRouter`` share, and :func:`station_stats` the
busy integrals a replayed station reports.  The first two do not vectorize —
each step reads the state the previous one wrote — and the third costs numpy
a sort and five passes for what one merge does, so all three are compiled:
the C module ``_kernels.c`` beside this file transcribes the Python bodies
below, which are the fallback where it cannot be built and the oracle the
tests hold it to, byte for byte.

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
request run records it as ``provenance.kernels``.
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
    """Bind :data:`walk` / :data:`smooth_wrr` / :data:`station_stats` to the
    compiled module, or to the Python bodies where it is unavailable;
    returns :data:`PATH`.

    Runs once at import.  Callers look the kernels up on this module at
    call time, so a test that makes the build fail and calls this again
    runs everything on the Python bodies.
    """
    global walk, smooth_wrr, station_stats, PATH
    module = _compiled()
    if module is None:
        walk, smooth_wrr, station_stats = py_walk, py_smooth_wrr, py_station_stats
        PATH = "python"
    else:
        walk, smooth_wrr, station_stats = (
            module.walk, module.smooth_wrr, module.station_stats
        )
        PATH = "compiled"
    return PATH


walk: Any
smooth_wrr: Any
station_stats: Any
#: ``"compiled"`` or ``"python"``: which kernels :func:`load` bound.
PATH: str
load()
