"""The scalar loops the simulator and the control tick spend their time in.

:func:`walk` is :meth:`repro.sim.queueing.StationWalk.advance`'s loop,
:func:`smooth_wrr` the argmax loop :class:`repro.lb.WeightedRoundRobin` and
the epoch engine's ``_SmoothWrrRouter`` share, and :func:`station_stats` the
busy integrals a replayed station reports.  The first two do not vectorize —
each step reads the state the previous one wrote — and the third costs numpy
a sort and five passes for what one merge does.  :func:`band_dp` is the
``dp`` solver's band DP, :func:`expand_core` the stage loop of the ``mckp``
solver's core DP, :func:`predict_bank` the curve law every weight → latency
evaluation runs (:func:`repro.core.curve.predict_curves`) and
:func:`bisect_bank` its §4.5 inversion
(:func:`repro.core.curve.weights_for_latencies`): each is a few scalar
operations per step, which numpy pays a call (or ≈20 a stage) for.
:func:`probe_round` is a KLM probe round
(:meth:`repro.sim.fleet.Fleet.probe_round`): per DIP the M/M/c/K law,
the drop and jitter draws from the DIP's own generator through numpy's C
random library, and the batch mean.  All eight are compiled from the C
module ``_kernels.c`` beside this file, the only implementation a run uses;
``tests/oracles/kernels.py`` keeps a Python body of each, under the kernel's
name and signature, which the tests bind here to hold the C to it byte for
byte.  The module also exports the scalar law the probe round evaluates,
:func:`erlang_c`, :func:`mean_latency` and :func:`drop_probability`, which
:class:`repro.backends.latency_model.LatencyModel` calls, and
:func:`mean_latencies`, the mean over a matrix of law rows that the fluid
fleet evaluates, so that the law is written once.  A law row is
``LatencyModel.law`` (servers, :data:`CAPACITY`, ...) and the workload
correction, :data:`LAW` columns (zeros: a down DIP, ``inf``); a probe row
appends the offered rate and the jitter, :data:`COLUMNS` in all.

Where the compiled module comes from:

- a source checkout (``_kernels.c`` is here) builds it on first import into
  ``__pycache__/``, named by a sha-256 digest of the source, one of the flags
  and numpy's version (numpy's random library is linked in statically, so a
  numpy upgrade rebuilds), and the interpreter's extension suffix, with
  ``sysconfig``'s compiler, :data:`CFLAGS`, numpy's headers and its
  ``libnpyrandom.a``; the file is written aside and moved into place with
  :func:`os.replace`, so concurrent first imports race harmlessly, and then
  the builds of any other source beside it are removed.  A later import
  finds it and loads it without ``subprocess`` or ``sysconfig``;
- an installed package ships it as the ``repro._kernels`` extension
  (``setup.py`` builds it with the same flags against the same library).

A C compiler and numpy's ``libnpyrandom.a`` (which numpy wheels ship) are
required, or the installed extension: where they are missing, or the build
fails, importing this module raises :class:`ImportError` naming what is
missing and the command it tried.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.machinery
import importlib.util
import os
from types import ModuleType
from typing import Any

import numpy

#: compile flags of the kernels: no fused multiply-add, no fast-math, so the
#: C arithmetic is the reference bodies' IEEE arithmetic.
CFLAGS = ("-O2", "-ffp-contract=off")

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_kernels.c")
_NAME = "repro._kernels"


def _cache_path() -> str:
    """Where a source checkout keeps the module built from this source with
    :data:`CFLAGS` against this numpy: ``_kernels.<source digest>.<flags and
    numpy version digest><suffix>``."""
    with open(_SOURCE, "rb") as handle:
        source = hashlib.sha256(handle.read()).hexdigest()[:16]
    build = f"{' '.join(CFLAGS)} numpy {numpy.__version__}"
    flags = hashlib.sha256(build.encode()).hexdigest()[:8]
    name = f"_kernels.{source}.{flags}{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    return os.path.join(_HERE, "__pycache__", name)


def _prune(target: str) -> None:
    """Remove, best-effort, the builds beside ``target`` whose source digest
    is not ``target``'s: those of an older ``_kernels.c``.  Builds of this
    source under other flags stay, and so do files being written."""
    import re

    directory, name = os.path.split(target)
    source = name.split(".")[1]
    try:
        entries = os.listdir(directory)
    except OSError:
        return
    for entry in entries:
        build = re.fullmatch(r"_kernels\.([0-9a-f]{16})\..*(?<!\.tmp)", entry)
        if build is not None and build.group(1) != source:
            try:
                os.unlink(os.path.join(directory, entry))
            except OSError:
                pass


def _compiler() -> list[str]:
    """The interpreter's own command for building an extension."""
    import shlex
    import shutil
    import sysconfig

    ldshared = sysconfig.get_config_var("LDSHARED")
    if not ldshared:
        raise ImportError(
            f"cannot build {_SOURCE}: this interpreter names no compiler "
            "(sysconfig's LDSHARED is empty); install the built package instead"
        )
    command = shlex.split(ldshared)
    if shutil.which(command[0]) is None:
        raise ImportError(
            f"cannot build {_SOURCE}: the compiler {command[0]!r} of "
            f"{ldshared!r} is not on PATH; install a C compiler or the built package"
        )
    ccshared = shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    include = sysconfig.get_paths()["include"]
    return [*command, *ccshared, "-I", include, "-I", numpy.get_include()]


def _npyrandom() -> str:
    """numpy's static C random library, which the probe round draws through."""
    return os.path.join(os.path.dirname(numpy.__file__), "random", "lib", "libnpyrandom.a")


def _build(target: str) -> None:
    """Compile :data:`_SOURCE` to ``target``, or raise :class:`ImportError`
    with the command and what it printed."""
    compiler = _compiler()
    library = _npyrandom()
    import subprocess
    import tempfile

    if not os.path.isfile(library):
        raise ImportError(
            f"cannot build {_SOURCE}: numpy's random library {library} is missing "
            f"(the build runs {' '.join([*compiler, *CFLAGS, _SOURCE, library])}); "
            "install a numpy wheel, which ships it, or the built package"
        )

    os.makedirs(os.path.dirname(target), exist_ok=True)
    handle, partial = tempfile.mkstemp(
        prefix="_kernels.", suffix=".tmp", dir=os.path.dirname(target)
    )
    os.close(handle)
    command = [*compiler, *CFLAGS, _SOURCE, library, "-lm", "-o", partial]
    try:
        done = subprocess.run(command, capture_output=True, check=False, timeout=300)
        if done.returncode != 0:
            output = done.stderr.decode(errors="replace").strip()[-2000:]
            raise ImportError(
                f"building {_SOURCE} failed (exit {done.returncode}): "
                f"{' '.join(command)}\n{output}"
            )
        os.replace(partial, target)
        _prune(target)
    except subprocess.TimeoutExpired:
        raise ImportError(f"building {_SOURCE} timed out: {' '.join(command)}") from None
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _load_file(path: str) -> ModuleType:
    loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
    spec = importlib.util.spec_from_file_location(_NAME, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _compiled() -> ModuleType:
    """The compiled kernels, built first if need be."""
    if not os.path.isfile(_SOURCE):
        try:
            return importlib.import_module(_NAME)
        except ImportError as error:
            raise ImportError(
                f"{_NAME} is not installed and there is no {_SOURCE} to build it from"
            ) from error
    path = _cache_path()
    if not os.path.isfile(path):
        _build(path)
    return _load_file(path)


def load() -> None:
    """Bind :data:`walk` / :data:`smooth_wrr` / :data:`station_stats` /
    :data:`band_dp` / :data:`bisect_bank` / :data:`expand_core` /
    :data:`probe_round` / :data:`predict_bank`, the law (:data:`erlang_c`
    / :data:`mean_latency` / :data:`drop_probability` /
    :data:`mean_latencies`) and the law row's columns to the compiled
    module, or raise :class:`ImportError` where it cannot be built or
    loaded.

    Runs once at import.  Callers look the kernels up on this module at
    call time, so a test that binds other bodies here runs every caller on
    them.
    """
    global walk, smooth_wrr, station_stats, band_dp, bisect_bank, expand_core
    global probe_round, predict_bank, erlang_c, mean_latency, drop_probability
    global mean_latencies, CAPACITY, LAW, COLUMNS
    module = _compiled()
    walk, smooth_wrr, station_stats = module.walk, module.smooth_wrr, module.station_stats
    band_dp, bisect_bank, expand_core = module.band_dp, module.bisect_bank, module.expand_core
    probe_round, predict_bank = module.probe_round, module.predict_bank
    erlang_c, mean_latency = module.erlang_c, module.mean_latency
    drop_probability, mean_latencies = module.drop_probability, module.mean_latencies
    CAPACITY, LAW, COLUMNS = module.CAPACITY, module.LAW, module.COLUMNS


walk: Any
smooth_wrr: Any
station_stats: Any
band_dp: Any
bisect_bank: Any
expand_core: Any
probe_round: Any
predict_bank: Any
erlang_c: Any
mean_latency: Any
drop_probability: Any
mean_latencies: Any
CAPACITY: int
LAW: int
COLUMNS: int
load()
