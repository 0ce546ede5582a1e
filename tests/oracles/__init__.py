"""Reference bodies the tests hold the live code to, byte for byte.

:mod:`oracles.kernels` holds one Python body per compiled loop of
:mod:`repro.kernels`, each under its kernel's name and call signature, so a
test binds it at the ``repro.kernels.<name>`` seam (:func:`bound`) and every
caller in ``src/`` runs it unchanged.  :mod:`oracles.probes` and
:mod:`oracles.trace` are the per-DIP reference forms of ``Fleet.probe_round``
and ``MetricsCollector.summaries``; :mod:`oracles.trace` also reads a
collector's columns back row by row.
"""

from __future__ import annotations

from unittest import mock

import repro.kernels
from oracles import kernels

#: kernel name -> its reference body.
KERNELS = {
    name: getattr(kernels, name)
    for name in (
        "walk",
        "smooth_wrr",
        "station_stats",
        "band_dp",
        "predict_bank",
        "bisect_bank",
        "expand_core",
        "probe_round",
    )
}


def bound():
    """A context manager that binds every reference body in place of its
    compiled kernel: everything a run calls through :mod:`repro.kernels`
    inside the block runs the Python loops."""
    return mock.patch.multiple(repro.kernels, **KERNELS)
