"""`repro.api` — the declarative front door of the library.

One config object in, one result artifact out::

    from repro import api

    spec = api.ExperimentSpec(
        name="demo",
        runner="fluid",                      # or "request" / "fleet"
        pool=api.PoolSpec(kind="uniform", num_dips=8),
        workload=api.WorkloadSpec(load_fraction=0.6),
        seed=17,
    )
    result = api.run(spec)
    print(result.metrics["mean_latency_ms"])
    result.save("out.json")                  # reproducible artifact

Specs load from plain dicts or JSON/TOML files (``ExperimentSpec.from_file``),
execute on any of the three substrates by flipping ``spec.runner``, sweep
over parameter axes with process parallelism (:class:`Sweep`), and compare
across runs (:func:`compare`).  The ``python -m repro`` CLI exposes the
same verbs (``list`` / ``show`` / ``run`` / ``sweep`` / ``compare``) from
the shell.
"""

from repro.api.registry import get_spec, list_specs, register_spec
from repro.api.result import Provenance, RunResult, RunWindow
from repro.api.runners import (
    AnalyticRunner,
    RequestRunner,
    Runner,
    ScenarioRunner,
    build_cluster,
    execute,
    runner_for,
)
from repro.api.spec import (
    EVENT_KINDS,
    RUNNER_KINDS,
    ControllerSpec,
    EventSpec,
    ExperimentSpec,
    FleetSpec,
    PolicySpec,
    PoolSpec,
    TimelineSpec,
    VmSpec,
    WorkloadSpec,
)
from repro.api.sweep import ComparisonReport, Sweep, SweepAxis, compare
from repro.api.timeline import (
    BaseObserver,
    Observer,
    ObserverSet,
    PrintingObserver,
    WindowedMetricsObserver,
)

#: The canonical entry point: run a spec on the substrate it names.
run = execute

__all__ = [
    "EVENT_KINDS",
    "RUNNER_KINDS",
    "ControllerSpec",
    "EventSpec",
    "ExperimentSpec",
    "FleetSpec",
    "PolicySpec",
    "PoolSpec",
    "TimelineSpec",
    "VmSpec",
    "WorkloadSpec",
    "Provenance",
    "RunResult",
    "RunWindow",
    "BaseObserver",
    "Observer",
    "ObserverSet",
    "PrintingObserver",
    "WindowedMetricsObserver",
    "Runner",
    "AnalyticRunner",
    "RequestRunner",
    "ScenarioRunner",
    "build_cluster",
    "execute",
    "run",
    "runner_for",
    "ComparisonReport",
    "Sweep",
    "SweepAxis",
    "compare",
    "get_spec",
    "list_specs",
    "register_spec",
]
