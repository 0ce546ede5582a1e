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
the shell.  Each name loads its module on first access; a runner imports
the substrate it executes when it runs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.api.spec": (
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
        ),
        "repro.api.result": ("Provenance", "RunResult", "RunWindow"),
        "repro.api.observers": (
            "BaseObserver",
            "Observer",
            "ObserverSet",
            "PrintingObserver",
            "WindowedMetricsObserver",
        ),
        "repro.api.runners": (
            "Runner",
            "AnalyticRunner",
            "RequestRunner",
            "ScenarioRunner",
            "build_cluster",
            "execute",
            "run",
            "runner_for",
        ),
        "repro.api.sweep": ("ComparisonReport", "Sweep", "SweepAxis", "compare"),
        "repro.api.registry": ("get_spec", "list_specs", "register_spec"),
    },
)
