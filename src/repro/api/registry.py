"""Named experiment specs: built-ins plus every registered scenario.

Two sources feed the registry:

* **scenario bridges** — every scenario in
  :mod:`repro.experiments.scenarios` is re-registered as an
  :class:`ExperimentSpec` with ``runner="scenario"`` and the scenario's
  defaults as its parameters, so ``python -m repro run
  multi_vip_shared_dips`` and ``run_scenario("multi_vip_shared_dips")``
  are the same run;
* **built-in pure specs** — small spec-native experiments that demonstrate
  the three substrates (the same pool/workload on fluid, request and
  fleet).

``get_spec`` falls back to loading a spec *file* when the name looks like a
path, so every CLI entry point accepts either.
"""

from __future__ import annotations

from typing import Callable

from repro.api.spec import (
    ControllerSpec,
    ExperimentSpec,
    FleetSpec,
    PolicySpec,
    PoolSpec,
    VmSpec,
    WorkloadSpec,
)
from repro.exceptions import ConfigurationError

_SPECS: dict[str, Callable[[], ExperimentSpec]] = {}
_SUMMARIES: dict[str, str] = {}


def register_spec(
    name: str, factory: Callable[[], ExperimentSpec], *, summary: str = ""
) -> None:
    """Register a named spec factory (late-bound so registration is cheap)."""
    if name in _SPECS:
        raise ConfigurationError(f"spec {name!r} already registered")
    _SPECS[name] = factory
    _SUMMARIES[name] = summary


def list_specs() -> tuple[tuple[str, str], ...]:
    """(name, summary) pairs of every registered spec, sorted by name."""
    _bridge_scenarios()
    return tuple((name, _SUMMARIES[name]) for name in sorted(_SPECS))


def get_spec(name: str) -> ExperimentSpec:
    """Resolve ``name`` to a spec: registry first, then a .json/.toml path."""
    is_file = name.endswith((".json", ".toml"))
    factory = _SPECS.get(name)
    if factory is None and not is_file:
        # Only a scenario name is worth importing ``repro.experiments`` for;
        # a built-in spec or a spec file resolves without it.
        _bridge_scenarios()
        factory = _SPECS.get(name)
    if factory is not None:
        return factory()
    if is_file:
        return ExperimentSpec.from_file(name)
    known = ", ".join(sorted(_SPECS))
    raise ConfigurationError(
        f"unknown spec {name!r} (and not a .json/.toml file); "
        f"registered specs: {known}"
    )


# ---------------------------------------------------------------------------
# scenario bridges
# ---------------------------------------------------------------------------

_BRIDGED = False


def _bridge_scenarios() -> None:
    """Re-register every scenario as a ``runner="scenario"`` spec (once)."""
    global _BRIDGED
    if _BRIDGED:
        return
    _BRIDGED = True
    from repro.experiments.scenarios import list_scenarios

    for scenario in list_scenarios():
        if scenario.name in _SPECS:
            continue

        def factory(scenario=scenario) -> ExperimentSpec:
            # The seed lives at spec level only, so ``--set seed=N`` works;
            # the scenario runner folds it back into the call.
            return ExperimentSpec(
                name=scenario.name,
                runner="scenario",
                scenario=scenario.name,
                params={
                    k: v for k, v in scenario.defaults.items() if k != "seed"
                },
                seed=int(scenario.defaults.get("seed", 0)),
            )

        register_spec(scenario.name, factory, summary=scenario.summary)


# ---------------------------------------------------------------------------
# built-in pure specs
# ---------------------------------------------------------------------------


def _trio_base(runner: str) -> Callable[[], ExperimentSpec]:
    def factory() -> ExperimentSpec:
        return ExperimentSpec(
            name=f"{runner}_uniform_pool",
            runner=runner,
            pool=PoolSpec(
                kind="uniform",
                num_dips=8,
                vm=VmSpec(name="trio-2core", vcpus=2, capacity_rps=800.0),
            ),
            workload=WorkloadSpec(load_fraction=0.6, num_requests=20_000),
            policy=PolicySpec(name="wrr"),
            controller=ControllerSpec(enabled=True, settle_steps=2),
            fleet=FleetSpec(num_vips=4),
            seed=17,
        )

    return factory


for _kind in ("fluid", "request", "fleet"):
    register_spec(
        f"{_kind}_uniform_pool",
        _trio_base(_kind),
        summary=f"8 identical DIPs, KnapsackLB-controlled, on the {_kind} substrate",
    )

register_spec(
    "testbed_klb",
    lambda: ExperimentSpec(
        name="testbed_klb",
        runner="fluid",
        pool=PoolSpec(kind="testbed"),
        workload=WorkloadSpec(load_fraction=0.7),
        controller=ControllerSpec(enabled=True),
        seed=7,
    ),
    summary="The Table 3 testbed converged by KnapsackLB on the fluid model",
)
