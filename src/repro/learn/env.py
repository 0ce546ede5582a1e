"""A gym-style environment over the timed substrates (no gym dependency).

:class:`LoadBalanceEnv` exposes the repo's fluid and request substrates as
an episodic ``reset()/step(action)`` loop a learning agent can drive:

* one step = one telemetry window of the episode's timeline (the same
  windows :class:`~repro.api.result.RunWindow` records);
* the observation folds the window's per-DIP columns (``dip_metrics``)
  into a flat vector — latency, traffic share, and in-system population
  per DIP, plus the window drop fraction;
* the action is a weight vector over the pool (or a discrete reweight op
  in ``action_mode = "ops"``), applied as a weight override at the next
  window boundary through :meth:`TimelineStepper.set_weights` — exactly
  the hook the live service's ``POST /weights`` uses;
* the reward is the negative paper objective for the window: mean latency
  plus a drop penalty, both in milliseconds (latency capped at the drop
  penalty so an overloaded window cannot produce an unbounded term).

Episodes are seed-deterministic: the same :class:`EnvSpec` and reset seed
produce bit-identical observation/reward trajectories on both substrates,
because each episode is exactly one timed run of the underlying engine.
Both backends sit on the batch runners' own builders
(:func:`~repro.api.runners.prepare_fleet`,
:func:`~repro.api.runners.build_request_cluster`); the request backend
arms the cluster with ``begin`` and advances it one window per ``run_to``
— the segmented run is event-for-event identical to the
continuous one (the pending arrival persists in the cluster's sorted
stream between segments), so stepping does not perturb determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from repro.api.result import RunWindow
from repro.api.runners import (
    build_request_cluster,
    expand_spec_chaos,
    pool_from_spec,
    prepare_fleet,
)
from repro.api.spec import (
    ControllerSpec,
    EventSpec,
    ExperimentSpec,
    PoolSpec,
    TimelineSpec,
    WorkloadSpec,
)
from repro.api.timeline import (
    BaseObserver,
    _dip_rows,
    _share,
    fleet_timeline_stepper,
    schedule_request_timeline,
    window_from_row,
)
from repro.exceptions import ConfigurationError
from repro.lb import policy_registry

SUBSTRATES = ("fluid", "request")
ACTION_MODES = ("weights", "ops")


# ---------------------------------------------------------------------------
# episode shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvScenario:
    """One named episode shape: a builder for its timed spec."""

    name: str
    summary: str
    build: Any  # () -> ExperimentSpec


def _outage_spec() -> ExperimentSpec:
    """The dip_outage_recovery shape: one DIP dies at 20s, returns at 60s."""
    window_s = 5.0
    recover_at = 60.0
    return ExperimentSpec(
        name="dip_outage_recovery",
        runner="fluid",
        pool=PoolSpec(kind="uniform", num_dips=8),
        workload=WorkloadSpec(load_fraction=0.6),
        controller=ControllerSpec(enabled=False),
        timeline=TimelineSpec(
            events=(
                EventSpec(time_s=20.0, kind="dip_fail", dip="DIP-1"),
                EventSpec(time_s=recover_at, kind="dip_recover", dip="DIP-1"),
            ),
            window_s=window_s,
            horizon_s=recover_at + 6 * window_s,
        ),
        seed=29,
    )


def _surge_spec() -> ExperimentSpec:
    """The diurnal_surge shape: offered rate ramps to 1.8x and back down."""
    window_s = 5.0
    peak_scale, ramp_steps, step_s = 1.8, 3, 15.0
    factors = [
        1.0 + (peak_scale - 1.0) * step / ramp_steps
        for step in range(1, ramp_steps + 1)
    ]
    ramp = factors + factors[-2::-1] + [1.0]
    events = tuple(
        EventSpec(time_s=(index + 1) * step_s, kind="arrival_scale", value=factor)
        for index, factor in enumerate(ramp)
    )
    return ExperimentSpec(
        name="diurnal_surge",
        runner="fluid",
        pool=PoolSpec(kind="uniform", num_dips=8),
        workload=WorkloadSpec(load_fraction=0.45),
        controller=ControllerSpec(enabled=False),
        timeline=TimelineSpec(
            events=events,
            window_s=window_s,
            horizon_s=events[-1].time_s + 3 * window_s,
        ),
        seed=31,
    )


def _antagonist_spec() -> ExperimentSpec:
    """Antagonist phases: noisy neighbors squeeze two DIPs in turn."""
    window_s = 5.0
    events = (
        EventSpec(time_s=15.0, kind="antagonist_phase", dip="DIP-0", value=2),
        EventSpec(time_s=30.0, kind="antagonist_phase", dip="DIP-1", value=3),
        EventSpec(time_s=45.0, kind="antagonist_phase", dip="DIP-0", value=0),
        EventSpec(time_s=60.0, kind="antagonist_phase", dip="DIP-1", value=0),
    )
    return ExperimentSpec(
        name="antagonist_phases",
        runner="fluid",
        pool=PoolSpec(kind="uniform", num_dips=8),
        workload=WorkloadSpec(load_fraction=0.5),
        controller=ControllerSpec(enabled=False),
        timeline=TimelineSpec(
            events=events,
            window_s=window_s,
            horizon_s=events[-1].time_s + 3 * window_s,
        ),
        seed=37,
    )


#: Built-in episode shapes, mirroring the registered scenarios' timelines
#: (controller off — the learner owns the weights).
ENV_SCENARIOS: dict[str, EnvScenario] = {
    scenario.name: scenario
    for scenario in (
        EnvScenario(
            name="dip_outage_recovery",
            summary="one DIP fails at 20s and recovers at 60s",
            build=_outage_spec,
        ),
        EnvScenario(
            name="diurnal_surge",
            summary="offered rate ramps to 1.8x and back down",
            build=_surge_spec,
        ),
        EnvScenario(
            name="antagonist_phases",
            summary="noisy neighbors squeeze two DIPs in turn",
            build=_antagonist_spec,
        ),
    )
}


def env_scenario_registry() -> dict[str, EnvScenario]:
    """The named episode shapes (copy — the registry stays immutable)."""
    return dict(ENV_SCENARIOS)


# ---------------------------------------------------------------------------
# the environment spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvSpec:
    """Declarative description of one learning environment."""

    #: named episode shape (see :data:`ENV_SCENARIOS`) or a registered
    #: spec name / spec file with a non-empty timeline.
    scenario: str = "dip_outage_recovery"
    #: substrate the episodes execute on ("fluid" or "request").
    substrate: str = "fluid"
    #: "weights" takes a weight vector per step; "ops" takes a discrete
    #: reweight op (no-op / boost DIP i / shed DIP i).
    action_mode: str = "weights"
    #: multiplicative step of one "ops" boost/shed.
    op_step: float = 0.25
    #: reward penalty per unit drop fraction, in milliseconds (also the
    #: cap on the latency term, so rewards stay bounded).
    drop_penalty_ms: float = 500.0
    #: latency normalization for the observation vector.
    latency_scale_ms: float = 25.0
    #: optional overrides on the episode shape's pool/workload.
    num_dips: int | None = None
    load_fraction: float | None = None
    capacity_rps: float | None = None

    def __post_init__(self) -> None:
        if not self.scenario or not isinstance(self.scenario, str):
            raise ConfigurationError("scenario must be a non-empty string")
        if self.substrate not in SUBSTRATES:
            choices = ", ".join(SUBSTRATES)
            raise ConfigurationError(
                f"substrate must be one of: {choices}; got {self.substrate!r}"
            )
        if self.action_mode not in ACTION_MODES:
            choices = ", ".join(ACTION_MODES)
            raise ConfigurationError(
                f"action_mode must be one of: {choices}; "
                f"got {self.action_mode!r}"
            )
        if self.op_step <= 0:
            raise ConfigurationError("op_step must be positive")
        if self.drop_penalty_ms < 0:
            raise ConfigurationError("drop_penalty_ms must be >= 0")
        if self.latency_scale_ms <= 0:
            raise ConfigurationError("latency_scale_ms must be positive")
        if self.num_dips is not None and self.num_dips < 2:
            raise ConfigurationError("num_dips must be >= 2 or null")
        if self.load_fraction is not None and not (
            0 < self.load_fraction < 1
        ):
            raise ConfigurationError(
                "load_fraction must be in (0, 1) or null"
            )
        if self.capacity_rps is not None and self.capacity_rps <= 0:
            raise ConfigurationError("capacity_rps must be positive or null")


def episode_spec(env: EnvSpec, seed: int) -> ExperimentSpec:
    """The fully-resolved timed spec one episode of ``env`` executes.

    Pure per ``(env, seed)``: the controller is forced off (the learner
    owns the weights), the runner is forced to the env's substrate, and
    an armed chaos section is expanded here so the episode's timeline is
    already concrete.
    """
    scenario = ENV_SCENARIOS.get(env.scenario)
    if scenario is not None:
        base = scenario.build()
    else:
        from repro.api.registry import get_spec

        base = get_spec(env.scenario)
        if base.runner == "scenario":
            known = ", ".join(sorted(ENV_SCENARIOS))
            raise ConfigurationError(
                f"scenario {env.scenario!r} is a scenario bridge, not a "
                f"timed spec; learn episodes need a timeline (built-ins: "
                f"{known})"
            )
        if base.timeline.empty:
            raise ConfigurationError(
                f"scenario {env.scenario!r} has no timeline; learn "
                "episodes are timed runs"
            )
        base = replace(base, scenario=None)
    pool = base.pool
    if env.num_dips is not None:
        pool = replace(pool, num_dips=env.num_dips)
    if env.capacity_rps is not None:
        pool = replace(pool, vm=replace(pool.vm, capacity_rps=env.capacity_rps))
    workload = base.workload
    if env.load_fraction is not None:
        workload = replace(workload, load_fraction=env.load_fraction)
    spec = replace(
        base,
        runner=env.substrate,
        pool=pool,
        workload=workload,
        controller=replace(base.controller, enabled=False),
        seed=int(seed),
    )
    if env.substrate == "request" and not policy_registry()[
        spec.policy.name
    ].weighted:
        raise ConfigurationError(
            f"policy {spec.policy.name!r} cannot carry learned weights on "
            "the request substrate; pick a weighted policy (wrr, wrandom, "
            "wlc, dns)"
        )
    return expand_spec_chaos(spec)


# ---------------------------------------------------------------------------
# observations and rewards
# ---------------------------------------------------------------------------


def observation_from_window(
    window: RunWindow,
    dips: Sequence[str],
    *,
    latency_scale_ms: float,
) -> np.ndarray:
    """Fold one window's per-DIP columns into the flat observation vector.

    Layout: ``[latency_0..n, share_0..n, in_system_0..n, drop_fraction]``
    — latency normalized by ``latency_scale_ms`` (clipped at 10x), the
    in-system populations normalized by the pool total (plus one, so an
    idle pool maps to zeros rather than dividing by zero).
    """
    n = len(dips)
    obs = np.zeros(3 * n + 1, dtype=np.float64)
    in_system = np.zeros(n, dtype=np.float64)
    for i, dip in enumerate(dips):
        row = window.dip_metrics.get(dip, {})
        latency = row.get("mean_latency_ms")
        if latency is not None and latency == latency:
            obs[i] = min(latency / latency_scale_ms, 10.0)
        obs[n + i] = window.dip_share.get(dip, 0.0)
        in_system[i] = row.get("in_system", 0.0)
    obs[2 * n : 3 * n] = in_system / (1.0 + in_system.sum())
    drop = window.metrics.get("drop_fraction", 0.0)
    obs[3 * n] = drop if drop == drop else 1.0
    return obs


def window_reward(window: RunWindow, *, drop_penalty_ms: float) -> float:
    """Negative paper objective for one window, bounded below.

    ``-(mean latency + drop_penalty * drop_fraction)``, with the latency
    term capped at ``drop_penalty_ms`` (a saturated or fully-failed
    window counts as a full penalty, not minus infinity).
    """
    latency = window.metrics.get("mean_latency_ms", float("nan"))
    if latency != latency or latency > drop_penalty_ms:
        latency = drop_penalty_ms
    drop = window.metrics.get("drop_fraction", 0.0)
    if drop != drop:
        drop = 1.0
    return -(latency + drop_penalty_ms * drop)


# ---------------------------------------------------------------------------
# substrate backends
# ---------------------------------------------------------------------------


class _FluidBackend:
    """One fluid-substrate episode, driven through a TimelineStepper."""

    def __init__(self, spec: ExperimentSpec) -> None:
        # The controller is off in episode specs, so this only builds and
        # validates the one-VIP fleet the batch runner would execute.
        self.fleet, _, _, _ = prepare_fleet(spec)
        self.stepper = fleet_timeline_stepper(
            self.fleet,
            spec.timeline,
            BaseObserver(),
            health=spec.health,
            seed=spec.seed,
        )

    def initial_window(self) -> RunWindow:
        state = self.fleet.state()
        return RunWindow(
            start_s=0.0,
            end_s=0.0,
            metrics={},
            dip_share=_share(state.total_rates_rps),
            dip_metrics=_dip_rows(state),
        )

    def set_weights(self, weights: Mapping[str, float]) -> None:
        self.stepper.set_weights(None, weights)

    def step(self) -> RunWindow:
        window = self.stepper.step()
        assert window is not None  # the env never steps past done
        return window


class _RequestBackend:
    """One request-substrate episode, stepped in window-sized segments.

    The batch runner's cluster, armed with :meth:`RequestCluster.begin` and
    advanced one window per :meth:`RequestCluster.run_to`.  Segmenting
    replays the continuous run's exact event sequence, so per-window folds
    of the metrics collector are bit-identical to the batch runner's
    post-hoc fold.
    """

    def __init__(self, spec: ExperimentSpec) -> None:
        self.cluster = build_request_cluster(spec)
        duration = spec.timeline.duration_s()
        self._window_s = spec.timeline.window_s
        self._offset = spec.workload.warmup_s
        self._end = self._offset + duration
        self._events = spec.timeline.ordered_events()
        self._index = 0
        schedule_request_timeline(
            self.cluster, spec.timeline, BaseObserver(), offset_s=self._offset
        )
        self.cluster.begin(duration_s=duration, warmup_s=self._offset)
        # Warm-up runs before the first observation, exactly as run() would.
        self.cluster.run_to(self._offset)

    def initial_window(self) -> RunWindow:
        # No completions yet on the timed clock: the observation starts
        # from a zero window (the warm-up is deliberately not observable —
        # it is not part of the timed phase on any substrate).
        return RunWindow(start_s=0.0, end_s=0.0, metrics={})

    def set_weights(self, weights: Mapping[str, float]) -> None:
        self.cluster.set_weights(dict(weights))

    def step(self) -> RunWindow:
        # The bounds the batch fold gives window ``index`` (engine clock).
        start = self._offset + self._index * self._window_s
        end = min(self._offset + (self._index + 1) * self._window_s, self._end)
        self.cluster.run_to(end)
        row = self.cluster.metrics.window_rows(
            window_s=self._window_s, start_s=start, end_s=end
        )[0]
        self._index += 1
        return window_from_row(row, self._events, offset_s=self._offset)


# ---------------------------------------------------------------------------
# the environment
# ---------------------------------------------------------------------------


class LoadBalanceEnv:
    """Episodic load-balancing environment over the timed substrates."""

    def __init__(self, spec: EnvSpec, *, seed: int = 0) -> None:
        self.spec = spec
        self._seed = int(seed)
        # Eagerly resolve (and validate) the episode shape.
        self.template_spec = episode_spec(spec, self._seed)
        self.dips = tuple(
            pool_from_spec(self.template_spec.pool, self.template_spec.seed)
        )
        self.num_dips = len(self.dips)
        self.window_s = self.template_spec.timeline.window_s
        self.horizon_s = self.template_spec.timeline.duration_s()
        #: steps per episode (one per telemetry window).
        self.num_steps = max(
            1, math.ceil(self.horizon_s / self.window_s - 1e-9)
        )
        #: flat observation vector size (3 columns per DIP + drop fraction).
        self.observation_size = 3 * self.num_dips + 1
        #: discrete action count in "ops" mode (no-op + boost/shed per DIP).
        self.num_actions = 1 + 2 * self.num_dips
        self._backend: _FluidBackend | _RequestBackend | None = None
        self._weights = np.full(self.num_dips, 1.0 / self.num_dips)
        self._step_index = 0
        self._windows: list[RunWindow] = []

    # -- episode control -------------------------------------------------------

    def reset(self, *, seed: int | None = None) -> np.ndarray:
        """Start a fresh episode; returns the initial observation."""
        if seed is not None:
            self._seed = int(seed)
        spec = episode_spec(self.spec, self._seed)
        self.template_spec = spec
        if self.spec.substrate == "fluid":
            self._backend = _FluidBackend(spec)
        else:
            self._backend = _RequestBackend(spec)
        self._weights = np.full(self.num_dips, 1.0 / self.num_dips)
        self._step_index = 0
        self._windows = []
        return observation_from_window(
            self._backend.initial_window(),
            self.dips,
            latency_scale_ms=self.spec.latency_scale_ms,
        )

    def step(
        self, action: Any
    ) -> tuple[np.ndarray, float, bool, dict[str, Any]]:
        """Apply ``action``, run one window, return (obs, reward, done, info)."""
        if self._backend is None:
            raise ConfigurationError("call reset() before step()")
        if self._step_index >= self.num_steps:
            raise ConfigurationError(
                "episode is over; call reset() to start a new one"
            )
        weights = self._action_weights(action)
        if weights is not None:
            self._weights = weights
            self._backend.set_weights(
                {dip: float(w) for dip, w in zip(self.dips, weights)}
            )
        window = self._backend.step()
        self._windows.append(window)
        self._step_index += 1
        done = self._step_index >= self.num_steps
        obs = observation_from_window(
            window, self.dips, latency_scale_ms=self.spec.latency_scale_ms
        )
        reward = window_reward(
            window, drop_penalty_ms=self.spec.drop_penalty_ms
        )
        info = {
            "window": window,
            "weights": {
                dip: float(w) for dip, w in zip(self.dips, self._weights)
            },
        }
        return obs, reward, done, info

    @property
    def windows(self) -> tuple[RunWindow, ...]:
        """The telemetry windows of the episode so far."""
        return tuple(self._windows)

    # -- actions ---------------------------------------------------------------

    def _action_weights(self, action: Any) -> np.ndarray | None:
        """Resolve an action to a normalized weight vector (None = no-op)."""
        if action is None:
            return None
        if self.spec.action_mode == "ops":
            return self._op_weights(action)
        weights = np.asarray(action, dtype=np.float64)
        if weights.shape != (self.num_dips,):
            raise ConfigurationError(
                f"action must be a weight vector of length {self.num_dips}; "
                f"got shape {weights.shape}"
            )
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ConfigurationError(
                "action weights must be finite and >= 0"
            )
        total = weights.sum()
        if total <= 0:
            raise ConfigurationError(
                "action weights must include at least one positive entry"
            )
        return weights / total

    def _op_weights(self, action: Any) -> np.ndarray | None:
        index = int(action)
        if not 0 <= index < self.num_actions:
            raise ConfigurationError(
                f"ops action must be in [0, {self.num_actions}); got {index}"
            )
        if index == 0:
            return None
        dip, boost = divmod(index - 1, 2)
        factor = 1.0 + self.op_step if boost == 0 else 1.0 / (1.0 + self.op_step)
        weights = self._weights.copy()
        weights[dip] *= factor
        return weights / weights.sum()

    @property
    def op_step(self) -> float:
        return self.spec.op_step
