"""A controller's kept curve bank (``core/curve.py::CurveBank``) against the
curves it keeps.

A controller runs any sequence of fits, traffic and capacity rescales, DIP
failures and restores through its own methods, against a stub deployment
whose probes answer what each step asks for.  After every step:

* the kept bank's arrays are, byte for byte, the bank stacked afresh from
  the controller's curve objects (``_bank``), and its ``w_max`` column their
  ``w_max``;
* those curves are, on ``float.hex``, the curves of the per-curve chain:
  each fit's curve, then ``WeightLatencyCurve.rescaled`` once per §4.5 shift
  with the δ of one curve's own inversion (``rescaled_chain`` below, the
  rescale as it was written before the bank), carried through a failure and
  back by ``restore_dip``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import KnapsackLBController, KnapsackLBConfig
from repro.core.config import CurveConfig
from repro.core.curve import WeightLatencyCurve, _bank, weights_for_latencies
from repro.core.dynamics import DynamicsEventKind, Observation
from repro.core.exploration import ExplorationState
from repro.core.types import MeasurementPoint, WeightAssignment, equal_weights
from repro.exceptions import InfeasibleError, SolverTimeoutError

#: the weights each fit's points are measured at (the idle point at 0 too).
FIT_WEIGHTS = (0.05, 0.1, 0.2, 0.3, 0.4)


class StubDeployment:
    """DIPs that are up or down, probes that answer ``latencies``."""

    def __init__(self, ids):
        self.dips = {dip: SimpleNamespace(failed=False) for dip in ids}
        self.latencies: dict[str, float] = {}

    def set_weights(self, weights):
        pass

    def probe_round(self, dip_ids, num_requests):
        means = [None if self.dips[d].failed else self.latencies[d] for d in dip_ids]
        return means, [0] * len(dip_ids)

    def healthy_dip_ids(self):
        return tuple(d for d, server in self.dips.items() if not server.failed)


def rescaled_chain(curve: WeightLatencyCurve, weight: float, observed: float):
    """One curve's §4.5 shift to ``observed`` at ``weight``, on its own."""
    (w2,) = weights_for_latencies([curve], [observed]).tolist()
    if w2 <= 0:
        w2 = min(curve.w_max if curve.w_max > 0 else weight, weight) / 2.0
        if w2 <= 0:
            return curve
    return curve.rescaled(weight / w2)


def fields(curve: WeightLatencyCurve) -> tuple:
    return (
        tuple(float(c).hex() for c in curve.coefficients),
        float(curve.l0_ms).hex(),
        float(curve.w_max).hex(),
        float(curve.weight_scale).hex(),
    )


def assert_kept(controller, reference) -> None:
    bank = controller.curves
    curves = [bank[dip] for dip in bank]
    table, width, *columns = bank.arrays
    fresh_table, fresh_width, *fresh_columns = _bank(curves)
    assert (width, table.tobytes()) == (fresh_width, fresh_table.tobytes())
    for kept, fresh in zip(columns, fresh_columns):
        assert (kept.dtype, kept.tobytes()) == (fresh.dtype, fresh.tobytes())
    assert bank.w_max.tobytes() == np.array([c.w_max for c in curves]).tobytes()
    assert list(bank) == list(reference)
    assert {d: fields(bank[d]) for d in bank} == {d: fields(c) for d, c in reference.items()}


shape = st.tuples(
    st.floats(-40.0, 40.0),  # a: concave when negative
    st.floats(0.0, 40.0),  # b
    st.floats(0.5, 5.0),  # c: the idle latency
    st.integers(2, len(FIT_WEIGHTS)),  # points besides the idle one
)
step = st.one_of(
    st.tuples(st.just("traffic"), st.sampled_from([0.01, 0.5, 1.6, 3.0])),
    st.tuples(st.just("capacity"), st.integers(0, 4), st.sampled_from([0.3, 1.6])),
    st.tuples(st.just("fail"), st.integers(0, 4)),
    st.tuples(st.just("restore"), st.integers(0, 4)),
    st.tuples(st.just("fit"), st.integers(0, 4), shape),
)


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(shape, min_size=2, max_size=5),
    steps=st.lists(step, max_size=8),
    nonnegative=st.booleans(),
    degree=st.sampled_from([2, 3]),
)
# Every DIP far below its idle latency: a traffic decrease whose inversions
# all land at 0, the "stretch outward" branch.
@example(
    shapes=[(10.0, 5.0, 2.0, 5), (0.0, 20.0, 1.0, 5)],
    steps=[("traffic", 0.01)] * 2,
    nonnegative=True,
    degree=2,
)
# A concave parabola with its vertex inside the range: each shift moves the
# vertex and the peak; a capacity change shifts one row alone.
@example(
    shapes=[(-30.0, 20.0, 2.0, 5), (-30.0, 20.0, 2.0, 5), (5.0, 10.0, 1.0, 5)],
    steps=[("traffic", 1.6), ("capacity", 0, 1.6), ("fail", 1), ("traffic", 0.5), ("restore", 1)],
    nonnegative=False,
    degree=2,
)
# Cubic fits (scanned rows) beside a parabola: the bank narrows when the only
# wide row fails and widens again when it is restored.
@example(
    shapes=[(5.0, 10.0, 1.0, 5), (8.0, 4.0, 2.0, 2), (3.0, 6.0, 1.5, 2)],
    steps=[("fail", 0), ("traffic", 1.6), ("restore", 0), ("capacity", 2, 0.3)],
    nonnegative=True,
    degree=3,
)
def test_the_kept_bank_is_the_bank_of_the_rescaled_curves(shapes, steps, nonnegative, degree):
    ids = [f"d{i}" for i in range(len(shapes))]
    deployment = StubDeployment(ids)
    config = KnapsackLBConfig(
        curve=CurveConfig(degree=degree, nonnegative_coefficients=nonnegative)
    )
    controller = KnapsackLBController("vip", deployment, config=config)
    reference: dict[str, WeightLatencyCurve] = {}
    retired: dict[str, WeightLatencyCurve] = {}

    def fit(shapes):
        """Fit each DIP's points and keep the curves as one bank change."""
        fitted = {}
        for dip, (a, b, c, points) in shapes.items():
            state = ExplorationState(dip=dip, l0_ms=c, initial_weight=0.25)
            state.points.extend(
                MeasurementPoint(weight=w, latency_ms=max(0.1, (a * w + b) * w + c))
                for w in FIT_WEIGHTS[:points]
            )
            controller.explorations[dip] = state
            reference[dip] = fitted[dip] = controller._fitted_curve(dip)
        controller.curves = controller.curves.with_curves(fitted)
        program()

    def program():
        controller.program_assignment(WeightAssignment("vip", equal_weights(controller.curves)))

    def tick(factors):
        """A control step whose probes read ``factors`` times each curve's
        prediction at its weight; the reference shifts what the drift
        check (on the reference curves) names."""
        weights = dict(controller.current_weights)
        for dip in controller.curves:
            prediction = controller.curves[dip].predict(weights.get(dip, 0.0))
            deployment.latencies[dip] = prediction * factors.get(dip, 1.0)
        for dip in [d for d in reference if deployment.dips[d].failed]:
            retired[dip] = reference.pop(dip)
        observed = [
            Observation(dip, weights[dip], deployment.latencies[dip])
            for dip in reference
            if weights.get(dip, 0.0) > 0
        ]
        events = controller.detector.detect(observed, dict(reference))
        try:
            controller.control_step()
        except (InfeasibleError, SolverTimeoutError):
            pass  # the curves were shifted before the ILP refused
        traffic = any(
            e.kind in (DynamicsEventKind.TRAFFIC_INCREASE, DynamicsEventKind.TRAFFIC_DECREASE)
            for e in events
        )
        drifted = {d for e in events if e.kind is DynamicsEventKind.CAPACITY_CHANGE for d in e.dips}
        for obs in observed:
            if traffic or obs.dip in drifted:
                reference[obs.dip] = rescaled_chain(
                    reference[obs.dip], obs.weight, obs.observed_latency_ms
                )

    half = len(ids) // 2  # two batches: onto an empty bank, then onto a kept one
    fit(dict(zip(ids[:half], shapes[:half])))
    fit(dict(zip(ids[half:], shapes[half:])))
    assert_kept(controller, reference)
    for action, *args in steps:
        healthy = [d for d in controller.curves if not deployment.dips[d].failed]
        if action == "traffic":
            tick({dip: args[0] for dip in healthy})
        elif action == "capacity":
            tick({healthy[args[0] % len(healthy)]: args[1]})
        elif action == "fail" and len(healthy) > 1:
            deployment.dips[healthy[args[0] % len(healthy)]].failed = True
            tick({})
        elif action == "restore" and retired:
            dip = sorted(retired)[args[0] % len(retired)]
            deployment.dips[dip].failed = False
            assert controller.restore_dip(dip)
            reference[dip] = retired.pop(dip)
            program()
        elif action == "fit":
            dip = ids[args[0] % len(ids)]
            if dip in controller.curves:
                fit({dip: args[1]})  # replaced in place, keeping its row
        assert_kept(controller, reference)

