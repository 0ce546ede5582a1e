"""Unit tests for measurement scheduling (§4.6)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.curve import WeightLatencyCurve
from repro.core.scheduler import (
    MeasurementPriority,
    MeasurementRequest,
    MeasurementScheduler,
)
from repro.exceptions import SchedulingError


def curve(w_max: float) -> WeightLatencyCurve:
    return WeightLatencyCurve(coefficients=(50.0, 0.0, 2.0), l0_ms=2.0, w_max=w_max)


@pytest.fixture
def scheduler():
    return MeasurementScheduler("vip-1")


class TestRequestValidation:
    def test_zero_weight_rejected(self):
        with pytest.raises(SchedulingError):
            MeasurementRequest(dip="a", weight=0.0)

    def test_above_one_rejected(self):
        with pytest.raises(SchedulingError):
            MeasurementRequest(dip="a", weight=1.2)


class TestQueueing:
    def test_submit_and_pending(self, scheduler):
        scheduler.submit("a", 0.2)
        scheduler.submit("b", 0.3)
        assert {r.dip for r in scheduler.pending} == {"a", "b"}

    def test_resubmit_replaces(self, scheduler):
        scheduler.submit("a", 0.2)
        scheduler.submit("a", 0.4)
        pending = [r for r in scheduler.pending if r.dip == "a"]
        assert len(pending) == 1
        assert pending[0].weight == pytest.approx(0.4)

    def test_cancel(self, scheduler):
        scheduler.submit("a", 0.2)
        scheduler.cancel("a")
        assert scheduler.pending == ()

    def test_priority_ordering(self, scheduler):
        scheduler.submit("refresh", 0.1, priority=MeasurementPriority.REFRESH)
        scheduler.submit("normal", 0.1, priority=MeasurementPriority.NORMAL)
        scheduler.submit("hot", 0.1, priority=MeasurementPriority.OVERUTILIZED)
        assert [r.dip for r in scheduler.pending] == ["hot", "normal", "refresh"]

    def test_fifo_within_class(self, scheduler):
        scheduler.submit("first", 0.1)
        scheduler.submit("second", 0.1)
        assert [r.dip for r in scheduler.pending] == ["first", "second"]


    def test_resubmit_replaces_in_place_of_a_new_request(self, scheduler):
        for dip in ("a", "b", "c"):
            scheduler.submit(dip, 0.2)
        scheduler.submit("hot", 0.2, priority=MeasurementPriority.OVERUTILIZED)
        scheduler.submit("b", 0.5)  # replaces b's request, queued as the newest
        assert [(r.dip, r.weight) for r in scheduler.pending] == [
            ("hot", 0.2), ("a", 0.2), ("c", 0.2), ("b", 0.5)
        ]
        plan = scheduler.plan_round(["a", "b", "c", "hot"])
        assert list(plan.measured) == ["hot", "a", "c"]
        assert [(r.dip, r.weight) for r in plan.deferred] == [("b", 0.5)]


class ListQueue:
    """The pending list a submit or cancel used to rebuild: every request
    but the DIP's, then (on submit) its new one appended."""

    def __init__(self) -> None:
        self.requests: list[tuple[str, float, int, int]] = []
        self.sequence = 0

    def submit(self, dip: str, weight: float, priority: int) -> None:
        self.requests = [r for r in self.requests if r[0] != dip]
        self.requests.append((dip, weight, priority, self.sequence))
        self.sequence += 1

    def cancel(self, dip: str) -> None:
        self.requests = [r for r in self.requests if r[0] != dip]

    def pending(self) -> list[tuple[str, float]]:
        return [(r[0], r[1]) for r in sorted(self.requests, key=lambda r: (r[2], r[3]))]


_DIPS = ["a", "b", "c", "d", "e"]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["submit", "cancel", "plan"]),
            st.sampled_from(_DIPS),
            st.sampled_from([0.1, 0.3, 0.6, 1.0]),
            st.sampled_from(list(MeasurementPriority)),
        ),
        max_size=30,
    )
)
def test_the_queue_orders_rounds_as_the_list_did(operations):
    scheduler, reference = MeasurementScheduler("vip-1"), ListQueue()
    for kind, dip, weight, priority in operations:
        if kind == "submit":
            scheduler.submit(dip, weight, priority=priority)
            reference.submit(dip, weight, priority)
        elif kind == "cancel":
            scheduler.cancel(dip)
            reference.cancel(dip)
        else:
            # A round admits in pending order and keeps the rest queued.
            expected, budget, admitted = reference.pending(), 1.0, []
            for name, w in expected:
                if w <= budget + 1e-9:
                    admitted.append(name)
                    budget -= min(w, budget)
            plan = scheduler.plan_round(_DIPS)
            assert list(plan.measured) == admitted
            reference.requests = [r for r in reference.requests if r[0] not in admitted]
        assert [(r.dip, r.weight) for r in scheduler.pending] == reference.pending()


class TestPlanRound:
    def test_all_fit_in_one_round(self, scheduler):
        scheduler.submit("a", 0.3)
        scheduler.submit("b", 0.3)
        plan = scheduler.plan_round(["a", "b", "c"])
        assert plan.measured == {"a": 0.3, "b": 0.3}
        assert not plan.deferred
        assert plan.total_weight == pytest.approx(1.0)

    def test_overflow_deferred_to_next_round(self, scheduler):
        scheduler.submit("a", 0.7)
        scheduler.submit("b", 0.7)
        plan1 = scheduler.plan_round(["a", "b"])
        assert set(plan1.measured) == {"a"}
        assert [r.dip for r in plan1.deferred] == ["b"]
        plan2 = scheduler.plan_round(["a", "b"])
        assert set(plan2.measured) == {"b"}

    def test_two_rounds_consume_queue(self, scheduler):
        scheduler.submit("a", 0.7)
        scheduler.submit("b", 0.7)
        scheduler.plan_round(["a", "b"])
        scheduler.plan_round(["a", "b"])
        assert scheduler.pending == ()

    def test_higher_priority_scheduled_first_on_conflict(self, scheduler):
        scheduler.submit("cold", 0.8, priority=MeasurementPriority.NORMAL)
        scheduler.submit("hot", 0.8, priority=MeasurementPriority.OVERUTILIZED)
        plan = scheduler.plan_round(["cold", "hot"])
        assert set(plan.measured) == {"hot"}

    def test_unknown_dip_request_dropped(self, scheduler):
        scheduler.submit("gone", 0.4)
        plan = scheduler.plan_round(["a", "b"])
        assert plan.measured == {}
        assert scheduler.pending == ()

    def test_weights_sum_to_one_with_filler(self, scheduler):
        scheduler.submit("a", 0.25)
        plan = scheduler.plan_round(["a", "b", "c", "d"])
        assert plan.total_weight == pytest.approx(1.0)
        assert plan.measured["a"] == pytest.approx(0.25)
        assert set(plan.filler) == {"b", "c", "d"}

    def test_equal_filler_when_no_curves(self, scheduler):
        scheduler.submit("a", 0.4)
        plan = scheduler.plan_round(["a", "b", "c"])
        assert plan.filler_source == "equal"
        assert plan.filler["b"] == pytest.approx(0.3)
        assert plan.filler["c"] == pytest.approx(0.3)

    def test_ilp_filler_when_curves_available(self, scheduler):
        scheduler.submit("a", 0.4)
        curves = {"b": curve(0.5), "c": curve(0.3)}
        plan = scheduler.plan_round(["a", "b", "c"], curves)
        assert plan.filler_source == "ilp"
        assert sum(plan.filler.values()) == pytest.approx(0.6, abs=1e-6)
        assert all(weight >= 0 for weight in plan.filler.values())

    def test_ilp_filler_prefers_flatter_curve(self, scheduler):
        scheduler.submit("a", 0.4)
        steep = WeightLatencyCurve(coefficients=(400.0, 0.0, 2.0), l0_ms=2.0, w_max=0.5)
        flat = WeightLatencyCurve(coefficients=(20.0, 0.0, 2.0), l0_ms=2.0, w_max=0.5)
        plan = scheduler.plan_round(["a", "b", "c"], {"b": flat, "c": steep})
        assert plan.filler["b"] >= plan.filler["c"] - 1e-9

    def test_ilp_filler_falls_back_when_infeasible(self, scheduler):
        scheduler.submit("a", 0.2)
        # Curves whose w_max cannot absorb the 0.8 remainder → ILP infeasible
        # for the explored DIP alone → equal split over the remaining DIPs.
        curves = {"b": curve(0.05)}
        plan = scheduler.plan_round(["a", "b", "c"], curves)
        assert plan.total_weight == pytest.approx(1.0)
        assert plan.filler_source in ("ilp", "equal")

    def test_no_filler_needed_when_budget_exhausted(self, scheduler):
        scheduler.submit("a", 0.6)
        scheduler.submit("b", 0.4)
        plan = scheduler.plan_round(["a", "b", "c"])
        assert plan.filler["c"] == pytest.approx(0.0)

    def test_empty_queue_round_is_pure_filler(self, scheduler):
        plan = scheduler.plan_round(["a", "b"])
        assert plan.measured == {}
        assert plan.total_weight == pytest.approx(1.0)

    def test_weights_method_merges_measured_and_filler(self, scheduler):
        scheduler.submit("a", 0.5)
        plan = scheduler.plan_round(["a", "b"])
        combined = plan.weights()
        assert combined["a"] == pytest.approx(0.5)
        assert combined["b"] == pytest.approx(0.5)
