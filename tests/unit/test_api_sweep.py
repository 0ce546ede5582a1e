"""Sweep expansion, parallel execution and comparison reports."""

from __future__ import annotations

import math

import pytest

from repro.api import (
    ControllerSpec,
    ExperimentSpec,
    PolicySpec,
    PoolSpec,
    Sweep,
    SweepAxis,
    VmSpec,
    WorkloadSpec,
    compare,
    run,
)
from repro.exceptions import ConfigurationError


def base_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="sweepbase",
        runner="fluid",
        pool=PoolSpec(kind="uniform", num_dips=4, vm=VmSpec(vcpus=2)),
        workload=WorkloadSpec(load_fraction=0.5, num_requests=1_500),
        policy=PolicySpec(name="wrr"),
        controller=ControllerSpec(enabled=False),
        seed=3,
    )


class TestExpansion:
    def test_grid_is_cartesian_product(self):
        sweep = Sweep.from_axes(
            base_spec(),
            {"workload.load_fraction": [0.4, 0.6], "seed": [1, 2, 3]},
        )
        specs = sweep.expand()
        assert len(specs) == 6
        combos = {(s.workload.load_fraction, s.seed) for s in specs}
        assert combos == {(lf, s) for lf in (0.4, 0.6) for s in (1, 2, 3)}

    def test_zip_pairs_elementwise(self):
        sweep = Sweep.from_axes(
            base_spec(),
            {"workload.load_fraction": [0.4, 0.6], "seed": [1, 2]},
            mode="zip",
        )
        specs = sweep.expand()
        assert [(s.workload.load_fraction, s.seed) for s in specs] == [
            (0.4, 1),
            (0.6, 2),
        ]

    def test_expanded_names_identify_the_point(self):
        specs = Sweep.from_axes(base_spec(), {"seed": [1, 2]}).expand()
        assert specs[0].name == "sweepbase/seed=1"
        assert specs[1].name == "sweepbase/seed=2"

    def test_expansion_is_pure(self):
        sweep = Sweep.from_axes(base_spec(), {"seed": [1, 2]})
        assert sweep.expand() == sweep.expand()
        assert sweep.base.seed == 3

    def test_axis_validation(self):
        with pytest.raises(ConfigurationError, match="at least one value"):
            SweepAxis(path="seed", values=())
        with pytest.raises(ConfigurationError, match="more than once"):
            Sweep(
                base=base_spec(),
                axes=(SweepAxis("seed", (1,)), SweepAxis("seed", (2,))),
            )
        with pytest.raises(ConfigurationError, match="same length"):
            Sweep.from_axes(
                base_spec(), {"seed": [1, 2], "name": ["a"]}, mode="zip"
            )
        with pytest.raises(ConfigurationError, match="mode"):
            Sweep.from_axes(base_spec(), {"seed": [1]}, mode="diagonal")


class TestExecution:
    def test_serial_results_follow_expansion_order(self):
        sweep = Sweep.from_axes(
            base_spec(), {"workload.load_fraction": [0.4, 0.6, 0.8]}
        )
        results = sweep.run()
        latencies = [r.metrics["mean_latency_ms"] for r in results]
        assert latencies == sorted(latencies)  # more load, more latency

    def test_process_pool_matches_serial(self):
        sweep = Sweep.from_axes(
            base_spec(), {"workload.load_fraction": [0.4, 0.7]}
        )
        serial = sweep.run()
        parallel = sweep.run(max_workers=2)
        assert [r.spec.name for r in parallel] == [r.spec.name for r in serial]
        for a, b in zip(serial, parallel):
            assert a.metrics == b.metrics

    def test_rerun_from_saved_spec_file_is_deterministic(self, tmp_path):
        path = base_spec().save(tmp_path / "base.json")
        loaded = ExperimentSpec.from_file(path)
        axes = {"workload.load_fraction": [0.4, 0.6]}
        first = Sweep.from_axes(loaded, axes).run()
        second = Sweep.from_axes(ExperimentSpec.from_file(path), axes).run()
        for a, b in zip(first, second):
            assert a.metrics == b.metrics
            assert a.dip_summaries == b.dip_summaries

    def test_bad_worker_count(self):
        sweep = Sweep.from_axes(base_spec(), {"seed": [1]})
        with pytest.raises(ConfigurationError, match="max_workers"):
            sweep.run(max_workers=0)


class TestCompare:
    def test_compare_aligns_metrics(self):
        results = Sweep.from_axes(
            base_spec(), {"workload.load_fraction": [0.4, 0.8]}
        ).run()
        report = compare(results)
        assert report.baseline == results[0].spec.name
        assert report.metrics["mean_latency_ms"][0] < report.metrics["mean_latency_ms"][1]

    def test_compare_across_runners_fills_missing_with_nan(self):
        fluid = run(base_spec())
        request = run(base_spec().with_overrides({"runner": "request"}))
        report = compare([fluid, request])
        assert math.isnan(report.metrics["p99_latency_ms"][0])
        assert report.metrics["p99_latency_ms"][1] > 0
        rendered = report.render()
        assert "mean_latency_ms" in rendered
        assert "[fluid]" in rendered and "[request]" in rendered

    def test_compare_requires_results(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            compare([])

    def test_report_round_trips_to_dict(self):
        report = compare(Sweep.from_axes(base_spec(), {"seed": [1, 2]}).run())
        data = report.to_dict()
        assert data["names"] == list(report.names)
        assert set(data["metrics"]) == set(report.metrics)
