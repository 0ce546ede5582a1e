"""Table 8 + §6.7: overheads of KnapsackLB at datacenter scale."""

from __future__ import annotations

from _harness import run_once, save_report

from repro.analysis import format_table
from repro.experiments import run_overhead_model
from repro.workloads import table8_vip_counts


def test_table8_overheads(benchmark):
    report = run_once(benchmark, run_overhead_model, max_measured_vip_size=100)
    mix_rows = [[size, count] for size, count in sorted(table8_vip_counts().items())]
    ilp_rows = [
        [size, f"{seconds * 1000:.0f} ms"]
        for size, seconds in sorted(report.measured_ilp_time_per_vip_s.items())
    ]
    text = (
        format_table(["#DIPs/VIP", "#VIPs"], mix_rows, title="Table 8 workload")
        + "\n\n"
        + format_table(["#DIPs/VIP", "measured ILP time"], ilp_rows)
        + "\n\n"
        + f"total DIPs                    : {report.total_dips:,}\n"
        + f"total VIPs                    : {report.total_vips:,}\n"
        + f"KLM cores                     : {report.klm_cores:,.0f} "
        + f"({report.klm_core_overhead_percent:.2f} % of DIP cores; paper: 0.71 %)\n"
        + f"KLM cost overhead             : {report.klm_cost_overhead_percent:.2f} % (paper: 0.83 %)\n"
        + f"latency store footprint       : {report.store_megabytes:.1f} MB (paper: < 6 GB)\n"
        + f"regression cores              : {report.regression_cores:.1f} (paper: 60)\n"
        + f"controller ILP time / round   : {report.controller_ilp_time_s:.0f} s (paper: 851 s)\n"
        + f"controller VMs                : {report.controller_vms:.0f} (paper: 193)\n"
        + f"controller core overhead      : {report.controller_core_overhead_percent:.2f} % (paper: 0.32 %)\n"
        + f"ILP times measured with the {report.ilp_backend!r} backend (paper: CBC)"
    )
    save_report("table8_overheads", text)

    assert report.total_dips == 60_000
    # The overheads stay small, as the paper argues.
    assert report.klm_core_overhead_percent < 2.0
    assert report.store_megabytes < 6 * 1024
    assert report.controller_core_overhead_percent < 5.0
