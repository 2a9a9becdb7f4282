"""E6 — Fig. 3: computing efficiency of GPU, PipeLayer, ReTransformer and STAR.

The paper reports STAR at 612.66 GOPs/s/W — 30.63x the Titan RTX, 4.32x
PipeLayer and 1.31x ReTransformer — for BERT-base at sequence length 128.
"""

from __future__ import annotations

from repro.analysis.efficiency import EfficiencyComparison
from repro.nn.bert import BertWorkload

import pytest

from conftest import record


@pytest.mark.smoke
def test_bench_fig3_efficiency_comparison(benchmark, paper_values):
    """Full four-design comparison on the BERT-base / seq-128 workload."""
    comparison = EfficiencyComparison(workload=BertWorkload(seq_len=128))

    results = benchmark(comparison.run)

    table = results.table
    record(
        benchmark,
        gops_per_watt={
            report.name: round(report.computing_efficiency_gops_per_watt, 2)
            for report in table.reports
        },
        star_gops_per_watt=round(results.star_efficiency, 2),
        gain_over_gpu=round(results.gain_over_gpu, 2),
        gain_over_pipelayer=round(results.gain_over_pipelayer, 2),
        gain_over_retransformer=round(results.gain_over_retransformer, 2),
        paper_star_gops_per_watt=paper_values["fig3_star_gops_per_watt"],
        paper_gains=(
            paper_values["fig3_gain_over_gpu"],
            paper_values["fig3_gain_over_pipelayer"],
            paper_values["fig3_gain_over_retransformer"],
        ),
    )

    # ordering of the bars in Fig. 3
    efficiencies = [r.computing_efficiency_gops_per_watt for r in table.reports]
    assert efficiencies == sorted(efficiencies)
    # magnitudes within reproduction bands around the paper's Fig. 3 values
    assert 450 < results.star_efficiency < 800
    assert results.gain_over_gpu > 20
    assert 3 < results.gain_over_pipelayer < 6
    assert 1.1 < results.gain_over_retransformer < 1.6


def test_bench_star_inference_latency(benchmark):
    """STAR end-to-end BERT-base inference latency at sequence length 128."""
    from repro.core.accelerator import STARAccelerator

    star = STARAccelerator()
    workload = BertWorkload(seq_len=128)

    latency = benchmark(star.inference_latency_s, workload)

    record(
        benchmark,
        latency_ms=round(latency * 1e3, 3),
        power_w=round(star.power_w(128), 3),
        area_mm2=round(star.area_mm2(), 2),
        throughput_gops=round(workload.total_ops() / latency / 1e9, 1),
    )
    assert latency > 0
