"""E5 — Table I: softmax engine area and power vs the CMOS baselines.

The paper's Table I (BERT-base, CNEWS, sequence length 128, 8-bit engine):

============== ======= =======
Design          Area    Power
============== ======= =======
Softermax       0.33x   0.12x
Ours (8-bit)    0.06x   0.05x
============== ======= =======

(ratios relative to the baseline CMOS softmax).  The benchmark rebuilds all
three units from the shared component models and reports the reproduced
ratios; the assertions check the orderings and the order of magnitude rather
than the exact figures (``python -m repro.experiments e5`` prints the
side-by-side numbers).
"""

from __future__ import annotations

from repro.baselines.cmos_softmax import CMOSSoftmaxUnit
from repro.baselines.softermax import SoftermaxUnit
from repro.core.config import SoftmaxEngineConfig
from repro.core.softmax_engine import RRAMSoftmaxEngine
from repro.utils.fixed_point import CNEWS_FORMAT

import pytest

from conftest import record

SEQ_LEN = 128


def _build_units():
    baseline = CMOSSoftmaxUnit()
    softermax = SoftermaxUnit()
    star = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))
    return baseline, softermax, star


@pytest.mark.smoke
def test_bench_table1_area_power(benchmark, paper_values):
    """Area / power of the three softmax designs and their Table-I ratios."""
    baseline, softermax, star = benchmark(_build_units)

    star_area_ratio = star.area_um2() / baseline.area_um2
    star_power_ratio = star.power_w(SEQ_LEN) / baseline.power_w
    softermax_area_ratio = softermax.area_um2 / baseline.area_um2
    softermax_power_ratio = softermax.power_w / baseline.power_w

    record(
        benchmark,
        baseline_area_um2=round(baseline.area_um2, 1),
        baseline_power_mw=round(baseline.power_w * 1e3, 3),
        softermax_area_um2=round(softermax.area_um2, 1),
        softermax_power_mw=round(softermax.power_w * 1e3, 3),
        star_area_um2=round(star.area_um2(), 1),
        star_power_mw=round(star.power_w(SEQ_LEN) * 1e3, 3),
        star_area_ratio=round(star_area_ratio, 4),
        star_power_ratio=round(star_power_ratio, 4),
        softermax_area_ratio=round(softermax_area_ratio, 4),
        softermax_power_ratio=round(softermax_power_ratio, 4),
        paper_star_ratios=(paper_values["table1_star_area_ratio"], paper_values["table1_star_power_ratio"]),
        paper_softermax_ratios=(
            paper_values["table1_softermax_area_ratio"],
            paper_values["table1_softermax_power_ratio"],
        ),
    )

    # Table I orderings: STAR < Softermax < baseline in both area and power
    assert star.area_um2() < softermax.area_um2 < baseline.area_um2
    assert star.power_w(SEQ_LEN) < softermax.power_w < baseline.power_w
    # magnitudes: STAR's engine is a small fraction of the baseline
    assert star_area_ratio < 0.15
    assert star_power_ratio < 0.10
    assert softermax_area_ratio < 0.5


def test_bench_star_softmax_row_energy(benchmark):
    """Per-row energy/latency ledger of the 8-bit engine at sequence length 128."""
    star = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=CNEWS_FORMAT))

    ledger = benchmark(star.row_ledger, SEQ_LEN)

    record(
        benchmark,
        row_energy_pj=round(star.row_energy_j(SEQ_LEN) * 1e12, 2),
        row_latency_us=round(star.row_latency_s(SEQ_LEN) * 1e6, 3),
        per_component={name: round(energy * 1e12, 2) for name, energy, _, _ in ledger.breakdown()},
    )
    assert ledger.total_energy_j > 0
