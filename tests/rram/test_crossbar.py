"""Tests for the analog VMM crossbar (repro.rram.crossbar)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rram.crossbar import AnalogCrossbar, CrossbarAccessStats, CrossbarConfig
from repro.rram.noise import NoiseConfig


def make_crossbar(
    rows=16, cols=8, adc_bits=10, input_bits=8, differential=False, noise=None, bits_per_cell=2
):
    from repro.rram.device import RRAMDeviceConfig

    config = CrossbarConfig(
        rows=rows,
        cols=cols,
        adc_bits=adc_bits,
        input_bits=input_bits,
        differential=differential,
        noise=noise or NoiseConfig(),
        device=RRAMDeviceConfig(bits_per_cell=bits_per_cell),
    )
    return AnalogCrossbar(config)


class TestCrossbarConfig:
    def test_paper_tile_dimensions(self):
        config = CrossbarConfig(rows=128, cols=128, adc_bits=5)
        assert config.num_cells == 128 * 128
        assert config.input_cycles == 8  # 8-bit inputs through a 1-bit DAC

    def test_differential_doubles_columns(self):
        config = CrossbarConfig(rows=4, cols=4, differential=True)
        assert config.physical_cols == 8

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            CrossbarConfig(rows=0)
        with pytest.raises(ValueError):
            CrossbarConfig(dac_bits=0)
        with pytest.raises(ValueError):
            CrossbarConfig(adc_share=0)


class TestProgramming:
    def test_requires_programming_before_matvec(self):
        crossbar = make_crossbar()
        with pytest.raises(RuntimeError):
            crossbar.matvec(np.ones(16))

    def test_rejects_wrong_shape(self):
        crossbar = make_crossbar(rows=4, cols=4)
        with pytest.raises(ValueError):
            crossbar.program(np.ones((4, 5)))

    def test_rejects_negative_weights_without_differential(self):
        crossbar = make_crossbar(rows=4, cols=4, differential=False)
        with pytest.raises(ValueError):
            crossbar.program(np.full((4, 4), -1.0))

    def test_differential_accepts_signed_weights(self, rng):
        crossbar = make_crossbar(rows=8, cols=4, differential=True)
        crossbar.program(rng.normal(size=(8, 4)))
        assert crossbar.is_programmed

    def test_weights_property_returns_copy(self, rng):
        crossbar = make_crossbar(rows=4, cols=4)
        weights = np.abs(rng.normal(size=(4, 4)))
        crossbar.program(weights)
        returned = crossbar.weights
        returned[0, 0] = 999.0
        assert crossbar.weights[0, 0] != 999.0


class TestMatvecAccuracy:
    def test_unsigned_matvec_tracks_ideal(self, rng):
        # 5 bits/cell keeps conductance-quantisation error small enough to
        # check the analog signal path itself
        crossbar = make_crossbar(rows=32, cols=16, adc_bits=12, bits_per_cell=5)
        weights = rng.uniform(0.1, 1.0, size=(32, 16))
        crossbar.program(weights)
        inputs = rng.uniform(0.0, 1.0, size=32)
        analog = crossbar.matvec(inputs)
        ideal = crossbar.ideal_matvec(inputs)
        relative = np.abs(analog - ideal) / np.max(np.abs(ideal))
        assert np.max(relative) < 0.05

    def test_differential_matvec_tracks_ideal(self, rng):
        crossbar = make_crossbar(
            rows=32, cols=16, adc_bits=12, differential=True, bits_per_cell=5
        )
        weights = rng.normal(0.0, 1.0, size=(32, 16))
        crossbar.program(weights)
        inputs = rng.uniform(0.0, 1.0, size=32)
        analog = crossbar.matvec(inputs)
        ideal = crossbar.ideal_matvec(inputs)
        relative = np.abs(analog - ideal) / np.max(np.abs(ideal))
        assert np.max(relative) < 0.08

    def test_more_bits_per_cell_improves_accuracy(self, rng):
        weights = rng.uniform(0.1, 1.0, size=(32, 8))
        inputs = rng.uniform(0.0, 1.0, size=32)
        errors = []
        for bits in (2, 4):
            crossbar = make_crossbar(rows=32, cols=8, adc_bits=12, bits_per_cell=bits)
            crossbar.program(weights)
            errors.append(np.max(np.abs(crossbar.matvec(inputs) - crossbar.ideal_matvec(inputs))))
        assert errors[1] < errors[0]

    def test_unquantized_output_is_more_accurate(self, rng):
        # with fine weight storage (5 bits/cell) the coarse 4-bit ADC is the
        # dominant error source, so bypassing it must reduce the error norm
        crossbar = make_crossbar(rows=32, cols=8, adc_bits=4, bits_per_cell=5)
        weights = rng.uniform(0.1, 1.0, size=(32, 8))
        crossbar.program(weights)
        inputs = rng.uniform(0.0, 1.0, size=32)
        ideal = crossbar.ideal_matvec(inputs)
        with_adc = np.linalg.norm(crossbar.matvec(inputs, quantize_output=True) - ideal)
        without_adc = np.linalg.norm(crossbar.matvec(inputs, quantize_output=False) - ideal)
        assert without_adc <= with_adc + 1e-9

    def test_zero_input_gives_zero_output(self, rng):
        crossbar = make_crossbar(rows=8, cols=4)
        crossbar.program(np.abs(rng.normal(size=(8, 4))))
        np.testing.assert_allclose(crossbar.matvec(np.zeros(8)), 0.0, atol=1e-12)

    def test_rejects_negative_inputs(self, rng):
        crossbar = make_crossbar(rows=8, cols=4)
        crossbar.program(np.abs(rng.normal(size=(8, 4))))
        with pytest.raises(ValueError):
            crossbar.matvec(np.array([-1.0] + [0.0] * 7))

    def test_rejects_nan_inputs(self, rng):
        crossbar = make_crossbar(rows=4, cols=3)
        crossbar.program(np.abs(rng.normal(size=(4, 3))))
        with pytest.raises(ValueError, match="finite.*got nan at index"):
            crossbar.matvec(np.array([1.0, np.nan, 3.0, 4.0]))

    @pytest.mark.parametrize("differential", [False, True])
    def test_rejects_non_finite_weights(self, rng, differential):
        crossbar = make_crossbar(rows=4, cols=3, differential=differential)
        weights = np.abs(rng.normal(size=(4, 3)))
        weights[2, 1] = np.nan
        weights[3, 0] = np.inf
        with pytest.raises(ValueError, match=r"weights must be finite, got nan at index \(2, 1\)"):
            crossbar.program(weights)
        assert not crossbar.is_programmed

    def test_read_noise_degrades_accuracy(self, rng):
        weights = rng.uniform(0.1, 1.0, size=(32, 8))
        inputs = rng.uniform(0.0, 1.0, size=32)
        clean = make_crossbar(rows=32, cols=8, adc_bits=12, bits_per_cell=5)
        noisy = make_crossbar(
            rows=32,
            cols=8,
            adc_bits=12,
            bits_per_cell=5,
            noise=NoiseConfig(read_noise_sigma=0.05, seed=1),
        )
        clean.program(weights)
        noisy.program(weights)
        ideal = clean.ideal_matvec(inputs)
        clean_err = np.max(np.abs(clean.matvec(inputs) - ideal))
        noisy_err = np.max(np.abs(noisy.matvec(inputs) - ideal))
        assert noisy_err > clean_err


class TestCostsAndStats:
    def test_stats_accumulate(self, rng):
        crossbar = make_crossbar(rows=8, cols=4, input_bits=4)
        crossbar.program(np.abs(rng.normal(size=(8, 4))))
        crossbar.matvec(np.abs(rng.uniform(size=8)))
        assert crossbar.stats.vmm_ops == 1
        assert crossbar.stats.array_activations == crossbar.config.input_cycles
        assert crossbar.stats.dac_conversions == 8 * crossbar.config.input_cycles

    def test_access_stats_merge(self):
        a = CrossbarAccessStats(vmm_ops=1, cell_reads=10)
        b = CrossbarAccessStats(vmm_ops=2, cell_reads=5, adc_conversions=3)
        a.merge(b)
        assert a.vmm_ops == 3
        assert a.cell_reads == 15
        assert a.adc_conversions == 3

    def test_latency_and_energy_positive_and_scale_with_cycles(self):
        fast = make_crossbar(input_bits=1)
        slow = make_crossbar(input_bits=8)
        assert slow.vmm_latency_s() == pytest.approx(8 * fast.vmm_latency_s())
        assert slow.vmm_energy_j() == pytest.approx(8 * fast.vmm_energy_j())
        assert fast.cycle_latency_s() > 0
        assert fast.programming_energy_j() > 0
        assert fast.programming_latency_s() > 0


class TestCrossbarProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matvec_scales_linearly_with_input_scaling(self, seed):
        generator = np.random.default_rng(seed)
        crossbar = make_crossbar(rows=16, cols=4, adc_bits=12, bits_per_cell=5)
        weights = generator.uniform(0.1, 1.0, size=(16, 4))
        crossbar.program(weights)
        inputs = generator.uniform(0.1, 1.0, size=16)
        base = crossbar.matvec(inputs, quantize_output=False)
        doubled = crossbar.matvec(2.0 * inputs, quantize_output=False)
        np.testing.assert_allclose(doubled, 2.0 * base, rtol=0.02)
