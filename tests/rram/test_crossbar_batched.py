"""Bit-identity tests for the batched crossbar VMM backend.

`AnalogCrossbar.matvec_batch` must equal a loop of per-vector `matvec`
calls *exactly* — same outputs, same access counters, same RNG stream
consumption — under every configuration: differential and single-ended
arrays, seeded read noise, programming noise, IR drop and ADC saturation.
Two freshly constructed crossbars with the same config are compared so both
paths see identical programming and identical noise streams.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rram.crossbar import AnalogCrossbar, CrossbarAccessStats, CrossbarConfig
from repro.rram.device import RRAMDeviceConfig
from repro.rram.noise import NoiseConfig


def build(
    rows=16,
    cols=8,
    adc_bits=6,
    input_bits=8,
    differential=False,
    noise=None,
    bits_per_cell=3,
    wire_resistance_ohm=0.0,
    stats=None,
):
    config = CrossbarConfig(
        rows=rows,
        cols=cols,
        adc_bits=adc_bits,
        input_bits=input_bits,
        differential=differential,
        noise=noise or NoiseConfig(),
        device=RRAMDeviceConfig(bits_per_cell=bits_per_cell),
        wire_resistance_ohm=wire_resistance_ohm,
    )
    return AnalogCrossbar(config, stats=stats)


def assert_batch_matches_loop(make_crossbar, weights, block, quantize_output=True):
    """Program two identical crossbars; compare batched vs looped results."""
    batched_xb = make_crossbar()
    looped_xb = make_crossbar()
    batched_xb.program(weights)
    looped_xb.program(weights)
    batched = batched_xb.matvec_batch(block, quantize_output=quantize_output)
    looped = np.stack(
        [looped_xb.matvec(row, quantize_output=quantize_output) for row in block]
    )
    np.testing.assert_array_equal(batched, looped)
    assert batched_xb.stats == looped_xb.stats
    return batched


class TestBitIdentity:
    def setup_method(self):
        rng = np.random.default_rng(77)
        self.pos_weights = rng.uniform(0.1, 1.0, size=(16, 8))
        self.signed_weights = rng.normal(size=(16, 8))
        self.block = rng.uniform(0.0, 1.0, size=(9, 16))

    def test_ideal_single_ended(self):
        assert_batch_matches_loop(build, self.pos_weights, self.block)

    def test_ideal_differential(self):
        assert_batch_matches_loop(
            lambda: build(differential=True), self.signed_weights, self.block
        )

    def test_unquantized_output(self):
        assert_batch_matches_loop(
            build, self.pos_weights, self.block, quantize_output=False
        )

    @pytest.mark.parametrize("differential", [False, True])
    def test_seeded_read_noise(self, differential):
        noise = NoiseConfig(read_noise_sigma=0.05, seed=3)
        weights = self.signed_weights if differential else self.pos_weights
        assert_batch_matches_loop(
            lambda: build(differential=differential, noise=noise), weights, self.block
        )

    def test_programming_noise_and_stuck_cells(self):
        noise = NoiseConfig(
            programming_sigma=0.03,
            stuck_on_fraction=0.02,
            stuck_off_fraction=0.02,
            seed=11,
        )
        assert_batch_matches_loop(lambda: build(noise=noise), self.pos_weights, self.block)

    def test_all_noise_mechanisms_differential(self):
        noise = NoiseConfig(programming_sigma=0.02, read_noise_sigma=0.03, seed=5)
        assert_batch_matches_loop(
            lambda: build(differential=True, noise=noise), self.signed_weights, self.block
        )

    def test_ir_drop(self):
        assert_batch_matches_loop(
            lambda: build(wire_resistance_ohm=5.0), self.pos_weights, self.block
        )

    def test_ir_drop_with_read_noise(self):
        noise = NoiseConfig(read_noise_sigma=0.02, seed=9)
        assert_batch_matches_loop(
            lambda: build(wire_resistance_ohm=5.0, noise=noise),
            self.pos_weights,
            self.block,
        )

    def test_adc_saturation(self):
        # 2-bit ADC with large inputs drives the converter deep into clipping
        block = np.random.default_rng(4).uniform(0.0, 50.0, size=(6, 16))
        batched = assert_batch_matches_loop(
            lambda: build(adc_bits=2), self.pos_weights, block
        )
        assert np.all(np.isfinite(batched))

    def test_noisy_chunking_preserves_stream_order(self, monkeypatch):
        """A chunked noisy block equals the same block processed whole."""
        import repro.rram.crossbar as crossbar_mod

        noise = NoiseConfig(read_noise_sigma=0.05, seed=13)
        whole_xb = build(noise=noise)
        whole_xb.program(self.pos_weights)
        whole = whole_xb.matvec_batch(self.block)

        # force chunks of at most ~2 vectors
        per_vector = whole_xb.config.input_cycles * whole_xb._deviates_per_cycle()
        monkeypatch.setattr(crossbar_mod, "_CHUNK_DOUBLES", 2 * per_vector)
        chunked_xb = build(noise=noise)
        chunked_xb.program(self.pos_weights)
        chunked = chunked_xb.matvec_batch(self.block)
        np.testing.assert_array_equal(whole, chunked)

    def test_exact_path_chunking_is_transparent(self, monkeypatch):
        """The ideal-device path also chunks to the scratch budget, unchanged."""
        import repro.rram.crossbar as crossbar_mod

        whole_xb = build()
        whole_xb.program(self.pos_weights)
        whole = whole_xb.matvec_batch(self.block)

        monkeypatch.setattr(crossbar_mod, "_CHUNK_DOUBLES", 1)  # one row per chunk
        chunked_xb = build()
        chunked_xb.program(self.pos_weights)
        chunked = chunked_xb.matvec_batch(self.block)
        np.testing.assert_array_equal(whole, chunked)
        assert chunked_xb.stats == whole_xb.stats


class TestBatchSemantics:
    def test_accuracy_tracks_ideal(self):
        rng = np.random.default_rng(0)
        crossbar = build(rows=32, cols=16, adc_bits=12, bits_per_cell=5)
        weights = rng.uniform(0.1, 1.0, size=(32, 16))
        crossbar.program(weights)
        block = rng.uniform(0.0, 1.0, size=(12, 32))
        out = crossbar.matvec_batch(block)
        ideal = block @ weights
        assert np.max(np.abs(out - ideal)) / np.max(np.abs(ideal)) < 0.05

    def test_empty_batch(self):
        crossbar = build()
        crossbar.program(np.abs(np.random.default_rng(1).normal(size=(16, 8))))
        out = crossbar.matvec_batch(np.zeros((0, 16)))
        assert out.shape == (0, 8)
        assert crossbar.stats.vmm_ops == 0

    def test_rejects_wrong_width(self):
        crossbar = build()
        crossbar.program(np.abs(np.random.default_rng(1).normal(size=(16, 8))))
        with pytest.raises(ValueError):
            crossbar.matvec_batch(np.zeros((3, 7)))

    def test_rejects_negative_inputs(self):
        crossbar = build()
        crossbar.program(np.abs(np.random.default_rng(1).normal(size=(16, 8))))
        block = np.zeros((3, 16))
        block[1, 4] = -0.5
        with pytest.raises(ValueError, match=r"at index \(1, 4\)"):
            crossbar.matvec_batch(block)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_inputs(self, bad):
        crossbar = build(rows=4, cols=3)
        crossbar.program(np.abs(np.random.default_rng(1).normal(size=(4, 3))))
        block = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, bad, 3.0, 4.0], [bad, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=rf"got {bad} at index \(1, 1\)"):
            crossbar.matvec_batch(block)

    def test_requires_programming(self):
        with pytest.raises(RuntimeError):
            build().matvec_batch(np.zeros((2, 16)))

    def test_stats_scale_with_batch(self):
        crossbar = build(input_bits=4)
        crossbar.program(np.abs(np.random.default_rng(1).normal(size=(16, 8))))
        crossbar.matvec_batch(np.random.default_rng(2).uniform(size=(5, 16)))
        cycles = crossbar.config.input_cycles
        assert crossbar.stats.vmm_ops == 5
        assert crossbar.stats.array_activations == 5 * cycles
        assert crossbar.stats.dac_conversions == 5 * 16 * cycles
        assert crossbar.stats.adc_conversions == 5 * 8 * cycles

    def test_shared_stats_object(self):
        shared = CrossbarAccessStats()
        a = build(stats=shared)
        b = build(stats=shared)
        weights = np.abs(np.random.default_rng(1).normal(size=(16, 8)))
        a.program(weights)
        b.program(weights)
        assert shared.programming_pulses == 2 * 16 * 8
        a.matvec_batch(np.random.default_rng(2).uniform(size=(3, 16)))
        assert shared.vmm_ops == 3
        assert a.stats is shared and b.stats is shared
