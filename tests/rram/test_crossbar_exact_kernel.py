"""Golden and content-driven tests for the crossbar's exact integer kernel.

With ideal devices `AnalogCrossbar.matvec_batch` computes every bit-serial
cycle as one integer-valued BLAS matmul.  The kernel picks its working
precision from the config and skips wordline rows whose programmed levels
are all zero, so these tests pin its output bytes:

* sha256 digests of the output of seeded configs, recorded with the
  float64 kernel that every partial sum of the narrower one must
  reproduce bit for bit;
* the crossbar access counters of one inference of the two-layer analog
  BERT encoder the repository benchmark runs;
* re-programming one tile between matrices with and without trailing
  all-zero rows gives the output of a freshly programmed tile each time.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import MatMulEngine, MatMulEngineConfig, RRAMSoftmaxEngine
from repro.nn import AnalogBackend, BertConfig, BertEncoderModel
from repro.rram.crossbar import AnalogCrossbar, CrossbarConfig
from repro.rram.device import RRAMDeviceConfig

#: ``name -> (CrossbarConfig kwargs, bits_per_cell, zero trailing weight rows)``
CROSSBAR_CASES = {
    "single_ended": (dict(rows=128, cols=128), 2, 0),
    "single_ended_zero_tail": (dict(rows=128, cols=96), 3, 70),
    "differential": (dict(rows=128, cols=128, differential=True), 2, 0),
    "differential_zero_tail": (dict(rows=128, cols=128, differential=True), 2, 64),
    "dac_bits_2": (dict(rows=64, cols=48, differential=True, dac_bits=2, adc_bits=8), 3, 0),
    "bits_per_cell_5": (dict(rows=128, cols=128, differential=True, adc_bits=10), 5, 0),
    # 32 rows x (2**16 - 1) DAC codes x 15 level steps exceeds 2**24
    "float64_bound": (
        dict(rows=32, cols=16, differential=True, dac_bits=16, input_bits=16, adc_bits=12),
        4,
        0,
    ),
}

#: ``name -> (MatMulEngineConfig kwargs, (m, k, n))``
MATMUL_CASES = {
    "matmul_k64": (dict(bits_per_cell=5, adc_bits=10), (96, 64, 128)),
    "matmul_k200": (dict(), (50, 200, 70)),
}

#: Recorded from the float64 kernel (sha256 of the float64 output bytes).
GOLDEN_DIGESTS = {
    "single_ended": "51e382ca025a4ca666fd365dfdcb87744e579856560e492b55f82bd854eb958d",
    "single_ended_zero_tail": "36def194eef834a23fde7e3fc67515e6ba546f4dce96837bdd8e873a20fd1b2f",
    "differential": "d6e00ac762f4e00ba02c1f64f86b4e10768d03bad69374bd56eaecce9039cde2",
    "differential_zero_tail": "2f0a8d94a2a69f845500af490570491f3f63cd00b9f6379c01bd6735f4e54e09",
    "dac_bits_2": "318389fbfe7be1532f6157de36b69ba659c495f9104968553b8a08050174d17b",
    "bits_per_cell_5": "9d798370e485c1a55fd1b59ebbd8c2779d99fb28695a2f8886800fdb24c1ee81",
    "float64_bound": "a8798de86bef63ff72d635303fd478286871e2661403164a24bbd437344c3fba",
    "differential_unquantized": "0fdd779fdac65529f42a8d69981a54e5ac3ea962a4c0084bf2feee8b2a7620f5",
    "matmul_k64": "2b08f03ad65e0a09ad3f9097b69aeb8a89febaf1569b749e2e57012a94abc4b9",
    "matmul_k200": "709be02d376771ad160167bb9a60feb658da37e4a36a1a66d9d8c5ce30499ca6",
}

#: Counters after one 2 x 64-token inference of the benchmark's encoder.
GOLDEN_BERT_STATS = {
    "vmm_ops": 14336,
    "array_activations": 114688,
    "cell_reads": 3758096384,
    "adc_conversions": 29360128,
    "dac_conversions": 14680064,
    "programming_pulses": 4194304,
}


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def crossbar_case(name: str, quantize_output: bool = True) -> np.ndarray:
    kwargs, bits_per_cell, zero_tail = CROSSBAR_CASES[name]
    config = CrossbarConfig(device=RRAMDeviceConfig(bits_per_cell=bits_per_cell), **kwargs)
    rng = np.random.default_rng(sorted(CROSSBAR_CASES).index(name))
    weights = rng.normal(size=(config.rows, config.cols))
    if not config.differential:
        weights = np.abs(weights)
    if zero_tail:
        weights[-zero_tail:] = 0.0
    block = rng.uniform(0.0, 2.0, size=(37, config.rows))
    block[5] = 0.0  # an all-zero input row
    block[9, ::3] = 0.0
    crossbar = AnalogCrossbar(config)
    crossbar.program(weights)
    return crossbar.matvec_batch(block, quantize_output=quantize_output)


def matmul_case(name: str) -> np.ndarray:
    kwargs, (m, k, n) = MATMUL_CASES[name]
    rng = np.random.default_rng(100 + sorted(MATMUL_CASES).index(name))
    engine = MatMulEngine(MatMulEngineConfig(**kwargs))
    return engine.matmul(rng.normal(size=(m, k)), rng.normal(size=(k, n)))


def golden_outputs() -> dict[str, np.ndarray]:
    outputs = {name: crossbar_case(name) for name in CROSSBAR_CASES}
    outputs["differential_unquantized"] = crossbar_case("differential", quantize_output=False)
    outputs.update({name: matmul_case(name) for name in MATMUL_CASES})
    return outputs


def bert_inference_stats() -> dict[str, int]:
    config = BertConfig(
        num_layers=2, hidden=256, num_heads=4, intermediate=1024, vocab_size=2048, max_positions=128
    )
    backend = AnalogBackend(MatMulEngine(MatMulEngineConfig(bits_per_cell=5, adc_bits=10)))
    model = BertEncoderModel(config, seed=0, softmax_fn=RRAMSoftmaxEngine(), backend=backend)
    model(np.random.default_rng(97).integers(0, config.vocab_size, size=(2, 64)))
    return asdict(backend.access_stats)


@pytest.fixture(scope="module")
def outputs() -> dict[str, np.ndarray]:
    return golden_outputs()


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_output_bytes_match_float64_kernel(outputs, name):
    assert digest(outputs[name]) == GOLDEN_DIGESTS[name]


def test_bert_inference_access_stats():
    assert bert_inference_stats() == GOLDEN_BERT_STATS


class TestKernelPrecision:
    def test_matmul_tile_runs_in_float32(self):
        # 128 rows x 1 DAC code x 31 level steps, far below 2**24
        tile = MatMulEngine(MatMulEngineConfig(bits_per_cell=5)).new_tile()
        tile.program(np.ones((128, 128)))
        assert tile._exact_levels.dtype == np.float32

    def test_bound_forces_float64(self):
        kwargs, bits_per_cell, _ = CROSSBAR_CASES["float64_bound"]
        config = CrossbarConfig(device=RRAMDeviceConfig(bits_per_cell=bits_per_cell), **kwargs)
        crossbar = AnalogCrossbar(config)
        crossbar.program(np.ones((config.rows, config.cols)))
        assert crossbar._exact_levels.dtype == np.float64

    @pytest.mark.parametrize("differential", [False, True])
    def test_float32_exact_just_below_bound(self, differential):
        """Largest sums the float32 kernel admits equal the float64 kernel's."""
        # 1024 rows x 255 DAC codes x 63 level steps = 16_450_560 < 2**24
        config = CrossbarConfig(
            rows=1024,
            cols=8,
            dac_bits=8,
            adc_bits=16,
            differential=differential,
            device=RRAMDeviceConfig(bits_per_cell=6),
        )
        weights = np.ones((1024, 8))
        weights[:, 1::2] = -1.0 if differential else 0.5
        block = np.ones((3, 1024))
        block[1, ::7] = 0.3
        narrow, wide = AnalogCrossbar(config), AnalogCrossbar(config)
        narrow.program(weights)
        wide.program(weights)
        assert narrow._exact_levels.dtype == np.float32
        wide._exact_levels = wide._exact_levels.astype(np.float64)
        for quantize_output in (True, False):
            np.testing.assert_array_equal(
                narrow.matvec_batch(block, quantize_output=quantize_output),
                wide.matvec_batch(block, quantize_output=quantize_output),
            )


class TestRowTrimming:
    @pytest.mark.parametrize("differential", [False, True])
    def test_reprogramming_follows_contents(self, differential):
        config = CrossbarConfig(rows=64, cols=16, differential=differential)
        rng = np.random.default_rng(3)
        full = rng.uniform(0.1, 1.0, size=(64, 16))
        if differential:
            full[:, ::2] *= -1.0
        padded = full.copy()
        padded[40:] = 0.0
        block = rng.uniform(0.0, 1.0, size=(9, 64))

        def fresh(weights):
            crossbar = AnalogCrossbar(config)
            crossbar.program(weights)
            return crossbar.matvec_batch(block)

        reused = AnalogCrossbar(config)
        for weights, active_rows in ((padded, 40), (full, 64), (padded, 40)):
            reused.program(weights)
            assert reused._exact_levels.shape[0] == active_rows
            np.testing.assert_array_equal(reused.matvec_batch(block), fresh(weights))

    def test_all_zero_matrix(self):
        crossbar = AnalogCrossbar(CrossbarConfig(rows=16, cols=4, differential=True))
        crossbar.program(np.zeros((16, 4)))
        assert crossbar._exact_levels.shape == (0, 4)
        out = crossbar.matvec_batch(np.random.default_rng(0).uniform(size=(5, 16)))
        np.testing.assert_array_equal(out, np.zeros((5, 4)))
        assert not np.signbit(out).any()
