"""Tests for checkpoint serialization."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.quant.groups import GroupSpec
from repro.quant.io import load_packed, load_quantized, save_packed, save_quantized
from repro.quant.packing import PackDim, PackSpec, pack, unpack
from repro.quant.rtn import quantize_rtn


def _qm(symmetric=False, bits=4):
    w = np.random.default_rng(0).normal(size=(64, 16))
    return quantize_rtn(w, bits=bits, group=GroupSpec(16, 4), symmetric=symmetric)


class TestCheckpointIo:
    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("bits", [4, 2])
    def test_quantized_roundtrip(self, tmp_path, symmetric, bits):
        qm = _qm(symmetric, bits)
        path = tmp_path / "w.npz"
        save_quantized(path, qm)
        loaded = load_quantized(path)
        assert np.array_equal(loaded.codes, qm.codes)
        assert np.array_equal(loaded.scales, qm.scales)
        assert np.array_equal(loaded.zeros, qm.zeros)
        assert loaded.group == qm.group
        assert loaded.bits == qm.bits
        assert loaded.symmetric == qm.symmetric

    @pytest.mark.parametrize("dim", [PackDim.K, PackDim.N])
    def test_packed_roundtrip(self, tmp_path, dim):
        qm = _qm()
        packed = pack(qm.signed_codes(), PackSpec(4, dim))
        path = tmp_path / "p.npz"
        save_packed(path, packed)
        loaded = load_packed(path)
        assert np.array_equal(loaded.words, packed.words)
        assert loaded.spec == packed.spec
        assert (loaded.k_dim, loaded.n_dim) == (packed.k_dim, packed.n_dim)

    def test_kind_mismatch_rejected(self, tmp_path):
        qm = _qm()
        path = tmp_path / "w.npz"
        save_quantized(path, qm)
        with pytest.raises(QuantizationError):
            load_packed(path)

    def test_loaded_checkpoint_executes(self, tmp_path):
        from repro.core.gemm import hyper_gemm

        qm = _qm()
        path = tmp_path / "w.npz"
        save_quantized(path, qm)
        loaded = load_quantized(path)
        a = np.random.default_rng(1).normal(size=(2, 64))
        assert np.array_equal(hyper_gemm(a, loaded), hyper_gemm(a, qm))

    @pytest.mark.parametrize("bits", [4, 2])
    def test_symmetric_packed_roundtrip(self, tmp_path, bits):
        qm = _qm(symmetric=True, bits=bits)
        packed = pack(qm.signed_codes(), PackSpec(bits, PackDim.N))
        path = tmp_path / "p.npz"
        save_packed(path, packed)
        loaded = load_packed(path)
        assert np.array_equal(loaded.words, packed.words)
        assert np.array_equal(unpack(loaded), qm.signed_codes())


class TestCheckpointVersioning:
    @pytest.mark.parametrize("version", [0, 2, 99])
    def test_quantized_version_mismatch_rejected(self, tmp_path, version):
        path = tmp_path / "w.npz"
        np.savez(path, kind="quantized", version=version)
        with pytest.raises(QuantizationError, match=f"version {version}"):
            load_quantized(path)

    def test_packed_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "p.npz"
        np.savez(path, kind="packed", version=99)
        with pytest.raises(QuantizationError, match="version 99"):
            load_packed(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "w.npz"
        np.savez(path, kind="quantized")
        with pytest.raises(QuantizationError, match="version"):
            load_quantized(path)
