"""Unit tests for the simulated-GPU specification."""

import numpy as np
import pytest

from repro.tcu.spec import (
    A100_SPEC,
    DENSE_FRAGMENTS,
    SPARSE_FRAGMENTS,
    DataType,
    FragmentShape,
    GPUSpec,
    device_key,
)
from repro.util.validation import ValidationError


class TestDataType:
    @pytest.mark.parametrize("dtype,size", [
        (DataType.FP16, 2), (DataType.BF16, 2), (DataType.TF32, 4), (DataType.FP64, 8),
    ])
    def test_itemsize(self, dtype, size):
        assert dtype.itemsize == size

    def test_sparse_support(self):
        assert DataType.FP16.supports_sparse_tcu
        assert DataType.BF16.supports_sparse_tcu
        assert DataType.TF32.supports_sparse_tcu
        assert not DataType.FP64.supports_sparse_tcu

    def test_numpy_dtype_mapping(self):
        assert DataType.FP16.numpy_dtype == np.float16
        assert DataType.FP64.numpy_dtype == np.float64

    def test_construct_from_string(self):
        assert DataType("fp16") is DataType.FP16


class TestFragmentShape:
    def test_macs(self):
        assert FragmentShape(16, 16, 8).macs == 16 * 16 * 8

    def test_label_distinguishes_sparse(self):
        assert FragmentShape(16, 32, 8, sparse=True).label.startswith("sp:")
        assert FragmentShape(16, 16, 16).label.startswith("dn:")

    def test_sparse_requires_k_multiple_of_4(self):
        with pytest.raises(ValidationError):
            FragmentShape(16, 6, 8, sparse=True)

    def test_as_tuple(self):
        assert FragmentShape(16, 32, 8).as_tuple() == (16, 32, 8)

    def test_paper_fragment_shapes_available(self):
        shapes = {f.as_tuple() for f in SPARSE_FRAGMENTS}
        assert (16, 16, 8) in shapes
        assert (16, 32, 8) in shapes

    def test_dense_fragments_are_dense(self):
        assert all(not f.sparse for f in DENSE_FRAGMENTS)


class TestGPUSpec:
    def test_a100_characteristics(self):
        assert A100_SPEC.sm_count == 108
        assert A100_SPEC.tensor_cores_per_sm == 4
        assert A100_SPEC.n_tcu == 432

    def test_sparse_is_twice_dense(self):
        for dtype in (DataType.FP16, DataType.BF16, DataType.TF32):
            assert A100_SPEC.sparse_tcu_tflops(dtype) == pytest.approx(
                2.0 * A100_SPEC.dense_tcu_tflops(dtype))

    def test_fp64_has_no_sparse_path(self):
        with pytest.raises(ValidationError):
            A100_SPEC.sparse_tcu_tflops(DataType.FP64)

    def test_fp16_dense_peak_matches_datasheet(self):
        assert A100_SPEC.dense_tcu_tflops(DataType.FP16) == pytest.approx(312.0)

    def test_with_overrides_returns_new_spec(self):
        custom = A100_SPEC.with_overrides(sm_count=64)
        assert custom.sm_count == 64
        assert A100_SPEC.sm_count == 108
        assert isinstance(custom, GPUSpec)

    def test_clock_hz(self):
        assert A100_SPEC.clock_hz == pytest.approx(1.41e9)


class TestDeviceKey:
    def test_equal_content_shares_a_key(self):
        assert device_key(GPUSpec()) == device_key(A100_SPEC)
        hash(device_key(A100_SPEC))

    @pytest.mark.parametrize("a, b", [
        (dict(clock_ghz=1.0), dict(clock_ghz=1)),
        (dict(ffma_tflops=0.0), dict(ffma_tflops=-0.0)),
        (dict(sm_count=108), dict(sm_count=107)),
        (dict(tcu_tflops={"fp16": 312.0}), dict(tcu_tflops={"fp16": 312})),
    ])
    def test_type_or_bits_apart_means_keys_apart(self, a, b):
        assert (device_key(A100_SPEC.with_overrides(**a))
                != device_key(A100_SPEC.with_overrides(**b)))
