"""Unit tests for temporal fusion, sparse metadata packing and lookup tables."""

import numpy as np
import pytest
from scipy.signal import convolve

from repro.core.fusion import fuse_pattern, fused_iterations
from repro.core.lookup_table import build_lookup_table, gather_b_matrix
from repro.core.metadata import build_metadata, pack_indices, unpack_indices
from repro.core.morphing import MorphConfig, morph_input_matrix, morph_kernel_matrix
from repro.core.conversion import convert_to_24
from repro.core.staircase import block_structure_from_morph
from repro.stencils.catalog import full_catalog
from repro.stencils.pattern import StencilPattern
from repro.stencils.reference import apply_stencil_reference, run_stencil_iterations
from repro.stencils.grid import make_grid
from repro.util.validation import ValidationError
from tests.conftest import make_24_sparse


class TestFusePattern:
    def test_single_step_returns_same_pattern(self, heat2d):
        assert fuse_pattern(heat2d, 1) is heat2d

    def test_fused_diameter(self, heat2d):
        fused = fuse_pattern(heat2d, 3)
        assert fused.diameter == 3 * (heat2d.diameter - 1) + 1

    def test_fused_equals_repeated_application(self, heat2d, rng):
        data = rng.random((20, 22))
        fused = fuse_pattern(heat2d, 3)
        direct = apply_stencil_reference(fused, data)
        step = apply_stencil_reference(heat2d, data)
        step = apply_stencil_reference(heat2d, step)
        step = apply_stencil_reference(heat2d, step)
        assert np.allclose(direct, step)

    def test_fused_1d(self, heat1d, rng):
        data = rng.random(50)
        fused = fuse_pattern(heat1d, 2)
        direct = apply_stencil_reference(fused, data)
        step = apply_stencil_reference(heat1d, apply_stencil_reference(heat1d, data))
        assert np.allclose(direct, step)

    def test_metadata_records_fusion(self, heat2d):
        assert fuse_pattern(heat2d, 3).metadata["temporal_fusion"] == 3

    def test_fused_iterations_split(self):
        assert fused_iterations(9, 3) == (3, 0)
        assert fused_iterations(10, 3) == (3, 1)
        assert fused_iterations(5, 1) == (5, 0)


#: Largest difference, in ULPs of each weight, between a fused 1-D kernel
#: and scipy's (3 measured).  For 1-D input scipy calls ``np.convolve``,
#: which sums its edge outputs with a BLAS dot product, fused multiply-adds
#: on FMA hosts; 2-D and 3-D kernels must match bit for bit.
FUSED_1D_ULPS = 4


def _taps(dense: np.ndarray) -> dict:
    radius = np.asarray(dense.shape) // 2
    return {tuple(int(i) for i in index - radius): dense[tuple(index)]
            for index in np.argwhere(dense)}


class TestFusionOracle:
    @pytest.mark.parametrize("pattern", full_catalog(),
                             ids=[p.name for p in full_catalog()])
    def test_matches_scipy_direct_convolution(self, pattern):
        dense = pattern.to_dense()
        expected = dense
        for times in (2, 3, 4):
            expected = convolve(expected, dense, mode="full", method="direct")
            want = _taps(expected)
            fused = fuse_pattern(pattern, times)
            got = dict(zip(fused.offsets, fused.weights))
            assert got.keys() == want.keys(), times
            got = np.array([got[tap] for tap in want])
            want = np.array(list(want.values()))
            if pattern.ndim == 1:
                assert np.all(np.abs(got - want)
                              <= FUSED_1D_ULPS * np.spacing(np.abs(want)))
            else:
                assert got.tobytes() == want.tobytes(), times


class TestMetadataPacking:
    def test_pack_unpack_roundtrip(self, rng):
        indices = rng.integers(0, 4, size=(8, 24)).astype(np.uint8)
        words = pack_indices(indices)
        assert np.array_equal(unpack_indices(words, 24), indices)

    def test_word_count(self):
        indices = np.zeros((4, 16), dtype=np.uint8)
        assert pack_indices(indices).shape == (4, 1)
        indices = np.zeros((4, 17), dtype=np.uint8)
        assert pack_indices(indices).shape == (4, 2)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValidationError):
            pack_indices(np.full((2, 4), 5, dtype=np.uint8))

    def test_build_metadata_roundtrip(self, rng):
        matrix = make_24_sparse(rng, 16, 32)
        metadata = build_metadata(matrix)
        assert metadata.roundtrip_ok()
        assert metadata.nbytes == metadata.packed_words.nbytes

    def test_build_metadata_on_converted_kernel(self, box2d9p):
        cfg = MorphConfig.from_r1_r2(2, 4, 4)
        a_prime = morph_kernel_matrix(box2d9p, cfg)
        conversion = convert_to_24(
            a_prime, structure=block_structure_from_morph(box2d9p, cfg))
        metadata = build_metadata(conversion.a_converted)
        assert metadata.roundtrip_ok()
        assert metadata.values.shape[1] == conversion.n_total // 2


class TestLookupTable:
    @pytest.mark.parametrize("shape,r1,r2", [
        ((20, 22), 4, 2), ((17, 19), 5, 3), ((30,), 8, 1), ((10, 11, 12), 4, 2),
    ])
    def test_gather_matches_direct_morph(self, shape, r1, r2, rng):
        ndim = len(shape)
        pattern = StencilPattern.box(ndim, 1)
        cfg = MorphConfig.from_r1_r2(ndim, r1, r2)
        data = rng.random(shape)
        lut = build_lookup_table(pattern, shape, cfg)
        gathered = gather_b_matrix(lut, data)
        direct, _, _, _ = morph_input_matrix(pattern, data, cfg)
        assert np.allclose(gathered, direct)

    def test_table_sizes(self, box2d9p):
        cfg = MorphConfig.from_r1_r2(2, 4, 2)
        lut = build_lookup_table(box2d9p, (18, 18), cfg)
        assert lut.patch_offset.shape[0] == lut.k_prime == (3 + 1) * (3 + 3)
        assert lut.column_base.shape[0] == lut.n_prime == (16 // 2) * (16 // 4)
        assert lut.nbytes == 4 * (lut.k_prime + lut.n_prime)

    def test_wrong_grid_shape_rejected(self, box2d9p, rng):
        lut = build_lookup_table(box2d9p, (18, 18), MorphConfig.from_r1_r2(2, 4, 2))
        with pytest.raises(ValidationError):
            gather_b_matrix(lut, rng.random((20, 20)))

    def test_offsets_are_int32(self, box2d9p):
        lut = build_lookup_table(box2d9p, (18, 18), MorphConfig.from_r1_r2(2, 4, 2))
        assert lut.column_base.dtype == np.int32
        assert lut.patch_offset.dtype == np.int32

    def test_geometry_recorded(self, box2d9p):
        lut = build_lookup_table(box2d9p, (18, 20), MorphConfig.from_r1_r2(2, 4, 3))
        assert lut.out_shape == (16, 18)
        assert lut.tile_grid == (6, 5)
        assert lut.padded_out_shape == (18, 20)
