"""Unit tests for the greedy matching fallback and its use in conversion."""

import numpy as np
import pytest

from repro.core.conversion import convert_to_24
from repro.core.fusion import fuse_pattern
from repro.core.matching import greedy_matching
from repro.core.morphing import MorphConfig, morph_kernel_matrix
from repro.core.staircase import block_structure_from_morph
from repro.stencils.pattern import StencilPattern
from repro.tcu.sparsity24 import is_24_sparse
from tests.matching_oracle import blossom_matching


class TestGreedyMatching:
    def test_valid_cover_on_morphed_kernel(self, box2d9p):
        a_prime = morph_kernel_matrix(box2d9p, MorphConfig.from_r1_r2(2, 4, 4))
        matching = greedy_matching(a_prime)
        assert matching.method == "greedy"
        assert matching.is_cover()
        assert matching.is_conflict_free(a_prime)

    def test_valid_on_arbitrary_sparsity(self, rng):
        matrix = (rng.random((6, 20)) < 0.4).astype(float)
        matching = greedy_matching(matrix)
        assert matching.is_cover()
        assert matching.is_conflict_free(matrix)

    def test_no_conflicts_means_no_padding(self):
        matching = greedy_matching(np.eye(8))
        assert matching.n_pad == 0

    def test_dense_matrix_pads_everything(self):
        matching = greedy_matching(np.ones((2, 5)))
        assert matching.n_pad == 5

    def test_matches_blossom_padding_on_staircase(self, box2d49p):
        # On banded conflict structures the first-fit pairing is as good as
        # the optimal matching.
        a_prime = morph_kernel_matrix(box2d49p, MorphConfig.from_r1_r2(2, 8, 4))
        assert greedy_matching(a_prime).n_pad == blossom_matching(a_prime).n_pad

    def test_valid_for_3d_morphed_kernel(self, heat3d):
        # 3D tiles break the two-level staircase assumption; greedy is the
        # fallback the compiler relies on there.
        fused = fuse_pattern(heat3d, 2)
        a_prime = morph_kernel_matrix(fused, MorphConfig.from_r1_r2(3, 8, 4))
        matching = greedy_matching(a_prime)
        assert matching.is_cover()
        assert matching.is_conflict_free(a_prime)


class TestConversionMethodSelection:
    def test_explicit_greedy_method(self, box2d9p):
        a_prime = morph_kernel_matrix(box2d9p, MorphConfig.from_r1_r2(2, 4, 4))
        conversion = convert_to_24(a_prime, method="greedy")
        assert conversion.method == "greedy"
        assert is_24_sparse(conversion.a_converted)

    def test_auto_uses_greedy_for_large_non_staircase_matrices(self, heat3d):
        fused = fuse_pattern(heat3d, 3)
        config = MorphConfig.from_r1_r2(3, 8, 4)
        a_prime = morph_kernel_matrix(fused, config)
        assert a_prime.shape[1] > 256
        structure = block_structure_from_morph(fused, config)
        conversion = convert_to_24(a_prime, structure=structure, method="auto")
        # hierarchical if its pairing happens to be conflict-free for this
        # star-shaped kernel, greedy otherwise — never the cubic Blossom path
        assert conversion.method in ("hierarchical", "greedy")
        assert is_24_sparse(conversion.a_converted)

    def test_greedy_conversion_preserves_product(self, box2d49p, rng):
        a_prime = morph_kernel_matrix(box2d49p, MorphConfig.from_r1_r2(2, 6, 2))
        conversion = convert_to_24(a_prime, method="greedy")
        b = rng.random((a_prime.shape[1], 9))
        assert np.allclose(conversion.a_converted @ conversion.apply_to_b(b),
                           a_prime @ b)
