"""Unit tests for PIT (Eq. 5) and Structured Sparsity Conversion (§3.2)."""

import numpy as np
import pytest

from repro.core.conversion import convert_to_24
from repro.core.morphing import MorphConfig, morph_kernel_matrix, morph_stencil
from repro.core.pit import apply_pit, invert_permutation, pad_operands
from repro.core.staircase import block_structure_from_morph
from repro.stencils.pattern import StencilPattern
from repro.tcu.sparsity24 import is_24_sparse
from repro.util.validation import ValidationError


class TestPadOperands:
    def test_zero_columns_appended_to_a(self, rng):
        a = rng.random((3, 5))
        a_pad, _ = pad_operands(a, None, 8)
        assert a_pad.shape == (3, 8)
        assert np.all(a_pad[:, 5:] == 0.0)
        assert np.array_equal(a_pad[:, :5], a)

    def test_zero_rows_appended_to_b(self, rng):
        a = rng.random((3, 5))
        b = rng.random((5, 4))
        a_pad, b_pad = pad_operands(a, b, 8)
        assert b_pad.shape == (8, 4)
        assert np.all(b_pad[5:, :] == 0.0)

    def test_padding_preserves_product(self, rng):
        a, b = rng.random((3, 5)), rng.random((5, 4))
        a_pad, b_pad = pad_operands(a, b, 12)
        assert np.allclose(a_pad @ b_pad, a @ b)

    def test_shrinking_rejected(self, rng):
        with pytest.raises(ValidationError):
            pad_operands(rng.random((3, 5)), None, 4)

    def test_mismatched_b_rejected(self, rng):
        with pytest.raises(ValidationError):
            pad_operands(rng.random((3, 5)), rng.random((6, 4)), 8)


class TestApplyPIT:
    def test_product_invariant_under_shared_permutation(self, rng):
        # Eq. 5: A @ B is unchanged by any shared K permutation.
        a, b = rng.random((4, 10)), rng.random((10, 6))
        perm = rng.permutation(10)
        a_p, b_p = apply_pit(a, b, perm)
        assert np.allclose(a_p @ b_p, a @ b)

    def test_permutes_columns_and_rows_consistently(self, rng):
        a, b = rng.random((2, 4)), rng.random((4, 3))
        perm = np.array([3, 1, 0, 2])
        a_p, b_p = apply_pit(a, b, perm)
        assert np.array_equal(a_p[:, 0], a[:, 3])
        assert np.array_equal(b_p[0, :], b[3, :])

    def test_b_optional(self, rng):
        a = rng.random((2, 4))
        a_p, b_p = apply_pit(a, None, np.array([1, 0, 3, 2]))
        assert b_p is None
        assert a_p.shape == a.shape

    def test_invalid_permutation_rejected(self, rng):
        a = rng.random((2, 4))
        with pytest.raises(ValidationError):
            apply_pit(a, None, np.array([0, 0, 1, 2]))

    def test_wrong_length_rejected(self, rng):
        with pytest.raises(ValidationError):
            apply_pit(rng.random((2, 4)), None, np.array([0, 1, 2]))

    def test_invert_permutation(self, rng):
        perm = rng.permutation(12)
        inv = invert_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(12))
        assert np.array_equal(inv[perm], np.arange(12))


class TestConvertTo24:
    @pytest.mark.parametrize("kind,radius,r1,r2", [
        ("box", 1, 4, 4), ("box", 2, 4, 2), ("box", 3, 4, 4),
        ("star", 1, 4, 4), ("star", 2, 8, 2), ("star", 3, 6, 3),
    ])
    def test_converted_matrix_is_24_sparse(self, kind, radius, r1, r2):
        pattern = getattr(StencilPattern, kind)(2, radius)
        cfg = MorphConfig.from_r1_r2(2, r1, r2)
        a_prime = morph_kernel_matrix(pattern, cfg)
        structure = block_structure_from_morph(pattern, cfg)
        conversion = convert_to_24(a_prime, structure=structure)
        assert is_24_sparse(conversion.a_converted)

    def test_hierarchical_used_when_structure_given(self, box2d9p):
        cfg = MorphConfig.from_r1_r2(2, 4, 4)
        a_prime = morph_kernel_matrix(box2d9p, cfg)
        structure = block_structure_from_morph(box2d9p, cfg)
        conversion = convert_to_24(a_prime, structure=structure, method="auto")
        assert conversion.method == "hierarchical"

    def test_blossom_used_without_structure(self, box2d9p):
        a_prime = morph_kernel_matrix(box2d9p, MorphConfig.from_r1_r2(2, 4, 4))
        conversion = convert_to_24(a_prime, method="auto")
        assert conversion.method == "blossom"
        assert is_24_sparse(conversion.a_converted)

    def test_explicit_hierarchical_without_structure_rejected(self, box2d9p):
        a_prime = morph_kernel_matrix(box2d9p, MorphConfig.from_r1_r2(2, 4, 4))
        with pytest.raises(ValidationError):
            convert_to_24(a_prime, method="hierarchical")

    def test_auto_falls_back_to_blossom_for_non_staircase(self, rng):
        # A random dense-ish matrix is not staircase; the hierarchical pairing
        # would conflict, so auto must fall back to blossom and still succeed.
        matrix = (rng.random((4, 12)) < 0.5).astype(float)
        from repro.core.staircase import BlockStructure
        structure = BlockStructure(n_columns=12, block_size=4, k=2)
        conversion = convert_to_24(matrix, structure=structure, method="auto")
        assert conversion.method in ("hierarchical", "blossom")
        assert is_24_sparse(conversion.a_converted)

    def test_product_preserved_through_conversion(self, box2d49p, rng):
        data = rng.random((24, 26))
        cfg = MorphConfig.from_r1_r2(2, 4, 4)
        morph = morph_stencil(box2d49p, data, cfg)
        structure = block_structure_from_morph(box2d49p, cfg)
        conversion = convert_to_24(morph.a_prime, structure=structure)
        b_converted = conversion.apply_to_b(morph.b_prime)
        assert np.allclose(conversion.a_converted @ b_converted,
                           morph.a_prime @ morph.b_prime)

    def test_apply_to_b_shape_checked(self, box2d9p, rng):
        cfg = MorphConfig.from_r1_r2(2, 4, 4)
        a_prime = morph_kernel_matrix(box2d9p, cfg)
        structure = block_structure_from_morph(box2d9p, cfg)
        conversion = convert_to_24(a_prime, structure=structure)
        with pytest.raises(ValidationError):
            conversion.apply_to_b(rng.random((conversion.n_original + 1, 3)))

    def test_scatter_rows_consistent_with_permutation(self, box2d9p):
        cfg = MorphConfig.from_r1_r2(2, 4, 2)
        a_prime = morph_kernel_matrix(box2d9p, cfg)
        structure = block_structure_from_morph(box2d9p, cfg)
        conversion = convert_to_24(a_prime, structure=structure)
        scatter = conversion.scatter_rows
        for original, slot in enumerate(scatter):
            assert conversion.permutation[slot] == original
        # computed once and shared, so callers must not be able to mutate it
        assert conversion.scatter_rows is scatter
        assert not scatter.flags.writeable

    def test_padded_column_count_multiple_of_4(self, box2d49p):
        cfg = MorphConfig.from_r1_r2(2, 6, 3)
        a_prime = morph_kernel_matrix(box2d49p, cfg)
        structure = block_structure_from_morph(box2d49p, cfg)
        conversion = convert_to_24(a_prime, structure=structure)
        assert conversion.n_total % 4 == 0
        assert conversion.n_pad == conversion.n_total - conversion.n_original

    def test_nonzero_count_preserved(self, box2d9p):
        cfg = MorphConfig.from_r1_r2(2, 4, 4)
        a_prime = morph_kernel_matrix(box2d9p, cfg)
        structure = block_structure_from_morph(box2d9p, cfg)
        conversion = convert_to_24(a_prime, structure=structure)
        assert np.count_nonzero(conversion.a_converted) == np.count_nonzero(a_prime)

    def test_sparsity_reported(self, box2d9p):
        cfg = MorphConfig.from_r1_r2(2, 4, 4)
        a_prime = morph_kernel_matrix(box2d9p, cfg)
        structure = block_structure_from_morph(box2d9p, cfg)
        conversion = convert_to_24(a_prime, structure=structure)
        assert 0.0 < conversion.sparsity() < 1.0

    def test_unknown_method_rejected(self, box2d9p):
        a_prime = morph_kernel_matrix(box2d9p, MorphConfig.from_r1_r2(2, 2, 2))
        with pytest.raises(ValidationError):
            convert_to_24(a_prime, method="quantum")
