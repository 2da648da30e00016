"""Property-based tests for 2:4 conversion, PIT and the sparse MMA model,
and for the layout search's conversion-free depth estimate."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import get_benchmark
from repro.core.conversion import (
    BLOSSOM_COLUMN_LIMIT,
    convert_to_24,
    padded_depth,
    select_matching,
)
from repro.core.layout_search import default_search_space, search_layout
from repro.core.matching import exact_matching, matching_to_permutation
from repro.core.morphing import MorphConfig, morph_kernel_matrix
from repro.core.perf_model import estimate_layout
from repro.core.pipeline import compile_stencil
from repro.core.pit import apply_pit
from repro.core.staircase import block_structure_from_morph
from repro.core.metadata import pack_indices, unpack_indices
from repro.stencils.catalog import full_catalog
from repro.stencils.pattern import StencilPattern
from repro.tcu.sparse_mma import sparse_mma
from repro.tcu.sparsity24 import compress_24, decompress_24, is_24_sparse
from repro.tcu.spec import SPARSE_FRAGMENTS, DataType
from repro.util.validation import ValidationError
from tests.matching_oracle import blossom_matching

SETTINGS = dict(max_examples=30, deadline=None)


@st.composite
def sparse_24_matrix(draw):
    """A random matrix satisfying the 2:4 constraint."""
    m = draw(st.integers(min_value=1, max_value=24))
    groups = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(m, groups, 4))
    for i in range(m):
        for g in range(groups):
            drop = rng.choice(4, 2, replace=False)
            matrix[i, g, drop] = 0.0
    return matrix.reshape(m, 4 * groups)


@st.composite
def random_sparsity_matrix(draw):
    """An arbitrary random-sparsity matrix (not necessarily staircase)."""
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=2, max_value=20))
    density = draw(st.floats(min_value=0.05, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(m, n)) * (rng.random((m, n)) < density)
    return matrix


class TestCompressionProperties:
    @given(matrix=sparse_24_matrix())
    @settings(**SETTINGS)
    def test_compress_decompress_roundtrip(self, matrix):
        assert np.allclose(decompress_24(compress_24(matrix)), matrix)

    @given(matrix=sparse_24_matrix())
    @settings(**SETTINGS)
    def test_sparse_mma_matches_dense_product(self, matrix):
        rng = np.random.default_rng(0)
        b = rng.random((matrix.shape[1], 7))
        result = sparse_mma(matrix, b, SPARSE_FRAGMENTS[0], dtype=DataType.TF32)
        assert np.allclose(result.d, matrix @ b, rtol=1e-4, atol=1e-4)

    @given(m=st.integers(min_value=1, max_value=16),
           half_k=st.integers(min_value=1, max_value=40),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(**SETTINGS)
    def test_metadata_pack_roundtrip(self, m, half_k, seed):
        indices = np.random.default_rng(seed).integers(0, 4, size=(m, half_k)).astype(np.uint8)
        assert np.array_equal(unpack_indices(pack_indices(indices), half_k), indices)


class TestPITProperties:
    @given(m=st.integers(min_value=1, max_value=10),
           k=st.integers(min_value=1, max_value=30),
           n=st.integers(min_value=1, max_value=10),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(**SETTINGS)
    def test_product_invariance(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        perm = rng.permutation(k)
        a_p, b_p = apply_pit(a, b, perm)
        assert np.allclose(a_p @ b_p, a @ b, atol=1e-10)


class TestConversionProperties:
    @given(radius=st.integers(min_value=1, max_value=3),
           kind=st.sampled_from(["star", "box"]),
           r1=st.integers(min_value=1, max_value=8),
           r2=st.integers(min_value=1, max_value=6))
    @settings(**SETTINGS)
    def test_morphed_kernels_always_convert(self, radius, kind, r1, r2):
        pattern = getattr(StencilPattern, kind)(2, radius)
        config = MorphConfig.from_r1_r2(2, r1, r2)
        a_prime = morph_kernel_matrix(pattern, config)
        structure = block_structure_from_morph(pattern, config)
        conversion = convert_to_24(a_prime, structure=structure)
        assert is_24_sparse(conversion.a_converted)
        assert np.count_nonzero(conversion.a_converted) == np.count_nonzero(a_prime)
        # the product is preserved for an arbitrary B'
        rng = np.random.default_rng(7)
        b = rng.random((a_prime.shape[1], 5))
        assert np.allclose(conversion.a_converted @ conversion.apply_to_b(b),
                           a_prime @ b, atol=1e-10)

    @given(matrix=random_sparsity_matrix())
    @settings(**SETTINGS)
    def test_blossom_conversion_works_on_arbitrary_sparsity(self, matrix):
        conversion = convert_to_24(matrix, method="blossom")
        assert is_24_sparse(conversion.a_converted)
        rng = np.random.default_rng(3)
        b = rng.random((matrix.shape[1], 4))
        assert np.allclose(conversion.a_converted @ conversion.apply_to_b(b),
                           matrix @ b, atol=1e-9)

    @given(matrix=random_sparsity_matrix())
    @settings(**SETTINGS)
    def test_blossom_matching_validity(self, matrix):
        matching = exact_matching(matrix)
        assert matching.n_pad == blossom_matching(matrix).n_pad
        assert matching.is_cover()
        assert matching.is_conflict_free(matrix)
        order, n_total = matching_to_permutation(matching)
        assert n_total % 4 == 0
        assert sorted(order.tolist()) == list(range(n_total))


#: Grid per dimensionality for the estimate checks; only ``n'`` depends on it.
ESTIMATE_GRIDS = {1: (4096,), 2: (256, 256), 3: (64, 64, 64)}


def assert_estimates_match_conversion(pattern):
    """Over every default candidate, the search's depth and sparsity are the
    ones the real conversion produces."""
    for r1, r2 in default_search_space(pattern):
        config = MorphConfig.from_r1_r2(pattern.ndim, r1, r2)
        estimate = estimate_layout(pattern, ESTIMATE_GRIDS[pattern.ndim],
                                   config)
        conversion = convert_to_24(
            morph_kernel_matrix(pattern, config),
            structure=block_structure_from_morph(pattern, config))
        assert (estimate.k_padded, estimate.sparsity) == \
            (conversion.n_total, conversion.sparsity()), (pattern.name, r1, r2)


class TestConversionFreeEstimate:
    @pytest.mark.parametrize("name", ["Heat-3D", "Box-3D27P", "Box-2D49P"])
    def test_estimate_matches_conversion(self, name):
        assert_estimates_match_conversion(get_benchmark(name).pattern)

    @pytest.mark.slow
    @pytest.mark.parametrize("pattern", full_catalog(),
                             ids=[p.name for p in full_catalog()])
    def test_estimate_matches_conversion_over_catalog(self, pattern):
        assert_estimates_match_conversion(pattern)

    @given(matrix=random_sparsity_matrix(),
           method=st.sampled_from(["auto", "greedy", "blossom"]))
    @settings(**SETTINGS)
    def test_padded_depth_matches_conversion(self, matrix, method):
        assert padded_depth(matrix, method=method) == \
            convert_to_24(matrix, method=method).n_total

    @pytest.mark.parametrize("name,method", [("Box-3D27P", "blossom"),
                                             ("Heat-3D", "hierarchical")])
    def test_one_compile_never_imports_networkx(self, monkeypatch, name,
                                                method):
        # a None entry in sys.modules makes any `import networkx` raise
        monkeypatch.setitem(sys.modules, "networkx", None)
        compiled = compile_stencil(get_benchmark(name).pattern, (24, 24, 24))
        # Box-3D27P's winner converts with Blossom; Heat-3D's is staircase
        assert compiled.plan.conversion.method == method

    def test_auto_runs_blossom_up_to_the_column_limit(self):
        for columns, solver in ((BLOSSOM_COLUMN_LIMIT, "blossom"),
                                (BLOSSOM_COLUMN_LIMIT + 1, "greedy")):
            assert select_matching(np.eye(columns), None, "auto") == \
                (solver, None)

    def test_hierarchical_on_non_staircase_still_rejected(self):
        pattern = get_benchmark("Box-3D27P").pattern
        with pytest.raises(ValidationError, match="not k-staircase"):
            search_layout(pattern, (24, 24, 24),
                          conversion_method="hierarchical")

    def test_hierarchical_without_structure_still_rejected(self):
        with pytest.raises(ValidationError, match="requires a block structure"):
            padded_depth(np.eye(4), method="hierarchical")
