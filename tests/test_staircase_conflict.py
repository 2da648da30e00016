"""Unit tests for the k-staircase property and the conflict graphs (§3.2)."""

import numpy as np
import pytest

from repro.core.conflict import conflict_matrix
from repro.core.conversion import convert_to_24
from repro.core.morphing import MorphConfig, morph_kernel_matrix
from repro.core.staircase import (
    BlockStructure,
    block_structure_from_morph,
    is_staircase,
    staircase_bandwidth,
)
from repro.stencils.pattern import StencilPattern
from repro.util.validation import ValidationError


def staircase_matrix(n: int, k: int) -> np.ndarray:
    """Definition 4 k-staircase matrix with ones in the band."""
    matrix = np.zeros((n, n + k - 1))
    for row in range(n):
        matrix[row, row:row + k] = 1.0
    return matrix


class TestIsStaircase:
    def test_canonical_staircase(self):
        assert is_staircase(staircase_matrix(5, 3), 3)

    def test_smaller_bandwidth_fails(self):
        assert not is_staircase(staircase_matrix(5, 3), 2)

    def test_larger_bandwidth_passes(self):
        assert is_staircase(staircase_matrix(5, 3), 4)

    def test_zero_matrix_is_trivially_staircase(self):
        assert is_staircase(np.zeros((3, 5)), 1)

    def test_lower_triangular_entry_fails(self):
        matrix = staircase_matrix(4, 2)
        matrix[3, 0] = 1.0
        assert not is_staircase(matrix, 2)


class TestStaircaseBandwidth:
    def test_exact_bandwidth(self):
        assert staircase_bandwidth(staircase_matrix(6, 4)) == 4

    def test_zero_matrix(self):
        assert staircase_bandwidth(np.zeros((2, 2))) == 1

    def test_none_for_non_staircase(self):
        matrix = np.zeros((3, 3))
        matrix[2, 0] = 1.0
        assert staircase_bandwidth(matrix) is None

    def test_1d_morphed_kernel_has_bandwidth_k(self, heat1d):
        a_prime = morph_kernel_matrix(heat1d, MorphConfig(r=(6,)))
        assert staircase_bandwidth(a_prime) == heat1d.diameter


class TestBlockStructure:
    def test_divisibility_enforced(self):
        with pytest.raises(ValidationError):
            BlockStructure(n_columns=10, block_size=4, k=3)

    def test_block_lookup(self):
        structure = BlockStructure(n_columns=12, block_size=4, k=3)
        assert structure.n_blocks == 3
        assert structure.block_of(0) == 0
        assert structure.block_of(7) == 1
        assert list(structure.columns_of_block(2)) == [8, 9, 10, 11]

    def test_out_of_range_rejected(self):
        structure = BlockStructure(n_columns=8, block_size=4, k=3)
        with pytest.raises(ValidationError):
            structure.block_of(8)
        with pytest.raises(ValidationError):
            structure.columns_of_block(2)

    def test_from_morph_2d(self, box2d9p):
        cfg = MorphConfig.from_r1_r2(2, 4, 2)
        structure = block_structure_from_morph(box2d9p, cfg)
        assert structure.block_size == 3 + 4 - 1
        assert structure.n_columns == (3 + 2 - 1) * (3 + 4 - 1)
        assert structure.k == 3

    def test_from_morph_1d(self, heat1d):
        structure = block_structure_from_morph(heat1d, MorphConfig(r=(5,)))
        assert structure.n_blocks == 1
        assert structure.block_size == 7


class TestConflictMatrix:
    def test_columns_sharing_a_row_conflict(self):
        matrix = np.array([[1.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0]])
        adjacency = conflict_matrix(matrix)
        assert adjacency[0, 1] and adjacency[1, 0]
        assert not adjacency[0, 2]
        assert not np.any(np.diag(adjacency))

    def test_staircase_theorem1(self):
        # Theorem 1: columns >= k apart never conflict in a k-staircase matrix.
        k = 3
        matrix = staircase_matrix(6, k)
        adjacency = conflict_matrix(matrix)
        n = adjacency.shape[1]
        for i in range(n):
            for j in range(i + k, n):
                assert not adjacency[i, j]

    def test_adjacent_staircase_columns_conflict(self):
        matrix = staircase_matrix(6, 3)
        adjacency = conflict_matrix(matrix)
        assert adjacency[0, 1]


def block_adjacency(adjacency: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """Global conflict graph over column blocks: blocks conflict when any of
    their columns do."""
    n_blocks, g = structure.n_blocks, structure.block_size
    return adjacency.reshape(n_blocks, g, n_blocks, g).any(axis=(1, 3))


class TestConflictGraph:
    def test_nodes_present_even_when_isolated(self):
        adjacency = conflict_matrix(np.array([[1.0, 0.0, 0.0]]))
        assert adjacency.shape == (3, 3)
        assert not adjacency.any()

    def test_edge_set_matches_matrix(self, box2d9p):
        a_prime = morph_kernel_matrix(box2d9p, MorphConfig.from_r1_r2(2, 4, 2))
        adjacency = conflict_matrix(a_prime)
        assert np.array_equal(adjacency, adjacency.T)
        nonzero = a_prime != 0
        for u, v in np.ndindex(adjacency.shape):
            shared = u != v and bool(np.any(nonzero[:, u] & nonzero[:, v]))
            assert adjacency[u, v] == shared


class TestTwoLevelConflictGraphs:
    def test_local_graphs_isomorphic_for_self_similar_staircase(self, box2d9p):
        # Figure 5(b): every block's local conflict graph is the same
        cfg = MorphConfig.from_r1_r2(2, 4, 4)
        a_prime = morph_kernel_matrix(box2d9p, cfg)
        structure = block_structure_from_morph(box2d9p, cfg)
        adjacency = conflict_matrix(a_prime)
        g = structure.block_size
        locals_ = [adjacency[b * g:(b + 1) * g, b * g:(b + 1) * g]
                   for b in range(structure.n_blocks)]
        assert len(locals_) == structure.n_blocks > 1
        for local in locals_[1:]:
            assert np.array_equal(local, locals_[0])

    def test_global_graph_respects_staircase(self, box2d9p):
        cfg = MorphConfig.from_r1_r2(2, 4, 4)
        a_prime = morph_kernel_matrix(box2d9p, cfg)
        structure = block_structure_from_morph(box2d9p, cfg)
        blocks = block_adjacency(conflict_matrix(a_prime), structure)
        k = box2d9p.diameter
        assert blocks.any()
        for u, v in zip(*np.nonzero(blocks)):
            assert u == v or abs(u - v) < k

    def test_column_count_mismatch_rejected(self, box2d9p):
        a_prime = morph_kernel_matrix(box2d9p, MorphConfig.from_r1_r2(2, 4, 4))
        with pytest.raises(ValidationError):
            convert_to_24(a_prime, structure=BlockStructure(n_columns=12,
                                                            block_size=4, k=3))
