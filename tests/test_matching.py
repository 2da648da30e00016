"""Unit tests for the Hierarchical Two-Level Matching (Algorithm 1) and the
exact cardinality matcher behind the ``"blossom"`` conversion, checked
against networkx's Blossom."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.conflict import conflict_matrix
from repro.core.conversion import BLOSSOM_COLUMN_LIMIT
from repro.core.layout_search import default_search_space
from repro.core.matching import (
    MatchingResult,
    exact_matching,
    greedy_matching,
    hierarchical_matching,
    matching_to_permutation,
)
from repro.core.morphing import MorphConfig, morph_kernel_matrix
from repro.core.staircase import BlockStructure, block_structure_from_morph
from repro.stencils.catalog import table2_benchmarks
from repro.stencils.pattern import StencilPattern
from repro.util.validation import ValidationError
from tests.matching_oracle import blossom_matching


def _morph(pattern, r1, r2):
    cfg = MorphConfig.from_r1_r2(pattern.ndim, r1, r2)
    a_prime = morph_kernel_matrix(pattern, cfg)
    structure = block_structure_from_morph(pattern, cfg)
    return a_prime, structure


class TestHierarchicalMatching:
    @pytest.mark.parametrize("pattern_kind,radius,r1,r2", [
        ("box", 1, 4, 4), ("box", 1, 8, 2), ("box", 2, 4, 4), ("box", 3, 4, 2),
        ("star", 1, 4, 4), ("star", 2, 6, 3), ("star", 3, 8, 1),
    ])
    def test_valid_for_2d_morphed_kernels(self, pattern_kind, radius, r1, r2):
        pattern = getattr(StencilPattern, pattern_kind)(2, radius)
        a_prime, structure = _morph(pattern, r1, r2)
        matching = hierarchical_matching(structure)
        assert matching.is_cover()
        assert matching.is_conflict_free(a_prime)

    @pytest.mark.parametrize("r1", [2, 4, 8, 16, 32])
    def test_valid_for_1d_morphed_kernels(self, r1):
        pattern = StencilPattern.star(1, 1)
        cfg = MorphConfig(r=(r1,))
        a_prime = morph_kernel_matrix(pattern, cfg)
        structure = block_structure_from_morph(pattern, cfg)
        matching = hierarchical_matching(structure)
        assert matching.is_cover()
        assert matching.is_conflict_free(a_prime)

    def test_matched_pairs_at_least_k_apart(self, box2d9p):
        a_prime, structure = _morph(box2d9p, 4, 4)
        matching = hierarchical_matching(structure)
        for i, j in matching.pairs:
            if j is not None:
                assert abs(j - i) >= structure.k

    def test_linear_work(self, box2d49p):
        # every column appears exactly once -> the number of pair slots is
        # bounded by the column count (the O(|V|) claim of Theorem 2)
        a_prime, structure = _morph(box2d49p, 8, 4)
        matching = hierarchical_matching(structure)
        assert len(matching.covered_columns()) == structure.n_columns

    def test_theorem2_minimality_small_blocks(self):
        # k > g/2: each unmatched block can pair only g - k columns, leaving
        # 2k - g columns to be padded (Theorem 2's tight case).
        pattern = StencilPattern.box(2, 1)          # k = 3
        a_prime, structure = _morph(pattern, 2, 1)  # g = 4, single-block level
        matching = hierarchical_matching(structure)
        assert matching.is_conflict_free(a_prime)
        # g=4, k=3 -> at most 1 pair per block, 2 columns padded per block
        per_block_pad = 2 * structure.k - structure.block_size
        assert matching.n_pad == per_block_pad * structure.n_blocks

    def test_even_block_count_pairs_blocks(self):
        structure = BlockStructure(n_columns=24, block_size=6, k=1)
        matching = hierarchical_matching(structure)
        # k=1: no conflicts at all, perfect matching with zero padding
        assert matching.n_pad == 0
        assert matching.is_cover()


class TestBlossomMatching:
    """``exact_matching`` as the ``"blossom"`` fallback for arbitrary sparsity."""

    def test_valid_on_morphed_kernel(self, box2d9p):
        a_prime, _ = _morph(box2d9p, 4, 4)
        matching = exact_matching(a_prime)
        assert matching.is_cover()
        assert matching.is_conflict_free(a_prime)

    def test_handles_arbitrary_sparsity(self, rng):
        # random non-staircase sparsity: the fallback must still produce a
        # valid cover
        matrix = (rng.random((6, 10)) < 0.3).astype(float)
        matching = exact_matching(matrix)
        assert matching.is_cover()
        assert matching.is_conflict_free(matrix)
        assert matching.n_pad == blossom_matching(matrix).n_pad

    def test_fully_dense_matrix_pads_everything(self):
        matrix = np.ones((2, 6))
        matching = exact_matching(matrix)
        assert matching.is_cover()
        assert matching.n_pad == 6

    def test_no_conflicts_means_no_padding(self):
        matrix = np.eye(6)
        assert exact_matching(matrix).n_pad == 0
        assert blossom_matching(matrix).n_pad == 0

    def test_matches_hierarchical_padding_on_staircase(self, box2d9p):
        # On a true self-similar staircase Algorithm 1 and every maximum
        # matching need the same (minimal) number of zero columns.
        a_prime, structure = _morph(box2d9p, 4, 4)
        hier = hierarchical_matching(structure)
        assert hier.n_pad == exact_matching(a_prime).n_pad
        assert hier.n_pad == blossom_matching(a_prime).n_pad

    def test_oracle_is_a_valid_cover(self, rng):
        matrix = (rng.random((6, 14)) < 0.3).astype(float)
        matching = blossom_matching(matrix)
        assert matching.is_cover()
        assert matching.is_conflict_free(matrix)


def incidence_matrix(n, edges):
    """A matrix whose conflict graph is exactly ``edges`` over ``n`` columns:
    one row per edge, nonzero at both endpoints."""
    matrix = np.zeros((max(len(edges), 1), n))
    for row, (u, v) in enumerate(edges):
        matrix[row, [u, v]] = 1.0
    return matrix


@st.composite
def zero_one_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=10))
    columns = draw(st.integers(min_value=0, max_value=40))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return (rng.random((rows, columns)) < density).astype(float)


@st.composite
def conflict_graphs(draw):
    """``(n, edges)``: empty, complete and odd-``n`` graphs all come up."""
    n = draw(st.integers(min_value=1, max_value=25))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    shape = draw(st.sampled_from(["random", "empty", "complete"]))
    if shape == "empty":
        return n, []
    if shape == "complete":
        return n, pairs
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return n, [pair for pair, kept in zip(pairs, keep) if kept]


class TestExactMatching:
    @given(matrix=zero_one_matrices())
    @settings(max_examples=60, deadline=None)
    def test_pads_as_blossom_on_random_matrices(self, matrix):
        exact = exact_matching(matrix)
        assert exact.is_cover()
        assert exact.is_conflict_free(matrix)
        assert exact.n_pad == blossom_matching(matrix).n_pad

    @given(graph=conflict_graphs())
    @settings(max_examples=60, deadline=None)
    def test_pads_as_blossom_on_random_graphs(self, graph):
        matrix = incidence_matrix(*graph)
        exact = exact_matching(matrix)
        assert exact.is_cover()
        assert exact.is_conflict_free(matrix)
        assert exact.n_pad == blossom_matching(matrix).n_pad

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_empty_and_complete_graphs(self, n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert exact_matching(incidence_matrix(n, [])).n_pad == n % 2
        assert exact_matching(incidence_matrix(n, pairs)).n_pad == n

    def test_no_columns(self):
        matching = exact_matching(np.zeros((3, 0)))
        assert matching.pairs == () and matching.n_pad == 0

    @staticmethod
    def complement_of(n, free):
        """The matrix whose conflict-graph complement has exactly ``free``."""
        return incidence_matrix(n, [(u, v) for u in range(n)
                                    for v in range(u + 1, n)
                                    if (u, v) not in free])

    def test_augments_past_the_greedy_pairing(self):
        # first fit pairs (0, 3) and strands 1, 2 and 4; the augmenting path
        # 4-0-3-2 pairs all but column 1
        matrix = self.complement_of(5, {(0, 3), (0, 4), (2, 3)})
        assert greedy_matching(matrix).n_pad == 3
        assert exact_matching(matrix).n_pad == 1

    def test_contracts_an_odd_cycle(self):
        # first fit pairs (0, 1) and (2, 3), stranding 4 (free only with 1)
        # and 5 (free with 1 and 2).  From either, the search reaches 2 as an
        # odd vertex first, so 2's exit is only found once the odd cycle
        # 0-2-3 is contracted: 4-1-0-3-2-5 augments to a perfect pairing
        matrix = self.complement_of(
            6, {(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (2, 5)})
        assert greedy_matching(matrix).n_pad == 2
        assert exact_matching(matrix).n_pad == 0
        assert blossom_matching(matrix).n_pad == 0

    @pytest.mark.parametrize("r1,r2", [(4, 4), (8, 2), (2, 6), (6, 6)])
    def test_pads_as_blossom_on_3d_morphs(self, r1, r2):
        pattern = StencilPattern.box(3, 1)
        a_prime, _ = _morph(pattern, r1, r2)
        assert exact_matching(a_prime).n_pad == blossom_matching(a_prime).n_pad

    @pytest.mark.slow
    @pytest.mark.parametrize("config", table2_benchmarks(),
                             ids=[c.name for c in table2_benchmarks()])
    def test_pads_as_blossom_on_table2_candidates(self, config):
        # every default layout candidate that method="auto" may hand to the
        # Blossom solver
        pattern = config.pattern
        for r1, r2 in default_search_space(pattern):
            a_prime, _ = _morph(pattern, r1, r2)
            if a_prime.shape[1] <= BLOSSOM_COLUMN_LIMIT:
                assert exact_matching(a_prime).n_pad == \
                    blossom_matching(a_prime).n_pad, (r1, r2)


class TestMatchingToPermutation:
    def test_permutation_is_valid(self, box2d9p):
        a_prime, structure = _morph(box2d9p, 4, 4)
        matching = hierarchical_matching(structure)
        order, n_total = matching_to_permutation(matching)
        assert n_total % 4 == 0
        assert sorted(order.tolist()) == list(range(n_total))

    def test_pairs_are_adjacent_in_order(self, box2d9p):
        a_prime, structure = _morph(box2d9p, 4, 2)
        matching = hierarchical_matching(structure)
        order, _ = matching_to_permutation(matching)
        position = {int(col): slot for slot, col in enumerate(order)}
        for i, j in matching.pairs:
            if j is not None:
                assert abs(position[i] - position[j]) == 1
                assert min(position[i], position[j]) % 2 == 0

    def test_incomplete_cover_rejected(self):
        bad = MatchingResult(pairs=((0, 1),), n_columns=4, method="manual")
        with pytest.raises(ValidationError):
            matching_to_permutation(bad)

    def test_pad_count_round_up_to_multiple_of_4(self):
        # 3 columns, no conflicts: one pair + one padded column = 4 slots
        matching = MatchingResult(pairs=((0, 1), (2, None)), n_columns=3,
                                  method="manual")
        order, n_total = matching_to_permutation(matching)
        assert n_total == 4
        assert len(order) == 4
