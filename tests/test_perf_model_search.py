"""Unit tests for the analytical performance model (Eq. 6-11) and layout search."""

import numpy as np
import pytest

from repro.core.layout_search import (
    LayoutSearchResult,
    default_search_space,
    search_layout,
    search_layout_many,
)
from repro.core.conversion import convert_to_24
from repro.core.morphing import MorphConfig, morph_kernel_matrix
from repro.core.perf_model import estimate_layout
from repro.core.staircase import block_structure_from_morph
from repro.stencils.pattern import StencilPattern
from repro.tcu.spec import A100_SPEC, DENSE_FRAGMENTS, DataType, SPARSE_FRAGMENTS
from repro.util.validation import ValidationError

GRID_2D = (256, 256)


class TestEstimateLayout:
    def test_roofline_total(self, box2d9p):
        est = estimate_layout(box2d9p, GRID_2D, MorphConfig.from_r1_r2(2, 4, 4))
        assert est.t_total == pytest.approx(max(est.t_compute, est.t_memory))
        assert est.bound in ("compute", "memory")

    def test_sparse_engine_pads_k(self, box2d9p):
        est = estimate_layout(box2d9p, GRID_2D, MorphConfig.from_r1_r2(2, 4, 4),
                              engine="sparse_mma")
        assert est.k_padded >= est.k_prime
        assert est.k_padded % 4 == 0
        a_prime = morph_kernel_matrix(box2d9p, est.config)
        structure = block_structure_from_morph(box2d9p, est.config)
        assert est.k_padded == convert_to_24(a_prime, structure=structure).n_total

    def test_dense_engine_keeps_k(self, box2d9p):
        est = estimate_layout(box2d9p, GRID_2D, MorphConfig.from_r1_r2(2, 4, 4),
                              engine="dense_mma", fragment=DENSE_FRAGMENTS[0])
        assert est.k_padded == est.k_prime

    def test_mma_count_matches_eq9(self, box2d9p):
        cfg = MorphConfig.from_r1_r2(2, 4, 4)
        fragment = SPARSE_FRAGMENTS[1]
        est = estimate_layout(box2d9p, GRID_2D, cfg, fragment=fragment)
        expected = (-(-est.m_prime // fragment.m)) * \
            (-(-est.k_padded // fragment.k)) * (-(-est.n_prime // fragment.n))
        assert est.n_mma == expected

    def test_sparse_compute_faster_than_dense_same_layout(self, box2d49p):
        cfg = MorphConfig.from_r1_r2(2, 4, 4)
        sparse = estimate_layout(box2d49p, GRID_2D, cfg, engine="sparse_mma",
                                 fragment=SPARSE_FRAGMENTS[0])
        dense = estimate_layout(box2d49p, GRID_2D, cfg, engine="dense_mma",
                                fragment=DENSE_FRAGMENTS[2])
        # same logical fragment geometry (16x16x8): sparse should not be slower
        # on the compute side despite the zero-column padding
        assert sparse.t_compute <= dense.t_compute * 1.05

    def test_compute_density_between_0_and_1(self, box2d9p):
        est = estimate_layout(box2d9p, GRID_2D, MorphConfig.from_r1_r2(2, 4, 4))
        assert 0.0 < est.compute_density <= 1.0

    def test_fp64_requires_dense_engine(self, box2d9p):
        with pytest.raises(ValidationError):
            estimate_layout(box2d9p, GRID_2D, MorphConfig.from_r1_r2(2, 4, 4),
                            dtype=DataType.FP64, engine="sparse_mma")

    def test_fragment_engine_consistency_enforced(self, box2d9p):
        with pytest.raises(ValidationError):
            estimate_layout(box2d9p, GRID_2D, MorphConfig.from_r1_r2(2, 4, 4),
                            engine="sparse_mma", fragment=DENSE_FRAGMENTS[0])
        with pytest.raises(ValidationError):
            estimate_layout(box2d9p, GRID_2D, MorphConfig.from_r1_r2(2, 4, 4),
                            engine="dense_mma", fragment=SPARSE_FRAGMENTS[0])

    def test_shared_traffic_follows_eq10(self, box2d9p):
        cfg = MorphConfig.from_r1_r2(2, 4, 4)
        est = estimate_layout(box2d9p, GRID_2D, cfg, dtype=DataType.FP16)
        expected = est.k_padded * (est.m_prime / 2.0 + est.n_prime) * 2
        assert est.traffic.shared_read_bytes == pytest.approx(expected)
        assert est.traffic.shared_write_bytes == pytest.approx(expected)

    def test_global_traffic_is_grid_plus_outputs(self, box2d9p):
        est = estimate_layout(box2d9p, GRID_2D, MorphConfig.from_r1_r2(2, 4, 4),
                              dtype=DataType.FP16)
        assert est.traffic.global_read_bytes == pytest.approx(256 * 256 * 2)
        assert est.traffic.global_write_bytes == pytest.approx(254 * 254 * 2)


class TestDefaultSearchSpace:
    def test_1d_sweeps_only_r1(self, heat1d):
        space = default_search_space(heat1d)
        assert all(r2 == 1 for _, r2 in space)
        assert len({r1 for r1, _ in space}) > 3

    def test_2d_sweeps_both(self, heat2d):
        space = default_search_space(heat2d)
        assert any(r2 > 1 for _, r2 in space)

    def test_respects_limits(self, heat2d):
        space = default_search_space(heat2d, max_r1=4, max_r2=2)
        assert max(r1 for r1, _ in space) <= 4
        assert max(r2 for _, r2 in space) <= 2


class TestSearchLayout:
    def test_best_is_minimum_over_candidates(self, box2d9p):
        result = search_layout(box2d9p, GRID_2D)
        times = [c.t_total for c in result.candidates]
        assert result.best.t_total == pytest.approx(min(times))

    def test_candidates_cover_space(self, box2d9p):
        result = search_layout(box2d9p, GRID_2D, space=[(1, 1), (4, 2), (8, 4)])
        assert len(result.candidates) == 3

    def test_infeasible_candidates_skipped(self, box2d49p):
        # output extent is 10, so r1 > 10 is skipped
        result = search_layout(box2d49p, (16, 16), space=[(4, 1), (16, 1)])
        assert len(result.candidates) == 1

    def test_no_feasible_candidate_raises(self, box2d49p):
        with pytest.raises(ValidationError):
            search_layout(box2d49p, (16, 16), space=[(32, 1)])

    def test_best_beats_naive_unit_layout(self, box2d49p):
        result = search_layout(box2d49p, GRID_2D)
        unit = estimate_layout(box2d49p, GRID_2D, MorphConfig.from_r1_r2(2, 1, 1))
        assert result.best.t_total <= unit.t_total

    def test_as_table_has_expected_columns(self, box2d9p):
        result = search_layout(box2d9p, GRID_2D, space=[(2, 2), (4, 4)])
        table = result.as_table()
        assert {"r1", "r2", "t_total", "sparsity", "compute_density"} <= set(table[0])

    def test_density_grid_shape(self, box2d9p):
        result = search_layout(box2d9p, GRID_2D, space=[(2, 2), (4, 2), (2, 4), (4, 4)])
        grid, r2_values, r1_values = result.density_grid()
        assert grid.shape == (len(r2_values), len(r1_values))
        assert not np.isnan(grid).any()

    def test_dense_engine_search(self, box2d9p):
        result = search_layout(box2d9p, GRID_2D, engine="dense_mma",
                               fragment=DENSE_FRAGMENTS[0])
        assert isinstance(result, LayoutSearchResult)
        assert result.best.estimate.engine == "dense_mma"

    def test_1d_search(self, heat1d):
        result = search_layout(heat1d, (4096,))
        assert result.best.r2 == 1


class TestSearchLayoutMany:
    def test_matches_sequential_searches_in_order(self, heat1d, heat2d, box2d9p):
        jobs = [(heat1d, (4096,)), (heat2d, GRID_2D), (box2d9p, GRID_2D)]
        many = search_layout_many(jobs)
        for (pattern, shape), result in zip(jobs, many):
            single = search_layout(pattern, shape)
            assert result.pattern_name == pattern.name
            assert result.grid_shape == tuple(shape)
            assert result.best.r1 == single.best.r1
            assert result.best.r2 == single.best.r2
            assert result.best.t_total == single.best.t_total

    def test_serial_fallback_and_empty(self, heat2d):
        assert search_layout_many([]) == []
        (only,) = search_layout_many([(heat2d, GRID_2D)], max_workers=1)
        assert isinstance(only, LayoutSearchResult)

    def test_kwargs_forwarded(self, box2d9p):
        results = search_layout_many(
            [(box2d9p, GRID_2D)], engine="dense_mma",
            fragment=DENSE_FRAGMENTS[0], max_workers=2)
        assert results[0].best.estimate.engine == "dense_mma"
