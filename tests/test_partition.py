"""Partition / halo-exchange tests: unit cases plus randomized properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stencils.boundary import apply_boundary, neumann
from repro.stencils.partition import (
    GridPartition,
    halo_steps,
    plan_shard_grid,
    split_extent,
)
from repro.util.validation import ValidationError


class TestSplitExtent:
    def test_exact_division(self):
        assert split_extent(64, 4, align=4) == (16, 16, 16, 16)

    def test_remainder_goes_to_last_chunk(self):
        chunks = split_extent(94, 2, align=8)
        assert chunks == (48, 46)
        assert sum(chunks) == 94
        assert chunks[0] % 8 == 0

    def test_single_chunk_ignores_alignment(self):
        assert split_extent(13, 1, align=8) == (13,)

    def test_minimum_enforced(self):
        with pytest.raises(ValidationError):
            split_extent(16, 4, align=8, minimum=3)

    def test_too_many_chunks_rejected(self):
        with pytest.raises(ValidationError):
            split_extent(10, 4, align=8)


class TestPlanShardGrid:
    def test_1d_takes_all_shards(self):
        assert plan_shard_grid((2046,), 4) == (4,)

    def test_square_2d_goes_2x2(self):
        assert plan_shard_grid((94, 94), 4) == (2, 2)

    def test_skewed_2d_prefers_long_axis(self):
        assert plan_shard_grid((1000, 10), 4) == (4, 1)

    def test_product_matches(self):
        for n in (1, 2, 3, 4, 6, 8, 12):
            grid = plan_shard_grid((50, 70, 30), n)
            assert int(np.prod(grid)) == n


class TestGridPartition:
    def test_shards_tile_the_output_exactly(self):
        part = GridPartition.build((96, 96), 1, (2, 2), align=(8, 8))
        covered = np.zeros((94, 94), dtype=int)
        for shard in part.shards:
            sl = tuple(slice(a, b) for a, b in
                       zip(shard.out_start, shard.out_stop))
            covered[sl] += 1
        assert np.all(covered == 1)

    def test_subgrid_includes_halo(self):
        part = GridPartition.build((96, 96), 3, (2, 1))
        shard = part.shards[0]
        assert shard.subgrid_shape == tuple(s + 6 for s in shard.out_shape)

    def test_degenerate_single_shard(self):
        part = GridPartition.build((64, 64), 2, (1, 1))
        shard = part.shards[0]
        assert shard.subgrid_shape == (64, 64)
        assert part.messages_per_shard() == (0,)
        data = np.arange(64 * 64, dtype=float).reshape(64, 64)
        (local,) = part.extract(data)
        assert np.array_equal(local, data)
        assert part.exchange_halos([local]) == 0

    def test_extract_copies_not_views(self):
        part = GridPartition.build((128,), 1, (2,))
        data = np.zeros(128)
        locals_ = part.extract(data)
        locals_[0][:] = 1.0
        assert np.all(data == 0.0)
        assert np.all(locals_[1] == 0.0)

    def test_too_many_shards_raise(self):
        with pytest.raises(ValidationError):
            GridPartition.build((16, 16), 1, (32, 1))

    def test_neighbors_2x2(self):
        part = GridPartition.build((64, 64), 1, (2, 2))
        corner = part.shard_at((0, 0))
        neighbors = part.neighbors(corner)
        assert set(neighbors) == {(0, +1), (1, +1)}
        middle_keys = set(part.neighbors(part.shard_at((1, 0))))
        assert middle_keys == {(0, -1), (1, +1)}


class TestDegenerateGeometry:
    """Edge geometries the deep-halo rework must keep exact: shards no
    bigger than the stencil radius, periodic self-wraps on single-shard
    axes, and extents that do not divide evenly."""

    def test_radius_equals_smallest_shard_interior(self):
        # out extent 8 split in two -> each shard owns exactly radius cells,
        # so a neighbour's *entire* interior becomes the ghost slab
        part = GridPartition.build((16,), 4, (2,), align=(1,))
        assert [s.out_shape for s in part.shards] == [(4,), (4,)]
        assert GridPartition.max_halo_depth((16,), 4, (2,)) == 1
        rng = np.random.default_rng(5)
        data = rng.random(16)
        locals_ = part.extract(data)
        globally = data.copy()
        globally[4:-4] = globally[4:-4] * 2.0 + 1.0
        for local, shard in zip(locals_, part.shards):
            view = local[shard.interior_local]
            local[shard.interior_local] = view * 2.0 + 1.0
        part.exchange_halos(locals_)
        for local, shard in zip(locals_, part.shards):
            assert np.array_equal(local, globally[shard.subgrid_slices])

    def test_periodic_self_wrap_on_single_shard_axis(self):
        part = GridPartition.build((20, 20), 1, (1, 2), boundary="periodic")
        for shard in part.shards:
            faces = part.exchanged_faces(shard)
            # axis 0 has one shard: its wrap is a local copy, not a message
            assert all(axis == 1 for axis, _ in faces)
            assert part.halo_source(shard, 0, -1).index == shard.index
        assert part.messages_per_shard() == (2, 2)
        rng = np.random.default_rng(6)
        data = apply_boundary(rng.random((20, 20)), 1, "periodic")
        locals_ = part.extract(data)
        globally = data.copy()
        globally[1:-1, 1:-1] = globally[1:-1, 1:-1] * 2.0 + 1.0
        for local, shard in zip(locals_, part.shards):
            view = local[shard.interior_local]
            local[shard.interior_local] = view * 2.0 + 1.0
        apply_boundary(globally, 1, "periodic")
        part.exchange_halos(locals_)
        for local, shard in zip(locals_, part.shards):
            assert np.array_equal(local, globally[shard.subgrid_slices]), \
                shard.index

    def test_non_dividing_shard_count(self):
        part = GridPartition.build((103,), 1, (3,), align=(8,))
        chunks = [s.out_shape[0] for s in part.shards]
        assert chunks == list(split_extent(101, 3, align=8))
        assert sum(chunks) == 101
        covered = np.zeros(101, dtype=int)
        for shard in part.shards:
            covered[shard.out_start[0]:shard.out_stop[0]] += 1
        assert np.all(covered == 1)


class TestDeepHaloGeometry:
    def test_halo_steps_round_radius_up_to_tiles(self):
        assert halo_steps(3, (8, 4, 1)) == (8, 4, 3)
        assert halo_steps(1, (8, 8)) == (8, 8)
        assert halo_steps(4, (4,)) == (4,)

    def test_deep_ghosts_only_on_exchanged_faces(self):
        part = GridPartition.build((130, 130), 1, (2, 2), align=(8, 8),
                                   halo_depth=3)
        corner = part.shard_at((0, 0))
        # global-edge faces stay radius-wide; exchanged faces carry
        # radius + (k-1)*step = 1 + 2*8 deep ghosts
        assert corner.lo_ghost == (1, 1)
        assert corner.hi_ghost == (17, 17)
        assert corner.subgrid_shape == (64 + 1 + 17, 64 + 1 + 17)

    def test_windows_shrink_tile_congruently(self):
        part = GridPartition.build((130, 130), 1, (2, 2), align=(8, 8),
                                   halo_depth=3)
        corner = part.shard_at((0, 0))
        shapes = [part.window_out_shape(corner, mult) for mult in range(3)]
        assert shapes[0] == corner.out_shape
        for smaller, larger in zip(shapes, shapes[1:]):
            assert all(b - a in (0, 8, 16) and b >= a
                       for a, b in zip(smaller, larger))
        # writeback never touches the input ring
        inner = part.window_writeback(corner, 1)
        outer = part.window(corner, 1)
        assert all(w.start == o.start + 1 and w.stop == o.stop - 1
                   for w, o in zip(inner, outer))

    def test_max_halo_depth_periodic_needs_tile_divisibility(self):
        # out extent 98 is not a multiple of the 8-wide tiles: wrap images
        # would land tile-incongruent, so periodic clamps to depth 1
        assert GridPartition.max_halo_depth((100,), 1, (2,), align=(8,),
                                            boundary="periodic") == 1
        assert GridPartition.max_halo_depth((100,), 1, (2,), align=(8,),
                                            boundary="dirichlet") > 1
        assert GridPartition.max_halo_depth((130,), 1, (2,), align=(8,),
                                            boundary="periodic") > 1

    def test_default_depth_keeps_legacy_ghosts(self):
        part = GridPartition.build((96, 96), 2, (2, 2))
        for shard in part.shards:
            assert shard.lo_ghost == (2, 2) or 0 in shard.index
            assert all(g in (2,) for g in shard.lo_ghost + shard.hi_ghost)

    def test_deep_exchange_fills_whole_ghost_slab(self):
        part = GridPartition.build((66,), 1, (2,), align=(8,), halo_depth=2)
        rng = np.random.default_rng(8)
        data = rng.random(66)
        locals_ = part.extract(data)
        globally = data.copy()
        globally[1:-1] = globally[1:-1] * 2.0 + 1.0
        for local, shard in zip(locals_, part.shards):
            view = local[shard.interior_local]
            local[shard.interior_local] = view * 2.0 + 1.0
        moved = part.exchange_halos(locals_)
        # the deep ghost is radius + step = 9 cells per exchanged face
        assert moved == part.halo_elements_per_exchange() == 18
        for local, shard in zip(locals_, part.shards):
            assert np.array_equal(local, globally[shard.subgrid_slices])


def _random_partition_case(rng):
    ndim = int(rng.integers(1, 4))
    radius = int(rng.integers(1, 4))
    shard_grid = tuple(int(rng.integers(1, 4)) for _ in range(ndim))
    align = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
    shape = tuple(
        int(2 * radius + max(radius, a) * c + rng.integers(0, 12))
        for c, a in zip(shard_grid, align))
    return shape, radius, shard_grid, align


class TestPartitionProperties:
    """Randomized shapes / radii / shard grids (the halo-exchange algebra)."""

    def test_roundtrip_and_exchange_match_global(self):
        rng = np.random.default_rng(20260728)
        cases = 0
        while cases < 25:
            shape, radius, shard_grid, align = _random_partition_case(rng)
            try:
                part = GridPartition.build(shape, radius, shard_grid,
                                           align=align)
            except ValidationError:
                continue  # infeasible random combination
            cases += 1
            data = rng.random(shape)

            # extract + assemble with no compute is the identity
            locals_ = part.extract(data)
            assert np.array_equal(part.assemble(locals_, data.copy()), data)

            # simulate one "sweep": every shard updates its interior with a
            # position-dependent value, then halos are exchanged; afterwards
            # every local array must equal the globally updated grid's slab
            globally = data.copy()
            interior = tuple(slice(radius, s - radius) for s in shape)
            globally[interior] = globally[interior] * 2.0 + 1.0
            for local, shard in zip(locals_, part.shards):
                view = local[shard.interior_local]
                local[shard.interior_local] = view * 2.0 + 1.0
            moved = part.exchange_halos(locals_)
            assert moved == part.halo_elements_per_exchange()
            for local, shard in zip(locals_, part.shards):
                assert np.array_equal(local, globally[shard.subgrid_slices]), (
                    shape, radius, shard_grid, align, shard.index)

    def test_chunk_alignment_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            extent = int(rng.integers(8, 200))
            count = int(rng.integers(1, 6))
            align = int(rng.integers(1, 9))
            try:
                chunks = split_extent(extent, count, align=align)
            except ValidationError:
                continue
            assert sum(chunks) == extent
            assert len(chunks) == count
            assert all(c % align == 0 for c in chunks[:-1])
            assert all(c >= 1 for c in chunks)


# --------------------------------------------------------------------------- #
# slab-copy extraction
# --------------------------------------------------------------------------- #
def _extract_reference(part: GridPartition, data: np.ndarray):
    """Shard extraction through wrap index arrays and ``np.ix_`` fancy
    indexing: the plain statement of what :meth:`GridPartition.extract`
    computes with slab copies."""
    locals_ = []
    for shard in part.shards:
        indices = []
        for (a, b), n in zip(shard.virtual_ranges, part.grid_shape):
            coords = np.arange(a, b)
            interior = n - 2 * part.radius
            wrapped = part.radius + (coords - part.radius) % interior
            indices.append(np.where((coords >= 0) & (coords < n),
                                    coords, wrapped))
        locals_.append(np.array(data[np.ix_(*indices)], dtype=np.float64,
                                order="C", copy=True))
    return locals_


@st.composite
def _partition_geometries(draw):
    ndim = draw(st.integers(1, 3))
    radius = draw(st.integers(1, 3))
    shard_grid = tuple(draw(st.integers(1, 3)) for _ in range(ndim))
    align = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    # room for a few deep-halo steps on every multi-shard axis
    shape = tuple(2 * radius + count * draw(st.integers(max(radius, a),
                                                         3 * max(radius, a)))
                  + draw(st.integers(0, 5))
                  for count, a in zip(shard_grid, align))
    boundary = draw(st.sampled_from(["dirichlet", "periodic", "reflect",
                                     neumann(0.25)]))
    return shape, radius, shard_grid, align, boundary


class TestSlabExtraction:
    """:meth:`GridPartition.extract` copies precomputed slabs; it must match
    the index-array extraction byte for byte, at every feasible halo
    depth, and hand out fresh arrays."""

    @settings(max_examples=40, deadline=None)
    @given(geometry=_partition_geometries(), seed=st.integers(0, 2**31 - 1))
    def test_matches_index_extraction(self, geometry, seed):
        shape, radius, shard_grid, align, boundary = geometry
        data = np.random.default_rng(seed).standard_normal(shape)
        try:
            deepest = GridPartition.max_halo_depth(
                shape, radius, shard_grid, align=align, boundary=boundary)
        except ValidationError:
            return  # infeasible random geometry
        for depth in range(1, deepest + 1):
            try:
                part = GridPartition.build(shape, radius, shard_grid,
                                           align=align, boundary=boundary,
                                           halo_depth=depth)
            except ValidationError:
                continue
            locals_ = part.extract(data)
            expected = _extract_reference(part, data)
            assert len(locals_) == len(expected) == part.n_shards
            for local, reference, shard in zip(locals_, expected,
                                               part.shards):
                assert local.dtype == np.float64
                assert local.shape == shard.subgrid_shape
                assert local.flags.c_contiguous
                assert local.tobytes() == reference.tobytes()
                assert not np.shares_memory(local, data)
            for i, local in enumerate(locals_):
                for other in locals_[i + 1:]:
                    assert not np.shares_memory(local, other)
