"""Boundary-condition subsystem tests.

Covers the vocabulary and the halo-fill semantics (against ``np.pad``
oracles), the partition-level distributed realisation, the headline
invariant — sharded output bit-identical to single-device output under
*every* boundary condition — and the cache-poisoning guarantee that two
problems differing only in boundary condition can never share a compiled
plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BOUNDARY_CONDITIONS,
    BoundaryCondition,
    Grid,
    Problem,
    StencilSession,
    apply_boundary,
    boundary_flux,
    boundary_kind,
    compile_stencil,
    make_grid,
    neumann,
    normalize_boundary,
)
from repro.engine import ShardedExecutor, SingleDeviceExecutor
from repro.service import CompileCache
from repro.service.fingerprint import CompileRequest
from repro.stencils.partition import GridPartition
from repro.stencils.reference import (
    apply_stencil_reference,
    run_stencil_iterations,
)
from repro.util.validation import ValidationError


class TestVocabulary:
    def test_canonical_names(self):
        assert BOUNDARY_CONDITIONS == ("dirichlet", "periodic", "reflect")

    def test_members_compare_as_strings(self):
        assert BoundaryCondition.PERIODIC == "periodic"
        assert BoundaryCondition("reflect") is BoundaryCondition.REFLECT

    def test_normalize_accepts_casing_enum_and_none(self):
        assert normalize_boundary("Periodic") == "periodic"
        assert normalize_boundary("  REFLECT ") == "reflect"
        assert normalize_boundary(BoundaryCondition.DIRICHLET) == "dirichlet"
        assert normalize_boundary(None) == "dirichlet"

    def test_normalize_rejects_unknown(self):
        with pytest.raises(ValidationError):
            normalize_boundary("open")
        with pytest.raises(ValidationError):
            normalize_boundary(7)
        with pytest.raises(ValidationError):
            normalize_boundary("neumann(flux=spam)")
        with pytest.raises(ValidationError):
            normalize_boundary("neumann(flux=inf)")

    def test_neumann_normalisation(self):
        # zero flux IS reflect — both spellings collapse onto one name
        assert normalize_boundary("neumann") == "reflect"
        assert normalize_boundary("neumann(flux=0.0)") == "reflect"
        assert neumann(0.0) == "reflect"
        # non-zero flux canonicalises to a repr-round-trip-exact string
        assert neumann(0.25) == "neumann(flux=0.25)"
        assert normalize_boundary(" Neumann( flux = 0.25 ) ") \
            == "neumann(flux=0.25)"
        assert normalize_boundary("neumann(0.25)") == "neumann(flux=0.25)"
        assert boundary_kind(neumann(0.25)) == "neumann"
        assert boundary_flux(neumann(0.25)) == 0.25
        assert boundary_kind("reflect") == "reflect"
        assert boundary_flux("periodic") == 0.0


class TestApplyBoundary:
    @pytest.mark.parametrize("shape,radius", [
        ((32,), 1), ((32,), 3), ((24, 20), 1), ((24, 20), 2),
        ((12, 14, 10), 1), ((12, 14, 12), 2),
    ])
    def test_periodic_matches_wrap_pad(self, shape, radius):
        rng = np.random.default_rng(0)
        data = rng.random(shape)
        interior = data[tuple(slice(radius, s - radius) for s in shape)].copy()
        apply_boundary(data, radius, "periodic")
        np.testing.assert_array_equal(data, np.pad(interior, radius,
                                                   mode="wrap"))

    @pytest.mark.parametrize("shape,radius", [
        ((32,), 1), ((32,), 3), ((24, 20), 1), ((24, 20), 2),
        ((12, 14, 10), 1), ((12, 14, 12), 2),
    ])
    def test_reflect_matches_symmetric_pad(self, shape, radius):
        rng = np.random.default_rng(1)
        data = rng.random(shape)
        interior = data[tuple(slice(radius, s - radius) for s in shape)].copy()
        apply_boundary(data, radius, "reflect")
        np.testing.assert_array_equal(data, np.pad(interior, radius,
                                                   mode="symmetric"))

    def test_dirichlet_is_a_no_op(self):
        data = np.arange(30.0).reshape(5, 6)
        before = data.copy()
        out = apply_boundary(data, 1, "dirichlet")
        assert out is data
        np.testing.assert_array_equal(data, before)

    @pytest.mark.parametrize("boundary", ["periodic", "reflect",
                                          neumann(0.25)])
    def test_zero_radius_is_a_no_op(self, boundary):
        data = np.arange(30.0).reshape(5, 6)
        before = data.copy()
        assert apply_boundary(data, 0, boundary) is data
        np.testing.assert_array_equal(data, before)
        with pytest.raises(ValidationError):
            apply_boundary(data, -1, boundary)

    def test_fused_taps_cancelling_to_the_centre_run(self):
        """Two fused steps of a star whose neighbour taps are zero leave a
        centre-only pattern with no ring to fill; the run scales every cell
        (a fused plan owns a ring of its own radius), so the interior
        matches the plain sweeps."""
        from repro import StencilPattern

        pattern = StencilPattern.star(1, 1, weights=[-1 / 3, 0.0, 0.0])
        grid = make_grid((7,), kind="random", seed=1, boundary="periodic")
        compiled = compile_stencil(pattern, (7,), boundary="periodic",
                                   temporal_fusion=2, search=False, r1=2,
                                   backend="tcu-sim")
        assert compiled.pattern.radius == 0
        result = SingleDeviceExecutor().execute(compiled, grid, 4)
        np.testing.assert_allclose(result.output[1:-1],
                                   run_stencil_iterations(pattern, grid,
                                                          4)[1:-1],
                                   rtol=1e-2)

    def test_fill_is_in_place_and_interior_untouched(self):
        data = np.random.default_rng(2).random((20, 20))
        interior = data[2:-2, 2:-2].copy()
        out = apply_boundary(data, 2, "periodic")
        assert out is data
        np.testing.assert_array_equal(data[2:-2, 2:-2], interior)

    @pytest.mark.parametrize("shape,radius", [
        ((32,), 1), ((32,), 3), ((24, 20), 2),
    ])
    def test_neumann_is_reflect_plus_flux_times_separation(self, shape,
                                                           radius):
        flux = 0.375
        rng = np.random.default_rng(3)
        data = rng.random(shape)
        mirrored = apply_boundary(data.copy(), radius, "reflect")
        filled = apply_boundary(data.copy(), radius, neumann(flux))
        diff = filled - mirrored
        # interior untouched, and each ghost layer offset by flux times the
        # cell-centre separation from its mirror source (1, 3, 5, ... going
        # outward), accumulated per axis through the stacked corner fills
        interior = tuple(slice(radius, s - radius) for s in shape)
        np.testing.assert_array_equal(diff[interior], 0.0)
        for axis in range(len(shape)):
            edge = [slice(radius, s - radius) for s in shape]
            for q in range(radius):
                edge[axis] = slice(shape[axis] - radius + q,
                                   shape[axis] - radius + q + 1)
                np.testing.assert_allclose(diff[tuple(edge)],
                                           flux * (2 * q + 1), atol=1e-12)
                edge[axis] = slice(radius - 1 - q, radius - q)
                np.testing.assert_allclose(diff[tuple(edge)],
                                           flux * (2 * q + 1), atol=1e-12)

    def test_neumann_radius_one_gradient_across_wall(self):
        flux = -0.5
        data = np.random.default_rng(7).random((16, 16))
        apply_boundary(data, 1, neumann(flux))
        # ghost minus adjacent interior equals the prescribed outward flux
        np.testing.assert_allclose(data[0, 1:-1] - data[1, 1:-1], flux,
                                   atol=1e-12)
        np.testing.assert_allclose(data[-1, 1:-1] - data[-2, 1:-1], flux,
                                   atol=1e-12)

    def test_interior_shorter_than_radius_rejected(self):
        # a 10-cell grid at radius 3 leaves a 4-cell interior (>= 3: fine);
        # at radius 4 the 2-cell interior cannot source a 4-wide halo
        apply_boundary(np.zeros(13), 3, "periodic")
        with pytest.raises(ValidationError):
            apply_boundary(np.zeros(10), 4, "periodic")
        with pytest.raises(ValidationError):
            apply_boundary(np.zeros(10), 4, "reflect")


class TestGridBoundary:
    def test_make_grid_carries_boundary(self):
        grid = make_grid((32, 32), boundary="Periodic")
        assert grid.boundary == "periodic"

    def test_default_is_dirichlet_and_copy_preserves(self):
        grid = make_grid((32, 32))
        assert grid.boundary == "dirichlet"
        wrapped = make_grid((32, 32), boundary="reflect")
        assert wrapped.copy().boundary == "reflect"

    def test_invalid_boundary_rejected(self):
        with pytest.raises(ValidationError):
            Grid(data=np.zeros((8, 8)), boundary="open")


class TestReferenceBoundary:
    def test_one_periodic_sweep_equals_wrap_pad_oracle(self, heat2d):
        radius = heat2d.radius
        grid = make_grid((48, 48), seed=5, boundary="periodic")
        out = run_stencil_iterations(heat2d, grid, 1)
        interior0 = grid.data[radius:-radius, radius:-radius]
        expected = apply_stencil_reference(
            heat2d, np.pad(interior0, radius, mode="wrap"))
        np.testing.assert_allclose(out[radius:-radius, radius:-radius],
                                   expected, atol=1e-12)

    def test_one_reflect_sweep_equals_symmetric_pad_oracle(self, heat2d):
        radius = heat2d.radius
        grid = make_grid((48, 48), seed=5, boundary="reflect")
        out = run_stencil_iterations(heat2d, grid, 1)
        interior0 = grid.data[radius:-radius, radius:-radius]
        expected = apply_stencil_reference(
            heat2d, np.pad(interior0, radius, mode="symmetric"))
        np.testing.assert_allclose(out[radius:-radius, radius:-radius],
                                   expected, atol=1e-12)

    def test_periodic_commutes_with_cyclic_shift(self, heat2d):
        """Periodic dynamics are translation-invariant: rolling the interior
        then sweeping equals sweeping then rolling."""
        radius = heat2d.radius
        sl = slice(radius, -radius)
        grid = make_grid((40, 40), seed=8, boundary="periodic")
        plain = run_stencil_iterations(heat2d, grid, 3)[sl, sl]

        rolled_interior = np.roll(grid.data[sl, sl], (5, -7), axis=(0, 1))
        rolled = Grid(data=np.pad(rolled_interior, radius, mode="wrap"),
                      boundary="periodic")
        shifted = run_stencil_iterations(heat2d, rolled, 3)[sl, sl]
        np.testing.assert_allclose(
            shifted, np.roll(plain, (5, -7), axis=(0, 1)), atol=1e-12)

    def test_conservative_stencil_preserves_constant_field(self, heat2d):
        """heat-2d weights sum to 1, so a constant field is a fixed point
        under periodic and reflect (but not under an inconsistent halo)."""
        for boundary in ("periodic", "reflect"):
            grid = make_grid((32, 32), kind="ones", boundary=boundary)
            out = run_stencil_iterations(heat2d, grid, 4)
            np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_explicit_boundary_argument_overrides_grid(self, heat2d):
        grid = make_grid((32, 32), seed=3)  # dirichlet grid
        explicit = run_stencil_iterations(heat2d, grid, 2,
                                          boundary="periodic")
        tagged = run_stencil_iterations(
            heat2d, make_grid((32, 32), seed=3, boundary="periodic"), 2)
        np.testing.assert_array_equal(explicit, tagged)


class TestPartitionBoundary:
    def test_periodic_exchange_matches_global_fill(self):
        """After an interior update + exchange, every shard slab must equal
        the globally updated-and-filled grid — for every condition, shard
        grid and radius (the distributed-fill equivalence property)."""
        rng = np.random.default_rng(20260728)
        cases = 0
        while cases < 18:
            ndim = int(rng.integers(1, 4))
            radius = int(rng.integers(1, 4))
            shard_grid = tuple(int(rng.integers(1, 4)) for _ in range(ndim))
            shape = tuple(int(2 * radius + radius * c + rng.integers(0, 10))
                          for c in shard_grid)
            boundary = ("periodic", "reflect", neumann(0.25))[cases % 3]
            try:
                part = GridPartition.build(shape, radius, shard_grid,
                                           boundary=boundary)
            except ValidationError:
                continue
            if any(int(s) - 2 * radius < radius for s in shape):
                continue  # apply_boundary needs interior >= radius
            cases += 1
            data = rng.random(shape)
            apply_boundary(data, radius, boundary)
            locals_ = part.extract(data)

            globally = data.copy()
            interior = tuple(slice(radius, s - radius) for s in shape)
            globally[interior] = globally[interior] * 2.0 + 1.0
            apply_boundary(globally, radius, boundary)
            for local, shard in zip(locals_, part.shards):
                view = local[shard.interior_local]
                local[shard.interior_local] = view * 2.0 + 1.0
            part.exchange_halos(locals_)
            for local, shard in zip(locals_, part.shards):
                assert np.array_equal(local, globally[shard.subgrid_slices]), (
                    boundary, shape, radius, shard_grid, shard.index)

    def test_periodic_wrap_counts_as_interconnect_traffic(self):
        dirichlet = GridPartition.build((66,), 1, (2,))
        periodic = GridPartition.build((66,), 1, (2,), boundary="periodic")
        assert dirichlet.messages_per_shard() == (1, 1)
        assert periodic.messages_per_shard() == (2, 2)
        assert periodic.halo_elements_per_exchange() \
            > dirichlet.halo_elements_per_exchange()

    def test_self_wrap_and_mirror_are_free(self):
        # one shard: periodic wraps onto itself, reflect mirrors locally —
        # halos are filled but nothing crosses an interconnect
        for boundary in ("periodic", "reflect", neumann(-0.5)):
            part = GridPartition.build((34, 34), 1, (1, 1),
                                       boundary=boundary)
            assert part.messages_per_shard() == (0,)
            data = np.random.default_rng(4).random((34, 34))
            expected = data.copy()
            apply_boundary(expected, 1, boundary)
            (local,) = part.extract(data)
            assert part.exchange_halos([local]) == 0
            np.testing.assert_array_equal(local, expected)


BIT_IDENTITY_WORKLOADS = [
    ("heat1d", (514,), 3),
    ("heat2d", (66, 66), 3),
    ("box2d9p", (66, 66), 2),
]

#: The full condition matrix engines must stay bit-identical under — the
#: closed vocabulary plus a non-zero-flux neumann representative.
BOUNDARY_MATRIX = BOUNDARY_CONDITIONS + (neumann(0.125),)


class TestEngineBoundary:
    @pytest.mark.parametrize("boundary", BOUNDARY_MATRIX)
    @pytest.mark.parametrize("devices", [1, 2, 4])
    @pytest.mark.parametrize("fixture_name,shape,iterations",
                             BIT_IDENTITY_WORKLOADS,
                             ids=[w[0] for w in BIT_IDENTITY_WORKLOADS])
    def test_sharded_bit_identical_for_every_boundary(
            self, request, fixture_name, shape, iterations, boundary,
            devices):
        pattern = request.getfixturevalue(fixture_name)
        grid = make_grid(shape, seed=11, boundary=boundary)
        compiled = compile_stencil(pattern, shape, boundary=boundary)
        single = SingleDeviceExecutor().execute(compiled, grid, iterations)
        sharded = ShardedExecutor(devices).execute(compiled, grid, iterations)
        assert np.array_equal(single.output, sharded.output)

    def test_engine_matches_reference_under_every_boundary(self, heat2d):
        for boundary in BOUNDARY_MATRIX:
            grid = make_grid((64, 64), seed=9, boundary=boundary)
            compiled = compile_stencil(heat2d, (64, 64), boundary=boundary)
            result = SingleDeviceExecutor().execute(compiled, grid, 3)
            reference = run_stencil_iterations(heat2d, grid, 3)
            assert np.max(np.abs(result.output - reference)) < 5e-3, boundary

    def test_boundary_mismatch_rejected(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64), boundary="periodic")
        grid = make_grid((64, 64), seed=1)  # dirichlet
        with pytest.raises(ValidationError):
            SingleDeviceExecutor().execute(compiled, grid, 2)
        with pytest.raises(ValidationError):
            ShardedExecutor(2).execute(compiled, grid, 2)

    def test_temporal_fusion_stays_bit_identical_under_periodic(self, heat2d):
        grid = make_grid((66, 66), seed=6, boundary="periodic")
        compiled = compile_stencil(heat2d, (66, 66), temporal_fusion=2,
                                   boundary="periodic")
        single = SingleDeviceExecutor().execute(compiled, grid, 4)
        sharded = ShardedExecutor(2).execute(compiled, grid, 4)
        assert np.array_equal(single.output, sharded.output)

    @pytest.mark.parametrize("boundary", BOUNDARY_CONDITIONS)
    def test_mixed_fused_leftover_run_composes(self, heat2d, boundary):
        """Regression: a fused+leftover run must equal running the fused
        sweeps and the leftover sweeps as two separate executor calls —
        each phase fills the halo at its own plan's radius on entry."""
        shape = (66, 66)
        grid = make_grid(shape, seed=13, boundary=boundary)
        compiled = compile_stencil(heat2d, shape, temporal_fusion=3,
                                   boundary=boundary)
        executor = SingleDeviceExecutor()
        mixed = executor.execute(compiled, grid, 4)  # 1 fused + 1 leftover

        fused_only = executor.execute(compiled, grid, 3)
        mid = Grid(data=fused_only.output, boundary=boundary)
        finished = executor.execute(compiled, mid, 1)  # leftover-only call
        np.testing.assert_array_equal(mixed.output, finished.output)


class TestFingerprintIsolation:
    """The cache-poisoning guarantee: boundary enters the fingerprint."""

    def test_problems_differing_only_in_boundary_fingerprint_apart(
            self, heat2d):
        prints = set()
        matrix = BOUNDARY_MATRIX + (neumann(0.5),)
        for boundary in matrix:
            problem = Problem(heat2d,
                              make_grid((64, 64), seed=2, boundary=boundary),
                              iterations=2)
            prints.add(problem.compile_request().fingerprint)
        assert len(prints) == len(matrix)

    def test_explicit_option_agrees_with_grid_or_raises(self, heat2d):
        problem = Problem(heat2d, make_grid((64, 64), boundary="periodic"),
                          iterations=2, options={"boundary": "periodic"})
        assert problem.compile_request().options.boundary == "periodic"
        conflicted = Problem(heat2d, make_grid((64, 64)), iterations=2,
                             options={"boundary": "periodic"})
        with pytest.raises(ValidationError):
            conflicted.compile_request()

    def test_cache_never_cross_serves_boundaries(self, heat2d):
        cache = CompileCache()
        plans = {
            boundary: cache.compile(heat2d, (64, 64), boundary=boundary)
            for boundary in BOUNDARY_CONDITIONS
        }
        assert cache.stats.misses == 3 and cache.stats.hits == 0
        for boundary, plan in plans.items():
            assert plan.boundary == boundary
        # warm lookups hit only their own boundary's entry
        again = cache.compile(heat2d, (64, 64), boundary="periodic")
        assert again.boundary == "periodic"
        assert cache.stats.hits == 1

    def test_requests_hash_apart(self, heat2d):
        requests = {
            CompileRequest.build(heat2d, (64, 64), boundary=boundary)
            for boundary in BOUNDARY_CONDITIONS
        }
        assert len(requests) == 3


class TestSessionBoundary:
    def test_solution_provenance_records_boundary(self, heat2d):
        with StencilSession() as session:
            problem = Problem(heat2d,
                              make_grid((64, 64), seed=3,
                                        boundary="periodic"),
                              iterations=2)
            solution = session.solve(problem, mode="single")
        assert solution.provenance.boundary == "periodic"
        assert solution.provenance.as_dict()["boundary"] == "periodic"
        assert solution.compiled.boundary == "periodic"

    def test_session_shared_cache_keeps_boundaries_apart(self, heat2d):
        with StencilSession() as session:
            outputs = {}
            for boundary in BOUNDARY_CONDITIONS:
                problem = Problem(
                    heat2d, make_grid((64, 64), seed=3, boundary=boundary),
                    iterations=3)
                outputs[boundary] = session.solve(problem, mode="single")
            assert session.cache.stats.misses == 3
        assert not np.array_equal(outputs["dirichlet"].output,
                                  outputs["periodic"].output)
        assert not np.array_equal(outputs["periodic"].output,
                                  outputs["reflect"].output)

    def test_baselines_reject_non_dirichlet(self, heat2d):
        with StencilSession() as session:
            problem = Problem(heat2d,
                              make_grid((48, 48), boundary="reflect"),
                              iterations=2)
            with pytest.raises(ValidationError):
                session.solve(problem, mode="baseline:cudnn")
