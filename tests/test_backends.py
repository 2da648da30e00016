"""Backend registry tests: selection, fingerprint isolation, cache
cross-serve protection, and functional equivalence of the fast backends.

The tolerance contract under test (see :mod:`repro.core.codegen`): the
``numpy`` backend is an exact float64 implementation of the golden
reference, so it matches ``apply_stencil_reference`` bit-for-bit; against
``tcu-sim`` (which carries the simulated device's fp16 rounding) it agrees
within the device tolerance the golden suite already uses (~2e-2 absolute
for the default fp16 configuration).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.codegen import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    NumpyBackend,
    StencilBackend,
    TcuSimBackend,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.core.pipeline import compile_stencil, execute_compiled, resolve_compile_options
from repro.engine.sharded import ShardedExecutor
from repro.service import CompileCache, CompileRequest
from repro.service.fingerprint import compile_fingerprint
from repro.session import Problem, SolvePolicy, StencilSession
from repro.stencils.grid import make_grid
from repro.stencils.reference import run_stencil_iterations
from repro.util.validation import ValidationError

#: fp16 device tolerance of the default Table-2 configuration — what the
#: golden suite uses against the float64 reference.
DEVICE_TOL = 2e-2


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtins_registered(self):
        names = registered_backends()
        assert "tcu-sim" in names
        assert "numpy" in names
        assert "numba" not in names

    def test_get_backend_round_trips(self):
        assert isinstance(get_backend("tcu-sim"), TcuSimBackend)
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_unknown_backend_raises_listing_registered(self):
        with pytest.raises(ValidationError, match="registered"):
            get_backend("cuda-ptx")

    def test_duplicate_registration_rejected_unless_replace(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_backend(NumpyBackend())
        register_backend(NumpyBackend(), replace=True)  # restores the builtin

    def test_resolve_default_and_env_override(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend() == DEFAULT_BACKEND
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend() == "numpy"
        # an explicit name beats the environment
        assert resolve_backend("tcu-sim") == "tcu-sim"

    def test_env_override_reaches_compile_options(self, monkeypatch, heat2d):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        options = resolve_compile_options(heat2d, (40, 44))
        assert options.backend == "numpy"

    def test_custom_backend_registers_and_unregisters(self):
        class EchoBackend(StencilBackend):
            name = "echo-test"

            def make_sweep(self, context):  # pragma: no cover - never run
                raise NotImplementedError

        register_backend(EchoBackend())
        try:
            assert "echo-test" in registered_backends()
            assert isinstance(get_backend("echo-test"), EchoBackend)
        finally:
            import repro.core.codegen as codegen
            with codegen._BACKENDS_LOCK:
                codegen._BACKENDS.pop("echo-test", None)


# --------------------------------------------------------------------------- #
# fingerprint isolation
# --------------------------------------------------------------------------- #
class TestFingerprintIsolation:
    def test_backend_changes_fingerprint(self, heat2d):
        sim = resolve_compile_options(heat2d, (40, 44), backend="tcu-sim")
        fast = resolve_compile_options(heat2d, (40, 44), backend="numpy")
        assert compile_fingerprint(sim) != compile_fingerprint(fast)

    def test_default_backend_fingerprint_stable(self, heat2d, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        implicit = resolve_compile_options(heat2d, (40, 44))
        explicit = resolve_compile_options(heat2d, (40, 44),
                                           backend="tcu-sim")
        assert compile_fingerprint(implicit) == compile_fingerprint(explicit)

    def test_compiled_plan_records_backend(self, heat2d, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        compiled = compile_stencil(heat2d, (40, 44), backend="numpy")
        assert compiled.backend == "numpy"
        assert compile_stencil(heat2d, (40, 44)).backend == DEFAULT_BACKEND


# --------------------------------------------------------------------------- #
# cache isolation
# --------------------------------------------------------------------------- #
class TestCacheIsolation:
    def test_cross_backend_lookup_is_a_miss(self, heat2d):
        cache = CompileCache()
        sim = cache.compile(heat2d, (40, 44), backend="tcu-sim")
        fast = cache.compile(heat2d, (40, 44), backend="numpy")
        stats = cache.snapshot_stats()
        assert stats.misses == 2
        assert stats.hits == 0
        assert sim.backend == "tcu-sim"
        assert fast.backend == "numpy"
        # same-backend lookups still hit
        assert cache.compile(heat2d, (40, 44), backend="numpy") is fast
        assert cache.snapshot_stats().hits == 1

    def test_persisted_plan_not_served_across_backends(self, heat2d,
                                                       tmp_path):
        """Even a tampered persist file (numpy plan renamed onto the
        tcu-sim fingerprint's path) is rejected by the payload's backend
        stamp — a cross-backend serve is silent wrong numerics."""
        writer = CompileCache(persist_dir=tmp_path)
        writer.compile(heat2d, (40, 44), backend="numpy")
        fast_fp = CompileRequest.build(heat2d, (40, 44),
                                       backend="numpy").fingerprint
        sim_fp = CompileRequest.build(heat2d, (40, 44),
                                      backend="tcu-sim").fingerprint
        assert fast_fp != sim_fp
        (tmp_path / f"{fast_fp}.plan.pkl").rename(
            tmp_path / f"{sim_fp}.plan.pkl")

        reader = CompileCache(persist_dir=tmp_path)
        compiled = reader.compile(heat2d, (40, 44), backend="tcu-sim")
        stats = reader.snapshot_stats()
        assert stats.disk_hits == 0          # tampered file rejected
        assert stats.misses == 1             # recompiled instead
        assert compiled.backend == "tcu-sim"

    def test_same_backend_persisted_plan_reloads(self, heat2d, tmp_path):
        CompileCache(persist_dir=tmp_path).compile(heat2d, (40, 44),
                                                   backend="numpy")
        reader = CompileCache(persist_dir=tmp_path)
        compiled = reader.compile(heat2d, (40, 44), backend="numpy")
        stats = reader.snapshot_stats()
        assert stats.disk_hits == 1
        assert compiled.backend == "numpy"

    def test_pre_backend_payload_schema_rejected(self, heat2d, tmp_path):
        """A version-1 payload (no payload_version / backend fields) is a
        plain miss, never a resurrection with unknown backend provenance."""
        from repro.service.cache import _pipeline_version

        cache = CompileCache(persist_dir=tmp_path)
        request = CompileRequest.build(heat2d, (40, 44), backend="tcu-sim")
        compiled = request.compile()
        legacy = {"version": _pipeline_version(), "compiled": compiled,
                  "compile_seconds": 1.0}
        with (tmp_path / f"{request.fingerprint}.plan.pkl").open("wb") as fh:
            pickle.dump(legacy, fh)
        cache.get_or_compile(request)
        stats = cache.snapshot_stats()
        assert stats.disk_hits == 0
        assert stats.misses == 1


# --------------------------------------------------------------------------- #
# functional equivalence
# --------------------------------------------------------------------------- #
class TestNumpyBackendNumerics:
    @pytest.mark.parametrize("fixture_name,grid_shape,iterations", [
        ("heat1d", (256,), 5),
        ("heat2d", (40, 44), 4),
        ("box2d9p", (40, 44), 4),
        ("heat3d", (16, 18, 20), 3),
    ])
    def test_matches_reference_to_ulp(self, fixture_name, grid_shape,
                                      iterations, request):
        """Float64 exact up to summation order: the shifted-view sweep
        accumulates taps in a different order than the reference tensordot,
        so outputs can differ by a few ULPs but nothing more."""
        pattern = request.getfixturevalue(fixture_name)
        grid = make_grid(grid_shape, kind="random", seed=7)
        compiled = compile_stencil(pattern, grid_shape, backend="numpy")
        result = execute_compiled(compiled, grid, iterations)
        reference = run_stencil_iterations(pattern, grid, iterations)
        np.testing.assert_allclose(result.output, reference,
                                   rtol=0.0, atol=1e-12)

    def test_matches_tcu_sim_within_device_tolerance(self, heat2d):
        grid = make_grid((40, 44), kind="random", seed=7)
        sim = execute_compiled(
            compile_stencil(heat2d, (40, 44), backend="tcu-sim"), grid, 4)
        fast = execute_compiled(
            compile_stencil(heat2d, (40, 44), backend="numpy"), grid, 4)
        assert np.max(np.abs(sim.output.astype(np.float64)
                             - fast.output)) < DEVICE_TOL

    def test_modelled_metrics_identical_across_backends(self, heat2d):
        """Backends bill the same roofline estimate, so the *modelled*
        device timing and utilization are bit-equal — only host wall time
        differs (which is the whole point of the fast backend)."""
        grid = make_grid((40, 44), kind="random", seed=7)
        sim = execute_compiled(
            compile_stencil(heat2d, (40, 44), backend="tcu-sim"), grid, 4)
        fast = execute_compiled(
            compile_stencil(heat2d, (40, 44), backend="numpy"), grid, 4)
        assert sim.elapsed_seconds == fast.elapsed_seconds
        assert sim.compute_seconds == fast.compute_seconds
        assert sim.memory_seconds == fast.memory_seconds
        assert sim.gstencil_per_second == fast.gstencil_per_second

    def test_boundary_conditions_respected(self, heat2d):
        for boundary in ("periodic", "reflect"):
            grid = make_grid((40, 44), kind="random", seed=7,
                             boundary=boundary)
            compiled = compile_stencil(heat2d, (40, 44), backend="numpy",
                                       boundary=boundary)
            result = execute_compiled(compiled, grid, 3)
            reference = run_stencil_iterations(heat2d, grid, 3)
            np.testing.assert_allclose(result.output, reference,
                                       rtol=0.0, atol=1e-12)

    def test_sharded_is_bit_identical_to_single(self, heat2d):
        """The repo-wide sharding invariant must hold on this backend too:
        the sweep is elementwise in a fixed tap order, so it computes the
        same bits on a shard-shaped subgrid as on the full grid."""
        grid = make_grid((96, 96), kind="random", seed=7)
        compiled = compile_stencil(heat2d, (96, 96), backend="numpy")
        single = execute_compiled(compiled, grid, 4)
        sharded = ShardedExecutor(4).execute(compiled, grid, 4)
        np.testing.assert_array_equal(single.output, sharded.output)

    def test_temporal_fusion_with_leftover_sweeps(self, heat2d):
        """Fusion changes Dirichlet halo semantics near the boundary (as it
        does for every backend), so the reference comparison is interior
        only — same idiom as tests/test_pipeline.py."""
        grid = make_grid((40, 44), kind="random", seed=7)
        compiled = compile_stencil(heat2d, (40, 44), backend="numpy",
                                   temporal_fusion=2)
        assert compiled.backend == "numpy"
        result = execute_compiled(compiled, grid, 5)  # 2 fused + 1 leftover
        assert result.leftover_sweeps == 1
        reference = run_stencil_iterations(heat2d, grid, 5)
        inner = (slice(5, -5), slice(5, -5))
        np.testing.assert_allclose(result.output[inner], reference[inner],
                                   rtol=0.0, atol=1e-12)
        sim = execute_compiled(
            compile_stencil(heat2d, (40, 44), backend="tcu-sim",
                            temporal_fusion=2), grid, 5)
        assert np.max(np.abs(sim.output.astype(np.float64)
                             - result.output)) < DEVICE_TOL


# --------------------------------------------------------------------------- #
# session integration
# --------------------------------------------------------------------------- #
class TestSessionBackendRouting:
    def test_policy_backend_reaches_provenance(self, heat2d):
        grid = make_grid((40, 44), kind="random", seed=7)
        with StencilSession() as session:
            solution = session.solve(Problem(heat2d, grid, iterations=3),
                                     SolvePolicy(mode="single",
                                                 backend="numpy"))
        assert solution.provenance.backend == "numpy"
        assert solution.compiled.backend == "numpy"
        assert solution.provenance.as_dict()["backend"] == "numpy"
        reference = run_stencil_iterations(heat2d, grid, 3)
        np.testing.assert_allclose(solution.output, reference,
                                   rtol=0.0, atol=1e-12)

    def test_problem_options_backend_equivalent(self, heat2d):
        grid = make_grid((40, 44), kind="random", seed=7)
        with StencilSession() as session:
            solution = session.solve(
                Problem(heat2d, grid, iterations=3,
                        options={"backend": "numpy"}),
                SolvePolicy(mode="single"))
        assert solution.provenance.backend == "numpy"

    def test_conflicting_backends_rejected(self, heat2d):
        grid = make_grid((40, 44), kind="random", seed=7)
        with StencilSession() as session:
            with pytest.raises(ValidationError, match="conflicts"):
                session.solve(
                    Problem(heat2d, grid, iterations=3,
                            options={"backend": "tcu-sim"}),
                    SolvePolicy(mode="single", backend="numpy"))

    def test_agreeing_backends_accepted(self, heat2d):
        grid = make_grid((40, 44), kind="random", seed=7)
        with StencilSession() as session:
            solution = session.solve(
                Problem(heat2d, grid, iterations=3,
                        options={"backend": "numpy"}),
                SolvePolicy(mode="single", backend="numpy"))
        assert solution.provenance.backend == "numpy"

    def test_backend_isolated_in_session_cache(self, heat2d):
        grid = make_grid((40, 44), kind="random", seed=7)
        with StencilSession() as session:
            session.solve(Problem(heat2d, grid, iterations=2),
                          SolvePolicy(mode="single", backend="tcu-sim"))
            session.solve(Problem(heat2d, grid, iterations=2),
                          SolvePolicy(mode="single", backend="numpy"))
            stats = session.cache.snapshot_stats()
        assert stats.misses == 2

    def test_run_records_backend(self, heat2d):
        grid = make_grid((40, 44), kind="random", seed=7)
        compiled = compile_stencil(heat2d, (40, 44), backend="numpy")
        with StencilSession() as session:
            solution = session.run(compiled, grid, 3)
        assert solution.provenance.backend == "numpy"

    def test_baseline_provenance_backend_empty(self, heat2d):
        grid = make_grid((40, 44), kind="random", seed=7)
        with StencilSession() as session:
            solution = session.solve(Problem(heat2d, grid, iterations=2),
                                     SolvePolicy(mode="baseline:tcstencil"))
        assert solution.provenance.backend == ""
