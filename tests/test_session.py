"""Session-layer tests: the typed Problem→Solution front door.

Covers the PR-4 acceptance criteria:

* every legacy entry point (``run_stencil``, ``sparstencil_solve``,
  ``solve_many``, ``solve_sharded``) emits a
  ``DeprecationWarning`` and returns results bit-identical to the session
  path it delegates to;
* ``StencilSession.solve`` reproduces the golden fixtures across modes
  ``single``, ``sharded`` and ``auto``;
* ``mode="auto"`` demonstrably routes a large catalog problem to sharded
  execution and a small one to the single-device engine;
* tags propagate into :class:`Solution` and ``BatchReport.by_tag``;
* the executor registry is open for custom modes and the telemetry sink
  sees one event per solve.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from golden.generate_golden import CASES as ALL_GOLDEN_CASES, fixture_path

import repro
from repro import (
    Problem,
    SolvePolicy,
    Solution,
    StencilSession,
    compile_stencil,
    get_benchmark,
    make_grid,
)
from repro.engine import SingleDeviceExecutor
from repro.service import CompileCache, SolveRequest
from repro.session.registry import SessionExecutor, default_registry
from repro.session.problem import Provenance
from repro.util.validation import ValidationError

#: The Dirichlet slice of the canonical golden case list (owned by
#: tests/golden/generate_golden.py); the boundary-condition golden variants
#: are exercised by tests/test_boundary.py and the regression suite.
GOLDEN_CASES = [c[:4] for c in ALL_GOLDEN_CASES if c[4] == "dirichlet"]
DRIFT_TOL = 1e-9


def golden_fixture(name):
    return np.load(fixture_path(name))


def golden_workload(name, grid_shape, seed):
    config = get_benchmark(name)
    return config.pattern, make_grid(grid_shape, kind="random", seed=seed)


@pytest.fixture
def session():
    with StencilSession(devices=2) as session:
        yield session


class TestVocabulary:
    def test_problem_folds_dtype_into_options(self, heat2d, small_grid_2d):
        problem = Problem(heat2d, small_grid_2d, 2, dtype=repro.DataType.FP64)
        assert problem.options["dtype"] == repro.DataType.FP64
        # explicit options win over the convenience argument
        problem = Problem(heat2d, small_grid_2d, 2,
                          options={"dtype": repro.DataType.FP16},
                          dtype=repro.DataType.FP64)
        assert problem.options["dtype"] == repro.DataType.FP16

    def test_policy_rejects_empty_modes(self):
        with pytest.raises(ValidationError):
            SolvePolicy(mode="")
        with pytest.raises(ValidationError):
            SolvePolicy(mode="baseline:")

    def test_unknown_mode_raises_at_solve(self, session, heat2d, small_grid_2d):
        with pytest.raises(ValidationError, match="unknown solve mode"):
            session.solve(Problem(heat2d, small_grid_2d, 2), mode="warp-drive")

    def test_solverequest_alias_warns_and_is_a_problem(self, heat2d,
                                                       small_grid_2d):
        with pytest.warns(DeprecationWarning, match="SolveRequest"):
            request = SolveRequest(heat2d, small_grid_2d, 2, tag="alias")
        assert isinstance(request, Problem)
        assert request.tag == "alias"
        assert request.compile_request().fingerprint == Problem(
            heat2d, small_grid_2d, 2).compile_request().fingerprint


class TestLegacyShims:
    """Each legacy entry point warns and stays bit-identical to the session."""

    def test_run_stencil_shim(self, session, heat2d, small_grid_2d):
        compiled = compile_stencil(heat2d, small_grid_2d.shape)
        with pytest.warns(DeprecationWarning, match="run_stencil"):
            legacy = repro.run_stencil(compiled, small_grid_2d, 3)
        solution = session.run(compiled, small_grid_2d, 3)
        assert np.array_equal(legacy.output, solution.output)
        assert solution.provenance.executor == "single"

    def test_sparstencil_solve_shim(self, session, heat2d, small_grid_2d):
        with pytest.warns(DeprecationWarning, match="sparstencil_solve"):
            compiled, legacy = repro.sparstencil_solve(heat2d, small_grid_2d, 3)
        solution = session.solve(Problem(heat2d, small_grid_2d, 3),
                                 mode="single")
        assert np.array_equal(legacy.output, solution.output)
        assert compiled.grid_shape == solution.compiled.grid_shape

    def test_solve_many_shim(self, session, heat2d, box2d9p):
        problems = [Problem(heat2d, make_grid((48, 48), seed=i), 2, tag=f"h{i}")
                    for i in range(3)]
        problems += [Problem(box2d9p, make_grid((48, 48), seed=9), 2, tag="b0")]
        with pytest.warns(DeprecationWarning, match="solve_many"):
            legacy = repro.solve_many(problems)
        report = session.solve_batch(problems)
        for old, new in zip(legacy.items, report.items):
            assert np.array_equal(old.result.output, new.result.output)
            assert old.tag == new.tag
        assert legacy.distinct_plans == report.distinct_plans == 2

    def test_solve_sharded_shim(self, session, heat1d):
        grid = make_grid((2048,), kind="random", seed=2026)
        with pytest.warns(DeprecationWarning, match="solve_sharded"):
            _, legacy = repro.solve_sharded(heat1d, grid, 4, devices=2)
        solution = session.solve(Problem(heat1d, grid, 4),
                                 SolvePolicy(mode="sharded", devices=2))
        assert np.array_equal(legacy.output, solution.output)
        assert legacy.shard_grid == solution.result.shard_grid
        assert solution.provenance.executor == "sharded"

    def test_run_stencil_batch_shim(self, session, heat2d):
        problems = [Problem(heat2d, make_grid((48, 48), seed=i), 2)
                    for i in range(2)]
        with pytest.warns(DeprecationWarning, match="run_stencil_batch"):
            legacy = repro.run_stencil_batch(problems)
        report = session.solve_batch(problems)
        for old, new in zip(legacy, report.results):
            assert np.array_equal(old.output, new.output)


@pytest.mark.parametrize("name,grid_shape,iterations,seed", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
class TestGoldenEquivalence:
    """Session output is held to the same frozen fixtures as the pipeline."""

    def test_single_matches_golden(self, session, name, grid_shape,
                                   iterations, seed):
        pattern, grid = golden_workload(name, grid_shape, seed)
        # the fixtures freeze the tcu-sim pipeline's numerics, so golden
        # comparisons pin the backend regardless of REPRO_BACKEND
        solution = session.solve(Problem(pattern, grid, iterations, tag=name),
                                 mode="single", backend="tcu-sim")
        fixture = golden_fixture(name)
        np.testing.assert_allclose(solution.output, fixture["pipeline"],
                                   rtol=0.0, atol=DRIFT_TOL)
        assert solution.tag == name and solution.result.tag == name

    def test_auto_matches_single_bitwise(self, session, name, grid_shape,
                                         iterations, seed):
        pattern, grid = golden_workload(name, grid_shape, seed)
        auto = session.solve(Problem(pattern, grid, iterations))
        single = session.solve(Problem(pattern, grid, iterations),
                               mode="single")
        assert np.array_equal(auto.output, single.output)
        assert auto.provenance.mode_requested == "auto"
        assert auto.provenance.executor in ("single", "sharded")
        assert auto.provenance.reason

    def test_sharded_matches_single_bitwise(self, session, name, grid_shape,
                                            iterations, seed):
        pattern, grid = golden_workload(name, grid_shape, seed)
        single = session.solve(Problem(pattern, grid, iterations),
                               mode="single", backend="tcu-sim")
        sharded = session.solve(Problem(pattern, grid, iterations),
                                SolvePolicy(mode="sharded", devices=2,
                                            backend="tcu-sim"))
        assert np.array_equal(single.output, sharded.output)
        fixture = golden_fixture(name)
        np.testing.assert_allclose(sharded.output, fixture["pipeline"],
                                   rtol=0.0, atol=DRIFT_TOL)


class TestAutoRouting:
    """The acceptance demonstration: one catalog problem shards, one stays
    single-device, purely by the perf/partition model."""

    def test_large_catalog_problem_routes_sharded(self):
        pattern = get_benchmark("Heat-2D").pattern
        grid = make_grid((2048, 2048), seed=7)
        with StencilSession(devices=4) as session:
            solution = session.solve(Problem(pattern, grid, 2, tag="big"))
            assert solution.provenance.executor == "sharded"
            assert solution.provenance.devices >= 2
            assert "x on" in solution.provenance.reason  # "modelled N.NNx on K devices"
            single = session.solve(Problem(pattern, grid, 2), mode="single")
            assert np.array_equal(solution.output, single.output)

    def test_small_catalog_problem_stays_single(self):
        pattern = get_benchmark("Heat-2D").pattern
        grid = make_grid((96, 96), seed=7)
        with StencilSession(devices=4) as session:
            solution = session.solve(Problem(pattern, grid, 2, tag="small"))
        assert solution.provenance.executor == "single"
        assert solution.provenance.devices == 1
        assert "latency-bound" in solution.provenance.reason

    def test_single_device_pool_never_shards(self, heat2d):
        grid = make_grid((2048, 2048), seed=7)
        with StencilSession(devices=1) as session:
            decision = session.decide(Problem(heat2d, grid, 2))
        assert decision.executor == "single"

    def test_policy_halo_depth_reaches_executor(self, session, heat2d):
        grid = make_grid((130, 130), seed=3)
        problem = Problem(heat2d, grid, 4)
        deep = session.solve(problem, SolvePolicy(mode="sharded", devices=4,
                                                  halo_depth=2))
        shallow = session.solve(problem, SolvePolicy(mode="sharded",
                                                     devices=4))
        assert deep.result.halo_depth == 2
        assert deep.result.halo_exchange_count < \
            shallow.result.halo_exchange_count
        assert shallow.result.halo_depth == 1  # explicit sharded defaults
        assert np.array_equal(deep.output, shallow.output)

    def test_auto_route_adopts_scheduler_depth(self, heat2d):
        grid = make_grid((2048, 2048), seed=7)
        with StencilSession(devices=4, overlap=False) as session:
            solution = session.solve(Problem(heat2d, grid, 2))
        assert solution.provenance.executor == "sharded"
        # auto mode defers the depth choice to the routing decision
        assert solution.result.halo_depth >= 1
        assert solution.result.overlap is False


class TestTagsAndBatch:
    def test_batch_tags_propagate(self, session, heat2d):
        problems = [Problem(heat2d, make_grid((48, 48), seed=i), 2,
                            tag=f"req/{i}") for i in range(4)]
        report = session.solve_batch(problems)
        by_tag = report.by_tag()
        assert sorted(by_tag) == [f"req/{i}" for i in range(4)]
        for tag, item in by_tag.items():
            assert item.result.tag == tag

    def test_batch_shares_session_cache(self, heat2d):
        session = StencilSession()
        problems = [Problem(heat2d, make_grid((48, 48), seed=i), 2)
                    for i in range(3)]
        report = session.solve_batch(problems)
        assert report.compiles_performed == 1
        again = session.solve_batch(problems)
        assert again.compiles_performed == 0  # warm across batches
        # cache=None reproduces the legacy private per-batch cache
        private = session.solve_batch(problems, cache=None)
        assert private.compiles_performed == 1

    def test_served_mode_matches_single(self, heat2d):
        grid = make_grid((48, 48), seed=3)
        with StencilSession(devices=2) as session:
            served = session.solve(Problem(heat2d, grid, 2, tag="s"),
                                   mode="served")
            single = session.solve(Problem(heat2d, grid, 2), mode="single")
            assert np.array_equal(served.output, single.output)
            assert served.provenance.executor == "served"
            assert served.provenance.delegate in ("single", "sharded")
            assert served.compiled is not None
            assert session.metrics()["server"]["completed"] >= 1

    def test_server_submissions_keep_their_tags(self, session, heat2d):
        grid = make_grid((48, 48), seed=5)
        with repro.StencilServer(devices=1) as server:
            old, new = (server.submit_problem(Problem(heat2d, grid, 2,
                                                      tag=tag))
                        for tag in ("old", "new"))
            old, new = old.result(timeout=60), new.result(timeout=60)
        direct = session.solve(Problem(heat2d, grid, 2), mode="single")
        assert np.array_equal(old.output, direct.output)
        assert np.array_equal(new.output, direct.output)
        assert (old.tag, old.run.tag) == ("old", "old")
        assert (new.tag, new.run.tag) == ("new", "new")

    def test_served_mode_rejects_cache_override(self, heat2d):
        grid = make_grid((48, 48), seed=3)
        with StencilSession(devices=1) as session:
            with pytest.raises(ValidationError, match="session cache"):
                session.solve(Problem(heat2d, grid, 2), mode="served",
                              cache=None)
            with pytest.raises(ValidationError, match="session cache"):
                session.solve(Problem(heat2d, grid, 2), mode="served",
                              cache=CompileCache())


class TestTelemetryAndRegistry:
    def test_telemetry_sink_sees_every_solve(self, heat2d):
        events = []
        with StencilSession(devices=2, telemetry=events.append) as session:
            session.solve(Problem(heat2d, make_grid((48, 48), seed=1), 2,
                                  tag="a"))
            session.solve_batch([Problem(heat2d, make_grid((48, 48), seed=2),
                                         2, tag="b")])
        kinds = [event["event"] for event in events]
        assert kinds == ["solve", "solve_batch"]
        solve_event = events[0]
        assert solve_event["tag"] == "a"
        assert solve_event["executor"] == "single"
        assert solve_event["mode_requested"] == "auto"
        assert solve_event["elapsed_seconds"] > 0

    def test_served_solve_emits_exactly_one_event(self, heat2d):
        """Server micro-batches go through the non-emitting engine path, so
        a served solve is one session-level event regardless of routing."""
        events = []
        with StencilSession(devices=2, telemetry=events.append) as session:
            session.solve(Problem(heat2d, make_grid((48, 48), seed=4), 2),
                          mode="served")
        assert [event["event"] for event in events] == ["solve"]
        assert events[0]["executor"] == "served"

    def test_custom_executor_mode(self, heat2d, small_grid_2d):
        class EchoExecutor(SessionExecutor):
            name = "echo"

            def solve(self, session, problem, policy, *, cache,
                      compiled=None, compile_request=None,
                      mode_requested=None, reason=""):
                compiled, creq = self._resolve_plan(
                    problem, cache, compiled, compile_request)
                result = SingleDeviceExecutor(cache=cache).execute(
                    compiled, problem.grid, problem.iterations)
                return Solution(
                    result=self._tagged(result, problem.tag),
                    compiled=compiled,
                    fingerprint=creq.fingerprint,
                    provenance=Provenance(
                        mode_requested=mode_requested or policy.mode,
                        executor=self.name, engine=compiled.engine,
                        devices=1, reason="custom mode"),
                    tag=problem.tag)

        registry = default_registry()
        registry.register("echo", EchoExecutor)
        with StencilSession(registry=registry) as session:
            solution = session.solve(Problem(heat2d, small_grid_2d, 2),
                                     mode="echo")
            reference = session.solve(Problem(heat2d, small_grid_2d, 2),
                                      mode="single")
        assert solution.provenance.executor == "echo"
        assert np.array_equal(solution.output, reference.output)

    def test_registry_rejects_duplicates_and_reserved_names(self):
        registry = default_registry()
        with pytest.raises(ValidationError):
            registry.register("single", object)
        with pytest.raises(ValidationError):
            registry.register("baseline:foo", object)

    def test_baseline_mode_runs_comparator(self, session, heat2d,
                                           small_grid_2d):
        solution = session.solve(Problem(heat2d, small_grid_2d, 2),
                                 mode="baseline:cudnn")
        assert solution.provenance.executor == "baseline:cuDNN"
        assert solution.result.method == "cuDNN"
        assert solution.compiled is None
        assert solution.output.shape == tuple(small_grid_2d.shape)

    def test_baseline_programming_errors_propagate(self, session, heat2d,
                                                   small_grid_2d,
                                                   monkeypatch):
        """Regression: the baseline executor may only swallow
        ``ValidationError`` (problem not expressible as a SparStencil
        compile → empty fingerprint); a programming error raised inside
        ``compile_request()`` must propagate instead of silently producing
        a fingerprint-less Solution."""
        def typo(self):
            raise AttributeError("'CompileRequest' object has no attribute "
                                 "'fingerprnt'")

        monkeypatch.setattr(Problem, "compile_request", typo)
        with pytest.raises(AttributeError):
            session.solve(Problem(heat2d, small_grid_2d, 2),
                          mode="baseline:cudnn")

    def test_baseline_uncompilable_problem_keeps_empty_fingerprint(
            self, session, heat2d, small_grid_2d, monkeypatch):
        def not_compilable(self):
            raise ValidationError("not expressible as a SparStencil compile")

        monkeypatch.setattr(Problem, "compile_request", not_compilable)
        solution = session.solve(Problem(heat2d, small_grid_2d, 2),
                                 mode="baseline:cudnn")
        assert solution.fingerprint == ""

    def test_compare_methods_carries_provenance(self, heat2d, small_grid_2d):
        comparison = repro.compare_methods(
            heat2d, small_grid_2d, 2, ["sparstencil", "cudnn"])
        assert set(comparison.results) == {"SparStencil", "cuDNN"}
        assert comparison.solutions["cuDNN"].provenance.executor \
            == "baseline:cuDNN"
        speedups = comparison.speedup_over("cuDNN")
        assert speedups["SparStencil"] > 1.0


class TestNoInternalShimUsage:
    """The package must never call its own deprecated shims: running a
    representative all-modes workload under ``error::DeprecationWarning``
    must stay silent (the CI strict step runs the whole suite this way)."""

    def test_all_modes_are_warning_free(self, heat2d):
        grid = make_grid((48, 48), seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with StencilSession(devices=2) as session:
                session.solve(Problem(heat2d, grid, 3))          # auto
                session.solve(Problem(heat2d, grid, 3), mode="single")
                session.solve(Problem(heat2d, grid, 4),
                              SolvePolicy(mode="sharded", devices=2))
                session.solve(Problem(heat2d, grid, 3), mode="served")
                session.solve(Problem(heat2d, grid, 3),
                              mode="baseline:cudnn")
                session.solve_batch(
                    [Problem(heat2d, make_grid((48, 48), seed=i), 2)
                     for i in range(3)])
