"""Session-layer tests: the typed Problem→Solution front door.

Covers:

* ``run``, ``solve`` and ``solve_batch`` return results bit-identical to
  the engine-level calls they wrap;
* ``StencilSession.solve`` reproduces the golden fixtures across modes
  ``single``, ``sharded`` and ``auto``;
* ``mode="auto"`` demonstrably routes a large catalog problem to sharded
  execution and a small one to the single-device engine;
* tags propagate into :class:`Solution` and ``BatchReport.by_tag``;
* the executor registry is open for custom modes;
* no mode raises a ``DeprecationWarning``.
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
from repro.core.pipeline import execute_compiled
from repro.engine import ShardedExecutor, SingleDeviceExecutor
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

class TestSessionMatchesEngine:
    """Each session call is bit-identical to the engine call it wraps."""

    def test_run_matches_execute_compiled(self, session, heat2d,
                                          small_grid_2d):
        compiled = compile_stencil(heat2d, small_grid_2d.shape)
        engine = execute_compiled(compiled, small_grid_2d, 3)
        solution = session.run(compiled, small_grid_2d, 3)
        assert np.array_equal(engine.output, solution.output)
        assert solution.provenance.executor == "single"

    def test_single_solve_matches_engine(self, session, heat2d,
                                         small_grid_2d):
        compiled = compile_stencil(heat2d, small_grid_2d.shape)
        engine = execute_compiled(compiled, small_grid_2d, 3)
        solution = session.solve(Problem(heat2d, small_grid_2d, 3),
                                 mode="single")
        assert np.array_equal(engine.output, solution.output)
        assert compiled.grid_shape == solution.compiled.grid_shape

    def test_solve_batch_matches_single_solves(self, session, heat2d,
                                               box2d9p):
        problems = [Problem(heat2d, make_grid((48, 48), seed=i), 2, tag=f"h{i}")
                    for i in range(3)]
        problems += [Problem(box2d9p, make_grid((48, 48), seed=9), 2, tag="b0")]
        report = session.solve_batch(problems)
        for problem, item in zip(problems, report.items):
            single = session.solve(problem, mode="single")
            assert np.array_equal(single.output, item.result.output)
            assert single.tag == item.tag
        assert report.distinct_plans == 2

    def test_sharded_solve_matches_engine(self, session, heat1d):
        grid = make_grid((2048,), kind="random", seed=2026)
        compiled = compile_stencil(heat1d, grid.shape)
        engine = ShardedExecutor(2).execute(compiled, grid, 4)
        solution = session.solve(Problem(heat1d, grid, 4),
                                 SolvePolicy(mode="sharded", devices=2))
        assert np.array_equal(engine.output, solution.output)
        assert engine.shard_grid == solution.result.shard_grid
        assert solution.provenance.executor == "sharded"


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

class TestRegistry:
    def test_custom_executor_mode(self, heat2d, small_grid_2d):
        class EchoExecutor(SessionExecutor):
            name = "echo"

            def solve(self, session, problem, policy, *, compiled=None,
                      compile_request=None, mode_requested=None, reason=""):
                compiled, creq = self._resolve_plan(
                    problem, session.cache, compiled, compile_request)
                result = SingleDeviceExecutor(cache=session.cache).execute(
                    compiled, problem.grid, problem.iterations,
                    tag=problem.tag)
                return Solution(
                    result=result,
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


class TestDeprecationClean:
    """A representative all-modes workload stays silent under
    ``error::DeprecationWarning`` (CI runs the whole tier-1 suite this
    way)."""

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
