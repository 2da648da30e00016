"""Tests for multi-stage stencil programs (:mod:`repro.programs`).

Covers the full contract of the subsystem: DAG validation (cycles, wiring,
dead stages), the program fingerprint (wiring-sensitive, name-insensitive),
the fused-vs-unfused golden equivalence matrix across execution paths and
boundary conditions, per-stage cache attribution, the cost model's exchange
accounting, and the session-layer routing (``Problem(program=...)``,
provenance, scheduler gates), and the sharded layout memo (a warm run
equals a fresh one, stage names included).
"""

import dataclasses
import itertools
from contextlib import suppress
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro import (
    STATE,
    Problem,
    ProgramRunner,
    ProgramStage,
    ShardedProgramRunner,
    SolvePolicy,
    StencilPattern,
    StencilProgram,
    StencilSession,
    compile_program,
    model_program,
    run_program_reference,
)
from repro.engine import ShardedExecutor, SingleDeviceExecutor
from repro.obs.metrics import global_registry
from repro.programs import plan_fusion, stage_cache_attribution
from repro.service.cache import CompileCache
from repro.stencils.boundary import neumann
from repro.stencils.grid import make_grid
from repro.tcu.spec import GPUSpec, MultiDeviceSpec
from repro.util.validation import ValidationError

FP16_TOL = 5e-3
SHAPE = (64, 64)
STEPS = 3

HEAT = StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1])
BLUR = StencilPattern.box(2, 1, weights=[1.0 / 9.0] * 9)
WIDE = StencilPattern.star(2, 2,
                           weights=[0.6, 0.05, 0.05, 0.05, 0.05,
                                    0.05, 0.05, 0.05, 0.05])


#: Every boundary kind, Neumann with a non-zero flux included.
BOUNDARIES = ["dirichlet", "periodic", "reflect", neumann(0.5)]

#: Shares window plans across the one-stage examples' sharded runs.
ONE_STAGE_CACHE = CompileCache()


@lru_cache(maxsize=None)
def _one_stage_plan(ndim, kind, radius, boundary, backend):
    """A one-stage chain of a ``kind`` pattern and a grid to run it on."""
    program = StencilProgram.chain(
        "one", [("only", getattr(StencilPattern, kind)(ndim, radius))])
    grid = make_grid({1: (64,), 2: (32, 32), 3: (16, 16, 16)}[ndim],
                     kind="random", seed=3, boundary=boundary)
    return compile_program(program, grid, ONE_STAGE_CACHE,
                           options=dict(backend=backend)), grid


def run_bill(result):
    """A run's output bytes and modelled seconds."""
    return (result.output.tobytes(), result.elapsed_seconds,
            result.compute_seconds, result.memory_seconds)


def two_stage_chain(name="heat-blur"):
    return StencilProgram.chain(name, [("heat", HEAT), ("blur", BLUR)])


def dag_program(name="fork"):
    """A live non-chain DAG: the output stage taps both the state and an
    intermediate stage."""
    return StencilProgram(
        name=name,
        stages=(
            ProgramStage("a", taps=((STATE, HEAT),)),
            ProgramStage("b", taps=((STATE, BLUR), ("a", HEAT))),
        ),
        output="b")


# --------------------------------------------------------------------- #
# DAG validation
# --------------------------------------------------------------------- #
class TestProgramValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            StencilProgram(
                name="loop",
                stages=(
                    ProgramStage("a", taps=(("b", HEAT),)),
                    ProgramStage("b", taps=(("a", BLUR),)),
                ),
                output="b")

    def test_unknown_source_rejected(self):
        with pytest.raises(ValidationError, match="neither"):
            StencilProgram(
                name="dangling",
                stages=(ProgramStage("a", taps=(("ghost", HEAT),)),),
                output="a")

    def test_unknown_output_rejected(self):
        with pytest.raises(ValidationError):
            StencilProgram(
                name="no-output",
                stages=(ProgramStage("a", taps=((STATE, HEAT),)),),
                output="zz")

    def test_dead_stage_rejected(self):
        with pytest.raises(ValidationError, match="dead|unreachable|live"):
            StencilProgram(
                name="dead",
                stages=(
                    ProgramStage("a", taps=((STATE, HEAT),)),
                    ProgramStage("dangler", taps=((STATE, BLUR),)),
                ),
                output="a")

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValidationError):
            StencilProgram(
                name="dupes",
                stages=(
                    ProgramStage("a", taps=((STATE, HEAT),)),
                    ProgramStage("a", taps=((STATE, BLUR),)),
                ),
                output="a")

    def test_state_name_reserved(self):
        with pytest.raises(ValidationError):
            StencilProgram(
                name="reserved",
                stages=(ProgramStage(STATE, taps=((STATE, HEAT),)),),
                output=STATE)

    def test_empty_program_rejected(self):
        with pytest.raises(ValidationError):
            StencilProgram(name="empty", stages=())

    def test_chain_properties(self):
        program = two_stage_chain()
        assert program.is_chain
        assert program.uniform_radius
        assert program.stage_names == ("heat", "blur")
        assert program.output == "blur"
        assert program.radius == 1

    def test_execution_order_topological(self):
        program = StencilProgram(
            name="diamond",
            stages=(
                ProgramStage("combine", taps=(("left", HEAT),
                                              ("right", BLUR))),
                ProgramStage("left", taps=((STATE, HEAT),)),
                ProgramStage("right", taps=((STATE, BLUR),)),
            ),
            output="combine")
        order = [stage.name for stage in program.execution_order]
        assert order.index("combine") > order.index("left")
        assert order.index("combine") > order.index("right")
        assert not program.is_chain


# --------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------- #
class TestProgramFingerprint:
    def grid(self):
        return make_grid(SHAPE, kind="random", seed=7)

    def test_stage_rename_preserves_fingerprint(self):
        grid = self.grid()
        a = compile_program(two_stage_chain(), grid)
        b = compile_program(
            StencilProgram.chain("heat-blur",
                                 [("first", HEAT), ("second", BLUR)]),
            grid)
        assert a.fingerprint == b.fingerprint

    def test_stage_permutation_changes_fingerprint(self):
        grid = self.grid()
        forward = compile_program(two_stage_chain(), grid)
        backward = compile_program(
            StencilProgram.chain("heat-blur",
                                 [("blur", BLUR), ("heat", HEAT)]),
            grid)
        assert forward.fingerprint != backward.fingerprint

    def test_kernel_change_changes_fingerprint(self):
        grid = self.grid()
        a = compile_program(two_stage_chain(), grid)
        b = compile_program(
            StencilProgram.chain("heat-heat",
                                 [("heat", HEAT), ("heat2", HEAT)]),
            grid)
        assert a.fingerprint != b.fingerprint

    def test_wiring_change_changes_fingerprint(self):
        """Same stages, same kernels, different wiring — the combine stage
        swaps which upstream feeds which tap, so only the source indices in
        the payload change."""
        grid = self.grid()

        def diamond(name, first_source, second_source):
            return StencilProgram(
                name=name,
                stages=(
                    ProgramStage("a", taps=((STATE, HEAT),)),
                    ProgramStage("b", taps=((STATE, BLUR),)),
                    ProgramStage("c", taps=((first_source, HEAT),
                                            (second_source, BLUR))),
                ),
                output="c")

        forward = compile_program(diamond("fwd", "a", "b"), grid)
        crossed = compile_program(diamond("xed", "b", "a"), grid)
        assert forward.fingerprint != crossed.fingerprint

    def test_stage_fingerprints_exposed(self):
        plan = compile_program(two_stage_chain(), self.grid())
        assert set(plan.stage_fingerprints) == {"heat", "blur"}
        assert all(len(fps) == 1 and fps[0]
                   for fps in plan.stage_fingerprints.values())


# --------------------------------------------------------------------- #
# golden equivalence matrix
# --------------------------------------------------------------------- #
class TestGoldenEquivalence:
    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic", "reflect"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_matches_single_bitwise(self, boundary, shards):
        """Fused and unfused sharded execution are bit-identical to the
        single-device program runner on every boundary condition."""
        program = two_stage_chain()
        grid = make_grid(SHAPE, kind="random", seed=11, boundary=boundary)
        plan = compile_program(program, grid)
        single = ProgramRunner().execute(plan, grid, STEPS)
        for fuse in (True, False):
            runner = ShardedProgramRunner(shards, fuse=fuse)
            sharded = runner.execute(plan, grid, STEPS)
            assert np.array_equal(single.output, sharded.output), \
                f"boundary={boundary} shards={shards} fuse={fuse}"

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic", "reflect"])
    def test_single_matches_reference(self, boundary):
        program = two_stage_chain()
        grid = make_grid(SHAPE, kind="random", seed=11, boundary=boundary)
        plan = compile_program(program, grid)
        result = ProgramRunner().execute(plan, grid, STEPS)
        reference = run_program_reference(program, grid, STEPS)
        error = np.max(np.abs(result.output.astype(np.float64) - reference))
        assert error < FP16_TOL

    @settings(max_examples=24, deadline=None)
    @given(ndim=st.integers(1, 3), kind=st.sampled_from(["star", "box"]),
           radius=st.integers(1, 2), boundary=st.sampled_from(BOUNDARIES),
           backend=st.sampled_from(["numpy", "tcu-sim"]),
           iterations=st.integers(1, 5))
    def test_single_stage_program_matches_engine(self, ndim, kind, radius,
                                                 boundary, backend,
                                                 iterations):
        """A kernel is its one-stage program: on one device and on 2 and 4
        shards, the program runners reproduce the kernel executors' output
        bytes and modelled seconds exactly."""
        plan, grid = _one_stage_plan(ndim, kind, radius, boundary, backend)
        kernel = plan.stages[0].compiled[0]
        pairs = [(SingleDeviceExecutor().execute(kernel, grid, iterations),
                  ProgramRunner().execute(plan, grid, iterations))]
        for shards in (2, 4):
            pairs.append((
                ShardedExecutor(shards, cache=ONE_STAGE_CACHE,
                                halo_depth=1).execute(kernel, grid,
                                                      iterations),
                ShardedProgramRunner(shards, cache=ONE_STAGE_CACHE).execute(
                    plan, grid, iterations)))
        for via_kernel, via_program in pairs:
            assert run_bill(via_program) == run_bill(via_kernel)

    def test_multi_tap_dag_matches_reference(self):
        identity = np.zeros((3, 3))
        identity[1, 1] = 1.0
        program = StencilProgram(
            name="dag",
            stages=(
                ProgramStage("half", taps=((STATE, HEAT),)),
                ProgramStage("update", taps=(
                    (STATE, StencilPattern.from_dense(identity,
                                                      name="identity")),
                    ("half", BLUR),
                )),
            ),
            output="update")
        grid = make_grid(SHAPE, kind="random", seed=5, boundary="periodic")
        plan = compile_program(program, grid)
        result = ProgramRunner().execute(plan, grid, STEPS)
        reference = run_program_reference(program, grid, STEPS)
        error = np.max(np.abs(result.output.astype(np.float64) - reference))
        assert error < FP16_TOL

    def test_mixed_radius_chain_matches_reference(self):
        program = StencilProgram.chain("mixed", [("wide", WIDE),
                                                 ("blur", BLUR)])
        grid = make_grid(SHAPE, kind="random", seed=9, boundary="reflect")
        plan = compile_program(program, grid)
        result = ProgramRunner().execute(plan, grid, STEPS)
        reference = run_program_reference(program, grid, STEPS)
        error = np.max(np.abs(result.output.astype(np.float64) - reference))
        assert error < FP16_TOL


# --------------------------------------------------------------------- #
# fusion planning and the cost model
# --------------------------------------------------------------------- #
class TestFusion:
    def test_equal_radius_chain_fuses(self):
        fusion = plan_fusion(two_stage_chain())
        assert fusion.fusable and fusion.fused
        assert fusion.groups == (("heat", "blur"),)

    def test_mixed_radius_chain_splits_groups(self):
        fusion = plan_fusion(
            StencilProgram.chain("mixed", [("wide", WIDE), ("blur", BLUR)]))
        assert fusion.fusable and not fusion.fused
        assert fusion.groups == (("wide",), ("blur",))

    def test_non_chain_does_not_fuse(self):
        fusion = plan_fusion(dag_program())
        assert not fusion.fusable

    def test_bounded_rechunks_groups(self):
        fusion = plan_fusion(StencilProgram.chain(
            "quad", [(f"s{i}", BLUR) for i in range(4)]))
        assert fusion.groups == (("s0", "s1", "s2", "s3"),)
        assert fusion.bounded(2) == (("s0", "s1"), ("s2", "s3"))
        assert fusion.bounded(3) == (("s0", "s1", "s2"), ("s3",))

    def test_fusion_cuts_exchange_count(self):
        grid = make_grid(SHAPE, kind="random", seed=11, boundary="reflect")
        plan = compile_program(two_stage_chain(), grid)
        fused = model_program(plan, devices=4, steps=STEPS, fuse=True)
        unfused = model_program(plan, devices=4, steps=STEPS, fuse=False)
        # fused: one exchange per step per group (minus the free first
        # round); unfused: one per stage
        assert fused.exchange_count == STEPS - 1
        assert unfused.exchange_count == 2 * STEPS - 1
        assert fused.exchange_count < unfused.exchange_count

    def test_model_matches_executed_exchanges(self):
        grid = make_grid(SHAPE, kind="random", seed=11, boundary="reflect")
        plan = compile_program(two_stage_chain(), grid)
        for fuse in (True, False):
            model = model_program(plan, devices=4, steps=STEPS, fuse=fuse)
            run = ShardedProgramRunner(4, fuse=fuse).execute(
                plan, grid, STEPS)
            assert run.halo_exchange_count == model.exchange_count

    def test_unshardable_program_models_single(self):
        grid = make_grid(SHAPE, kind="random", seed=11)
        program = StencilProgram.chain("mixed", [("wide", WIDE),
                                                 ("blur", BLUR)])
        model = model_program(compile_program(program, grid), devices=4,
                              steps=STEPS)
        assert model.sharded_seconds is None
        assert model.recommendation == "single"

    def test_sharded_rejects_non_chain(self):
        grid = make_grid(SHAPE, kind="random", seed=11)
        plan = compile_program(dag_program(), grid)
        with pytest.raises(ValidationError, match="chain"):
            ShardedProgramRunner(2).execute(plan, grid, STEPS)


# --------------------------------------------------------------------- #
# per-stage cache attribution
# --------------------------------------------------------------------- #
class TestStageCacheAttribution:
    def test_warm_resolve_is_all_stage_hits(self):
        attribution = stage_cache_attribution()
        attribution.reset()
        cache = CompileCache(capacity=16)
        program = two_stage_chain(name="warmth")
        grid = make_grid(SHAPE, kind="random", seed=13)

        compile_program(program, grid, cache)
        cold = {name: attribution.row("warmth", name)
                for name in program.stage_names}
        assert all(row["compile"] == 1 and row["hit"] == 0
                   for row in cold.values())

        compile_program(program, grid, cache)
        warm = {name: attribution.row("warmth", name)
                for name in program.stage_names}
        assert all(row["compile"] == 1 and row["hit"] == 1
                   for row in warm.values())

    def test_attribution_in_global_metrics_snapshot(self):
        from repro.obs.metrics import global_registry

        attribution = stage_cache_attribution()
        attribution.reset()
        program = two_stage_chain(name="snap")
        grid = make_grid(SHAPE, kind="random", seed=13)
        compile_program(program, grid, CompileCache(capacity=16))
        snapshot = global_registry().snapshot()
        section = snapshot["program_stage_cache"]
        assert "snap/heat" in section and "snap/blur" in section


# --------------------------------------------------------------------- #
# session routing
# --------------------------------------------------------------------- #
#: A pool whose links are fast enough that ``auto`` shards the 64x64 chain
#: (a general DAG never shards).
FAST_POOL = MultiDeviceSpec(device_count=4, interconnect_bandwidth_gbs=1e4,
                            link_latency_seconds=1e-9)
SESSION_PROGRAMS = {"chain": two_stage_chain, "dag": dag_program}
#: The executor each ``(program, mode)`` runs on, and the fusion groups it
#: records: a sharded chain fuses its equal-radius stages under one
#: exchange, one device has no exchange to fuse.
SESSION_ROUTES = {
    ("chain", "single"): ("single", (("heat",), ("blur",))),
    ("chain", "sharded"): ("sharded", (("heat", "blur"),)),
    ("chain", "auto"): ("sharded", (("heat", "blur"),)),
    ("dag", "single"): ("single", (("a",), ("b",))),
    ("dag", "auto"): ("single", (("a",), ("b",))),
}
#: The stage of each ``stage_fingerprints`` entry (one entry per tap).
STAGE_TAPS = {"chain": ["heat", "blur"], "dag": ["a", "b", "b"]}


class TestSessionPrograms:
    def test_problem_validation(self):
        grid = make_grid(SHAPE, kind="random", seed=1)
        with pytest.raises(ValidationError):
            Problem(pattern=HEAT, grid=grid, iterations=2,
                    program=two_stage_chain())
        with pytest.raises(ValidationError):
            Problem(grid=grid, iterations=2)
        with pytest.raises(ValidationError):
            Problem(program=two_stage_chain(), grid=None, iterations=2)
        problem = Problem(program=two_stage_chain(), grid=grid, iterations=2)
        assert problem.is_program
        with pytest.raises(ValidationError):
            problem.compile_request()

    @pytest.mark.parametrize("mode", ["single", "sharded", "auto"])
    @pytest.mark.parametrize("kind", ["chain", "dag"])
    def test_solve_runs_on_the_device_count_executor(self, kind, mode):
        grid = make_grid(SHAPE, kind="random", seed=2, boundary="reflect")
        program = SESSION_PROGRAMS[kind](name=f"session-{kind}-{mode}")
        problem = Problem(program=program, grid=grid, iterations=STEPS)
        attribution = stage_cache_attribution()

        def stage_hits():
            return {name: attribution.row(program.name, name)["hit"]
                    for name in program.stage_names}

        with StencilSession(devices=FAST_POOL) as session:
            if (kind, mode) == ("dag", "sharded"):
                with pytest.raises(ValidationError, match="chain"):
                    session.solve(problem, mode=mode)
                return
            session.solve(problem, mode=mode)
            before = stage_hits()
            solution = session.solve(problem, mode=mode)
            after = stage_hits()
            decision = session.decide(problem)
        # a warm solve compiles the program once: one hit per stage tap
        assert {name: after[name] - before[name] for name in after} \
            == {stage.name: len(stage.taps) for stage in program.stages}

        executor, groups = SESSION_ROUTES[kind, mode]
        provenance = solution.provenance
        assert provenance.executor == executor
        assert provenance.delegate is None
        assert provenance.mode_requested == mode
        if mode == "auto":
            assert decision.executor == executor
            assert provenance.reason == decision.reason
        assert provenance.fusion_groups == groups
        assert provenance.as_dict()["fusion_groups"] \
            == [list(group) for group in groups]

        plan = compile_program(program, grid)
        assert solution.fingerprint == solution.compiled.fingerprint \
            == plan.fingerprint
        assert provenance.stage_fingerprints == tuple(
            f"{cstage.name}:{fingerprint}" for cstage in plan.stages
            for fingerprint in cstage.fingerprints)
        assert [entry.split(":")[0]
                for entry in provenance.stage_fingerprints] \
            == STAGE_TAPS[kind]

        single = ProgramRunner().execute(plan, grid, STEPS)
        if executor == "sharded":
            direct = ShardedProgramRunner(FAST_POOL).execute(
                plan, grid, STEPS)
        else:
            direct = single
        assert provenance.devices == getattr(direct, "device_count", 1)
        assert run_bill(solution.result) == run_bill(direct)
        assert solution.output.tobytes() == single.output.tobytes()

    def test_program_mode_is_gone(self):
        grid = make_grid(SHAPE, kind="random", seed=2)
        with StencilSession() as session:
            assert "program" not in session.registry.available()
            for problem in (Problem(program=two_stage_chain(), grid=grid,
                                    iterations=2),
                            Problem(HEAT, grid, 2)):
                with pytest.raises(ValidationError,
                                   match="unknown solve mode 'program'"):
                    session.solve(problem, mode="program")

    def test_solution_summary(self):
        grid = make_grid(SHAPE, kind="random", seed=2)
        with StencilSession() as session:
            solution = session.solve(
                Problem(program=two_stage_chain(), grid=grid,
                        iterations=STEPS, tag="rk"), mode="single")
        summary = solution.summary()
        assert summary["tag"] == "rk"
        assert summary["fingerprint"] == solution.compiled.fingerprint
        assert summary["iterations"] == STEPS
        assert summary["elapsed_seconds"] == solution.elapsed_seconds
        assert summary["gstencil_per_second"] \
            == solution.gstencil_per_second
        assert summary["executor"] == "single"
        assert summary["delegate"] is None
        assert summary["stage_fingerprints"] \
            == list(solution.provenance.stage_fingerprints)
        assert summary["fusion_groups"] == [["heat"], ["blur"]]

    def test_run_takes_a_compiled_program(self):
        grid = make_grid(SHAPE, kind="random", seed=2, boundary="reflect")
        problem = Problem(program=two_stage_chain(), grid=grid,
                          iterations=STEPS)
        with StencilSession() as session:
            plan = session.compile(problem)
            ran = session.run(plan, grid, STEPS, tag="pre")
            solved = session.solve(problem, mode="single")
        assert run_bill(ran.result) == run_bill(solved.result)
        assert ran.result.tag == "pre"
        assert ran.fingerprint == ""
        assert ran.provenance == dataclasses.replace(
            solved.provenance, reason="precompiled plan executed directly")

    def test_baseline_rejects_programs(self):
        grid = make_grid(SHAPE, kind="random", seed=2)
        with StencilSession() as session:
            with pytest.raises(ValidationError, match="a program problem "
                               "cannot run on a baseline comparator"):
                session.solve_baseline(
                    Problem(program=two_stage_chain(), grid=grid,
                            iterations=2), "cudnn")

    def test_served_mode_rejected_for_programs(self):
        grid = make_grid(SHAPE, kind="random", seed=2)
        with StencilSession() as session:
            with pytest.raises(ValidationError, match="served|not supported"):
                session.solve(Problem(program=two_stage_chain(), grid=grid,
                                      iterations=2), mode="served")

    def test_session_compile_returns_program_plan(self):
        grid = make_grid(SHAPE, kind="random", seed=2)
        with StencilSession() as session:
            plan = session.compile(Problem(program=two_stage_chain(),
                                           grid=grid, iterations=2))
            again = session.compile(Problem(program=two_stage_chain(),
                                            grid=grid, iterations=2))
        assert plan.fingerprint == again.fingerprint
        assert plan.stage_count == 2

    def test_auto_sharded_program_runs_at_the_priced_overlap(self):
        """``auto`` runs a sharded program at the overlap the scheduler
        priced it at (``SessionConfig.overlap``), as it runs kernels."""
        grid = make_grid(SHAPE, kind="random", seed=2)
        problem = Problem(program=two_stage_chain(), grid=grid,
                          iterations=STEPS)
        pool = MultiDeviceSpec(device_count=4, interconnect_bandwidth_gbs=1e4,
                               link_latency_seconds=1e-9)
        with StencilSession(devices=pool, overlap=False) as session:
            decision = session.decide(problem)
            solution = session.solve(problem)
            plan = session.compile(problem)
            spec = session.scheduler.spec_for(decision, plan)
        assert decision.executor == "sharded"
        assert decision.overlap is False
        assert solution.result.overlap is False
        direct = ShardedProgramRunner(spec, overlap=False).execute(
            plan, grid, STEPS)
        assert solution.result.halo_exposed_seconds \
            == direct.halo_exposed_seconds > 0.0
        assert run_bill(solution.result) == run_bill(direct)

    @pytest.mark.parametrize("mode", ["sharded", "auto"])
    def test_sharded_program_rejects_an_explicit_halo_depth(self, mode):
        """A sharded program's depth is its fusion-group span: an explicit
        ``halo_depth`` is an error, never silently dropped."""
        grid = make_grid(SHAPE, kind="random", seed=2)
        problem = Problem(program=two_stage_chain(), grid=grid,
                          iterations=STEPS)
        pool = MultiDeviceSpec(device_count=4, interconnect_bandwidth_gbs=1e4,
                               link_latency_seconds=1e-9)
        with StencilSession(devices=pool) as session:
            assert session.decide(problem).executor == "sharded"
            with pytest.raises(ValidationError,
                               match="fusion-group span"):
                session.solve(problem, mode=mode, halo_depth=2)
            # one device has no halo: single mode ignores the depth, as it
            # does for kernels
            single = session.solve(problem, mode="single", halo_depth=2)
        assert single.provenance.executor == "single"

    def test_decide_program_gates(self):
        grid = make_grid(SHAPE, kind="random", seed=2)
        with StencilSession(devices=4) as session:
            decision = session.decide(
                Problem(program=two_stage_chain(), grid=grid,
                        iterations=STEPS))
        # a 64x64 grid is latency-bound: the scheduler must keep it local
        assert decision.executor == "single"
        assert decision.reason


# --------------------------------------------------------------------- #
# sharded layout memo
# --------------------------------------------------------------------- #

LAYOUT_SETTINGS = dict(max_examples=12, deadline=None)
LAYOUT_BOUNDARIES = BOUNDARIES
#: Two device models differing on both roofline sides, so a memory-bound
#: window plan is priced differently too.
LAYOUT_DEVICES = [GPUSpec(),
                  GPUSpec(clock_ghz=1.0, global_bandwidth_gbs=900.0)]
LAYOUT_LINKS = [(600.0, 2e-6), (1e4, 1e-9)]
LAYOUT_EXTENTS = {1: (40, 300), 2: (24, 72), 3: (10, 18)}


def layout_facts(result):
    """Every :class:`ShardedRunResult` field but the host-time
    ``overhead_seconds``, with the output as raw bytes."""
    return {field.name: (result.output.tobytes() if field.name == "output"
                         else getattr(result, field.name))
            for field in dataclasses.fields(result)
            if field.name != "overhead_seconds"}


@lru_cache(maxsize=None)
def _layout_program_plan(names, ndim, kinds, shape, boundary, backend):
    program = StencilProgram.chain(
        "-".join(names), [(name, getattr(StencilPattern, kind)(ndim, 1))
                          for name, kind in zip(names, kinds)])
    grid = make_grid(shape, kind="random", seed=4, boundary=boundary)
    plan = compile_program(program, grid, options=dict(
        backend=backend, search=False, r1=2, r2=2))
    return plan, grid


@st.composite
def program_layout_cases(draw):
    ndim = draw(st.integers(1, 3))
    low, high = LAYOUT_EXTENTS[ndim]
    kinds = tuple(draw(st.lists(st.sampled_from(["star", "box"]),
                                min_size=1, max_size=3)))
    plan = dict(names=tuple(f"s{index}" for index in range(len(kinds))),
                ndim=ndim, kinds=kinds,
                shape=tuple(draw(st.integers(low, high))
                            for _ in range(ndim)),
                boundary=draw(st.sampled_from(LAYOUT_BOUNDARIES)),
                backend=draw(st.sampled_from(["tcu-sim", "numpy"])))
    devices = draw(st.sampled_from([2, 4, 8]))
    grids = [grid for grid in itertools.product([1, 2, 4, 8], repeat=ndim)
             if 2 <= int(np.prod(grid)) <= devices]
    cluster = dict(devices=devices, device=draw(st.integers(0, 1)),
                   link=LAYOUT_LINKS[draw(st.integers(0, 1))])
    runner = dict(shard_grid=draw(st.one_of(st.none(),
                                            st.sampled_from(grids))),
                  fuse=draw(st.booleans()))
    return plan, cluster, runner, draw(st.integers(1, 3)), grids


def _program_layout_variants(plan, cluster, runner, grids):
    """Inputs that each differ from the case in exactly one input of the
    program layout key: a fingerprint, the stage names (same fingerprint),
    each cluster field, the shard grid and ``fuse``."""
    bandwidth, latency = cluster["link"]
    other = LAYOUT_LINKS[1 - LAYOUT_LINKS.index(cluster["link"])]
    choices = [None] + grids
    edits = [
        ("plan", "shape", plan["shape"][:-1] + (plan["shape"][-1] + 8,)),
        ("plan", "names", tuple(f"t{index}"
                                for index in range(len(plan["names"])))),
        ("cluster", "devices", 8 if cluster["devices"] != 8 else 4),
        ("cluster", "device", 1 - cluster["device"]),
        ("cluster", "link", (other[0], latency)),
        ("cluster", "link", (bandwidth, other[1])),
        ("runner", "shard_grid", choices[(choices.index(runner["shard_grid"])
                                          + 1) % len(choices)]),
        ("runner", "fuse", not runner["fuse"]),
    ]
    for part, field, value in edits:
        case = {"plan": dict(plan), "cluster": dict(cluster),
                "runner": dict(runner)}
        case[part][field] = value
        yield case


def _run_program_layout(plan, cluster, runner, steps, cache):
    compiled, grid = _layout_program_plan(**plan)
    bandwidth, latency = cluster["link"]
    spec = MultiDeviceSpec(device=LAYOUT_DEVICES[cluster["device"]],
                           device_count=cluster["devices"],
                           interconnect_bandwidth_gbs=bandwidth,
                           link_latency_seconds=latency)
    sharded = ShardedProgramRunner(spec, cache=cache, **runner)
    result = sharded.execute(compiled, grid, steps)
    return result, sharded.partition(compiled)[1]


class TestProgramLayoutMemo:
    @settings(**LAYOUT_SETTINGS)
    @given(case=program_layout_cases())
    def test_warm_run_equals_fresh(self, case):
        plan, cluster, runner, steps, grids = case
        warm = CompileCache()
        for variant in _program_layout_variants(plan, cluster, runner, grids):
            with suppress(ValidationError):
                _run_program_layout(variant["plan"], variant["cluster"],
                                    variant["runner"], 1, warm)
        try:
            fresh, fresh_groups = _run_program_layout(
                plan, cluster, runner, steps, CompileCache())
        except ValidationError:
            event("partition rejected")
            with pytest.raises(ValidationError):
                _run_program_layout(plan, cluster, runner, steps, warm)
            return
        event("compared")
        _run_program_layout(plan, cluster, runner, steps, warm)
        hits = global_registry().counter("engine.shard_layout_hits").value
        memoized, groups = _run_program_layout(plan, cluster, runner, steps,
                                               warm)
        assert global_registry().counter(
            "engine.shard_layout_hits").value == hits + 1
        assert groups == fresh_groups
        assert {name for group in groups for name in group} \
            == set(plan["names"])
        assert layout_facts(memoized) == layout_facts(fresh)

    def test_stage_names_key_the_layout(self):
        """Two programs equal but for their program and stage names share a
        fingerprint, never a layout: each solve reports its own stages."""
        grid = make_grid(SHAPE, kind="random", seed=6, boundary="periodic")
        programs = [StencilProgram.chain("first", [("a", HEAT), ("b", BLUR)]),
                    StencilProgram.chain("second",
                                         [("x", HEAT), ("y", BLUR)])]
        with StencilSession(devices=4) as session:
            solutions = [session.solve(Problem(program=program, grid=grid,
                                               iterations=STEPS),
                                       mode="sharded")
                         for program in programs]
        assert solutions[0].fingerprint == solutions[1].fingerprint
        assert [s.provenance.fusion_groups for s in solutions] \
            == [(("a", "b"),), (("x", "y"),)]
        for program, solution in zip(programs, solutions):
            with StencilSession(devices=4) as fresh_session:
                fresh = fresh_session.solve(
                    Problem(program=program, grid=grid, iterations=STEPS),
                    mode="sharded")
            assert solution.provenance.fusion_groups \
                == fresh.provenance.fusion_groups
            assert layout_facts(solution.result) == layout_facts(fresh.result)

    def test_partition_reads_the_memo(self):
        grid = make_grid(SHAPE, kind="random", seed=6)
        plan = compile_program(two_stage_chain(), grid)
        cache = CompileCache()
        runner = ShardedProgramRunner(4, cache=cache)
        runner.execute(plan, grid, STEPS)
        lookups = cache.snapshot_stats().lookups
        partition, groups = runner.partition(plan)
        assert cache.snapshot_stats().lookups == lookups
        assert (partition, groups) == ShardedProgramRunner(4).partition(plan)
