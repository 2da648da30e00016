"""Property-based tests: what a warm solve binds once stays exact.

A warm solve reads a problem's canonical compile request from the cache's
request memo (:meth:`CompileCache.request_for`) and a plan's sweep context
from the plan's own memo (:func:`repro.engine.base.plan_memo`).  Both are
keyed by value, so on generated problems:

* a memoized request equals a freshly fingerprinted one, and a freshly
  built equal problem hits it;
* a variant that changes one fingerprinted input — a ``-0.0`` weight, one
  weight ULP, the shape, the boundary or its flux, the dtype, the device
  spec, ``temporal_fusion``, the backend option, ``REPRO_BACKEND`` or the
  problem's options mutated after a solve — misses;
* a renamed pattern keeps its own name, launch name and provenance;
* every memo is bounded and ``CompileCache.clear()`` empties the request
  memo;
* a one-plan run's launch totals are summed once per sweep count, left to
  right;
* threads running warm solves on one session return the bytes a fresh
  session does.

Each generated property has a ``slow``-marked twin drawing ten times the
examples.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.base as engine_base
import repro.service.cache as cache_module
from repro import Problem, StencilSession, make_grid
from repro.core.codegen import BACKEND_ENV_VAR
from repro.engine.base import (original_points, plan_memo, prepare_sweep,
                               summarize_launches)
from repro.service.cache import CompileCache
from repro.stencils.pattern import StencilPattern
from repro.tcu.spec import A100_SPEC, DataType

BOUNDARIES = ("dirichlet", "periodic", "reflect", "neumann(flux=0.5)")
BACKENDS = ("numpy", "tcu-sim")

#: Examples per generated property in tier-1; the slow twins draw ten times
#: as many.
EXAMPLES = 40


@st.composite
def problems(draw, weight_bound: float = 1.0):
    """A 1-3-D star or box problem on a ragged grid, any boundary, either
    backend; weights in ``[-weight_bound, weight_bound]``."""
    ndim = draw(st.integers(min_value=1, max_value=3))
    box = draw(st.booleans())
    radius = 1 if box or ndim == 3 else draw(st.integers(1, 2))
    factory = StencilPattern.box if box else StencilPattern.star
    points = factory(ndim, radius).points
    weights = draw(st.lists(
        st.floats(-weight_bound, weight_bound, allow_nan=False,
                  allow_subnormal=False),
        min_size=points, max_size=points))
    pattern = factory(ndim, radius, weights=weights,
                      name=draw(st.sampled_from(["p", "q"])))
    low = 3 * radius + 2
    high = {1: 40, 2: 16, 3: 9}[ndim]
    shape = tuple(draw(st.integers(low, max(low, high)))
                  for _ in range(ndim))
    boundary = draw(st.sampled_from(BOUNDARIES))
    backend = draw(st.sampled_from(BACKENDS))
    seed = draw(st.integers(0, 3))
    return pattern, shape, boundary, backend, seed


def build(pattern, shape, boundary, backend, seed, *, tag=None, **options):
    """A freshly built problem: new grid, new options dict, as a caller
    building one per request would."""
    grid = make_grid(shape, kind="random", seed=seed, boundary=boundary)
    if backend is not None:
        options.setdefault("backend", backend)
    return Problem(pattern, grid, 2, options=options, tag=tag)


def fresh_copy(pattern):
    """An equal pattern built from scratch (a new object, equal by value)."""
    return StencilPattern(name=pattern.name, ndim=pattern.ndim,
                          offsets=pattern.offsets,
                          weights=tuple(float(repr(w))
                                        for w in pattern.weights),
                          kind=pattern.kind)


def with_weight(pattern, index, weight):
    weights = list(pattern.weights)
    weights[index] = weight
    return dataclasses.replace(pattern, weights=tuple(weights))


def assert_misses(cache, base, variant):
    """``variant`` fingerprints differently from ``base``, and the memo
    hands back its own fresh request, not ``base``'s."""
    request = cache.request_for(variant)
    assert request.fingerprint == variant.compile_request().fingerprint
    assert request.fingerprint != cache.request_for(base).fingerprint


def check_memo_against_fresh(drawn, index, monkeypatch):
    pattern, shape, boundary, backend, seed = drawn
    cache = CompileCache()
    base = build(pattern, shape, boundary, backend, seed)
    request = cache.request_for(base)
    assert request.fingerprint == base.compile_request().fingerprint
    # a fresh, equal problem (new pattern, grid and options) hits
    again = build(fresh_copy(pattern), shape, boundary, backend, seed + 1)
    assert cache.request_for(again) is request

    index %= pattern.points
    weight = pattern.weights[index]
    zero = build(with_weight(pattern, index, 0.0), shape, boundary,
                 backend, seed)
    negative_zero = build(with_weight(pattern, index, -0.0), shape,
                          boundary, backend, seed)
    assert_misses(cache, zero, negative_zero)
    assert_misses(cache, negative_zero, zero)
    ulp = build(with_weight(pattern, index, math.nextafter(weight, math.inf)),
                shape, boundary, backend, seed)
    assert_misses(cache, base, ulp)

    taller = (shape[0] + 1,) + shape[1:]
    assert_misses(cache, base, build(pattern, taller, boundary, backend,
                                     seed))
    for other in BOUNDARIES:
        if other != boundary:
            assert_misses(cache, base, build(pattern, shape, other, backend,
                                             seed))
    if boundary.startswith("neumann"):
        assert_misses(cache, base, build(pattern, shape,
                                         "neumann(flux=0.25)", backend, seed))
    # each option against the default spelled out, so the value is keyed
    other_spec = dataclasses.replace(A100_SPEC, sm_count=100)
    for name, default, changed in (("dtype", DataType.FP16, DataType.TF32),
                                   ("spec", A100_SPEC, other_spec),
                                   ("temporal_fusion", 1, 2)):
        spelled = build(pattern, shape, boundary, backend, seed,
                        **{name: default})
        assert cache.request_for(spelled).fingerprint == request.fingerprint
        assert_misses(cache, spelled, build(pattern, shape, boundary,
                                            backend, seed, **{name: changed}))
    other_backend = BACKENDS[1 - BACKENDS.index(backend)]
    assert_misses(cache, base, build(pattern, shape, boundary,
                                     other_backend, seed))

    # no backend option: the environment default is part of the key
    unpinned = build(pattern, shape, boundary, None, seed)
    with monkeypatch.context() as patch:
        patch.setenv(BACKEND_ENV_VAR, backend)
        pinned_default = cache.request_for(unpinned)
        assert pinned_default.fingerprint == request.fingerprint
        patch.setenv(BACKEND_ENV_VAR, other_backend)
        flipped = cache.request_for(unpinned)
        assert flipped.fingerprint == unpinned.compile_request().fingerprint
        assert flipped.fingerprint != request.fingerprint

    # the name is no fingerprint input, but a renamed request keeps its name
    renamed = build(dataclasses.replace(pattern, name="renamed"), shape,
                    boundary, backend, seed)
    renamed_request = cache.request_for(renamed)
    assert renamed_request.fingerprint == request.fingerprint
    assert renamed_request.options.pattern.name == "renamed"
    assert request.options.pattern.name == pattern.name


class TestRequestMemo:
    @given(drawn=problems(), index=st.integers(0, 26))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_memo_matches_fresh_and_misses_every_variant(self, drawn, index):
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_memo_against_fresh(drawn, index, monkeypatch)

    @pytest.mark.slow
    @given(drawn=problems(), index=st.integers(0, 26))
    @settings(max_examples=10 * EXAMPLES, deadline=None)
    def test_memo_matches_fresh_and_misses_every_variant_deep(self, drawn,
                                                              index):
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_memo_against_fresh(drawn, index, monkeypatch)

    def test_unhashable_option_skips_the_memo(self, heat2d):
        cache = CompileCache()
        problem = Problem(heat2d, make_grid((20, 20), seed=1), 2,
                          options={"block_hint": [4, 4]})
        request = cache.request_for(problem)
        assert request.fingerprint == problem.compile_request().fingerprint
        assert len(cache._requests) == 0

    def test_program_problem_has_no_request(self, heat2d):
        from repro import StencilProgram
        from repro.util.validation import ValidationError

        program = StencilProgram.chain("c", [("a", heat2d), ("b", heat2d)])
        problem = Problem(program=program, grid=make_grid((20, 20), seed=1),
                          iterations=1)
        with pytest.raises(ValidationError, match="no single compile"):
            CompileCache().request_for(problem)


# ------------------------------------------------------------------------ #
# solves through the memos
# ------------------------------------------------------------------------ #
def solved_facts(solution):
    """Everything a solve reports but its host-side timings and trace."""
    result = dataclasses.replace(solution.result, overhead_seconds={})
    return (solution.output.tobytes(), solution.fingerprint,
            solution.provenance, result.__repr__(),
            solution.compiled.original_pattern.name,
            prepare_sweep(solution.compiled).launch_name)


def check_warm_solves_match_a_fresh_session(drawn):
    pattern, shape, boundary, backend, seed = drawn
    renamed = dataclasses.replace(pattern, name="renamed")
    with StencilSession(devices=2) as warm:
        first = warm.solve(build(pattern, shape, boundary, backend, seed))
        warm.solve(build(fresh_copy(pattern), shape, boundary, backend,
                         seed))
        warm_renamed = warm.solve(build(renamed, shape, boundary, backend,
                                        seed, tag="r"))
        # a problem whose options change after a solve solves afresh
        mutated = build(pattern, shape, boundary, backend, seed)
        warm.solve(mutated)
        mutated.options["backend"] = BACKENDS[1 - BACKENDS.index(backend)]
        warm_mutated = warm.solve(mutated)
    with StencilSession(devices=2) as fresh:
        cold_renamed = fresh.solve(build(renamed, shape, boundary, backend,
                                         seed, tag="r"))
    with StencilSession(devices=2) as fresh:
        cold_mutated = fresh.solve(mutated)
    assert solved_facts(warm_renamed) == solved_facts(cold_renamed)
    assert warm_renamed.compiled.original_pattern.name == "renamed"
    assert prepare_sweep(warm_renamed.compiled).launch_name \
        != prepare_sweep(first.compiled).launch_name
    assert warm_renamed.result.tag == "r"
    assert solved_facts(warm_mutated) == solved_facts(cold_mutated)
    assert warm_mutated.provenance.backend == mutated.options["backend"]


class TestWarmSolves:
    @given(drawn=problems(weight_bound=0.2))
    @settings(max_examples=EXAMPLES // 4, deadline=None)
    def test_warm_solves_match_a_fresh_session(self, drawn):
        check_warm_solves_match_a_fresh_session(drawn)

    @pytest.mark.slow
    @given(drawn=problems(weight_bound=0.2))
    @settings(max_examples=10 * EXAMPLES // 4, deadline=None)
    def test_warm_solves_match_a_fresh_session_deep(self, drawn):
        check_warm_solves_match_a_fresh_session(drawn)

    def test_threads_on_one_session_match_a_fresh_session(self, heat2d,
                                                          box2d9p, heat3d):
        cases = [(heat2d, (24, 20), "periodic", "numpy"),
                 (heat2d, (24, 20), "dirichlet", "tcu-sim"),
                 (box2d9p, (18, 22), "neumann(flux=0.5)", "numpy"),
                 (heat3d, (9, 10, 11), "reflect", "tcu-sim")]

        def problem(case, seed):
            pattern, shape, boundary, backend = case
            return build(fresh_copy(pattern), shape, boundary, backend, seed,
                         tag=f"{pattern.name}-{seed}")

        with StencilSession(devices=2) as fresh:
            expected = {(i, seed): fresh.solve(problem(case, seed))
                        .output.tobytes()
                        for i, case in enumerate(cases) for seed in range(2)}
        with StencilSession(devices=2) as session:
            for i, case in enumerate(cases):
                session.solve(problem(case, 0))     # warm every plan

            def worker(offset):
                got = {}
                for round_ in range(6):
                    for i, case in enumerate(cases):
                        seed = (offset + round_ + i) % 2
                        got[i, seed, round_] = session.solve(
                            problem(case, seed)).output.tobytes()
                return got

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)     # switch threads mid-solve often
            try:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    results = list(pool.map(worker, range(4), timeout=120))
            finally:
                sys.setswitchinterval(interval)
        assert len(results) == 4
        for got in results:
            for (i, seed, _), output in got.items():
                assert output == expected[i, seed]


# ------------------------------------------------------------------------ #
# bounds
# ------------------------------------------------------------------------ #
class TestBounds:
    def test_request_memo_is_bounded_and_cleared(self, heat2d, monkeypatch):
        monkeypatch.setattr(cache_module, "REQUEST_MEMO_LIMIT", 3)
        cache = CompileCache()
        for extent in range(10, 18):
            cache.request_for(Problem(heat2d, make_grid((extent, 12), seed=1),
                                      1, options={"backend": "numpy"}))
            assert 1 <= len(cache._requests) <= 3
        cache.clear()
        assert len(cache._requests) == 0

    def test_plan_memo_is_bounded(self, heat2d, monkeypatch):
        monkeypatch.setattr(engine_base, "PLAN_MEMO_LIMIT", 4)
        with StencilSession() as session:
            compiled = session.compile(Problem(heat2d,
                                               make_grid((20, 20), seed=1),
                                               1))
        for key in range(12):
            assert plan_memo(compiled, ("probe", key), lambda: key) == key
            assert 1 <= len(vars(compiled)["_memo"]) <= 4

    def test_run_totals_are_summed_once_left_to_right(self, heat2d):
        with StencilSession() as session:
            compiled = session.compile(Problem(heat2d,
                                               make_grid((20, 20), seed=1),
                                               1))
        launch = prepare_sweep(compiled).priced_launch
        # an elapsed time whose repeated sum drifts from its multiple
        x = next(v for v in np.random.default_rng(0).random(1000)
                 if v + v + v + v + v + v + v != 7 * v)
        launch = dataclasses.replace(launch, elapsed_seconds=float(x))
        totals = summarize_launches([launch] * 7)
        assert summarize_launches([launch] * 7) is totals
        assert totals.elapsed_seconds == x + x + x + x + x + x + x
        mixed = [launch] * 6 + [dataclasses.replace(launch)]
        assert summarize_launches(mixed) is not totals
        assert summarize_launches(mixed) == totals
        points = original_points(compiled, 3, 1)
        assert original_points(compiled, 3, 1) is points
        assert original_points(compiled, 3, 0) == 3 * 18 * 18

    def test_sweep_context_is_bound_once_per_plan_and_device(self, heat2d):
        with StencilSession() as session:
            problem = Problem(heat2d, make_grid((20, 20), seed=1), 2)
            compiled = session.solve(problem).compiled
            again = session.solve(problem).compiled
        assert again is compiled
        context = prepare_sweep(compiled)
        assert prepare_sweep(compiled) is context
        other = dataclasses.replace(A100_SPEC, sm_count=100)
        assert prepare_sweep(compiled, other) is not context
        assert prepare_sweep(compiled, other).spec is other
        # a plan pickles and copies without its process-local memo
        import copy
        import pickle
        restored = pickle.loads(pickle.dumps(compiled))
        assert len(vars(restored)["_memo"]) == 0
        assert len(vars(copy.deepcopy(compiled))["_memo"]) == 0
        data = np.random.default_rng(0).random((20, 20))
        here, there = data.copy(), data.copy()
        context.sweep(here)
        prepare_sweep(restored).sweep(there)
        assert here.tobytes() == there.tobytes()
