"""Tests of the benchmark's own helpers: self time, percentiles, streams,
the exact-repeat check."""

from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import harness
from perfbench import workloads as wl
from perfbench.layers import Instrumentation, SpanRecord, breakdown
from perfbench.stats import (
    min_samples_for,
    overlap_time,
    percentile,
    percentile_rank,
    samples_beyond,
    self_time,
    union_length,
)


class TestSelfTime:
    def test_overlapping_children_count_once(self):
        children = [(1.0, 4.0), (3.0, 6.0)]
        assert union_length(children) == pytest.approx(5.0)
        assert self_time(0.0, 10.0, children) == pytest.approx(5.0)
        assert overlap_time(0.0, 10.0, children) == pytest.approx(1.0)

    def test_children_are_clipped_to_the_span(self):
        children = [(-2.0, 1.0), (8.0, 12.0)]
        assert self_time(0.0, 10.0, children) == pytest.approx(7.0)

    def test_nested_and_identical_children(self):
        children = [(2.0, 8.0), (3.0, 4.0), (2.0, 8.0)]
        assert self_time(0.0, 10.0, children) == pytest.approx(4.0)

    def test_no_children_is_the_whole_span(self):
        assert self_time(1.0, 3.5, []) == pytest.approx(2.5)

    def test_breakdown_accounts_for_the_root(self):
        spans = [
            SpanRecord("r", None, "session.solve", 0.0, 10.0),
            # transparent program span: its attributed child joins the root
            SpanRecord("t", "r", "solve", 0.5, 9.5),
            SpanRecord("a", "t", "engine.execute", 1.0, 9.0),
            SpanRecord("s1", "a", "engine.sweep", 2.0, 6.0),
            SpanRecord("s2", "a", "engine.sweep", 4.0, 8.0),
            SpanRecord("x", "other", "engine.sweep", 0.0, 10.0),
        ]
        item = breakdown(spans, "r")
        assert item.self_seconds["session.solve"] == pytest.approx(2.0)
        assert item.self_seconds["engine.execute"] == pytest.approx(2.0)
        assert item.self_seconds["engine.sweep"] == pytest.approx(8.0)
        assert item.calls["engine.sweep"] == 2
        assert item.overlap_seconds == pytest.approx(2.0)
        assert sum(item.self_seconds.values()) - item.overlap_seconds \
            == pytest.approx(item.root_seconds)


class TestPercentiles:
    def test_rank_against_sample_count(self):
        assert percentile_rank(100, 90) == 90
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9
        assert percentile_rank(1, 50) == 1
        assert percentile_rank(10, 100) == 10

    def test_min_samples_for_ten_beyond(self):
        assert min_samples_for(90) == 100
        assert min_samples_for(50) == 20
        assert samples_beyond(min_samples_for(99), 99) >= 10

    def test_nearest_rank_picks_an_observed_sample(self):
        values = [5.0, 1.0, 3.0, 4.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 90) == 5.0

    @pytest.mark.parametrize("count,q", [(0, 50), (10, 0), (10, 101)])
    def test_rejects_bad_input(self, count, q):
        with pytest.raises(ValueError):
            percentile_rank(count, q)


class TestStreams:
    @pytest.mark.parametrize("name", list(wl.WORKLOADS))
    def test_identical_seeds_give_identical_streams(self, name):
        workload = wl.WORKLOADS[name]
        first = [(r.kind.name, r.variant,
                  r.problem.grid.data.tobytes(), r.problem.iterations)
                 for _, r in zip(range(64),
                                 wl.stream(workload, 7,
                                           wl.GridPool(workload, 7)))]
        again = [(r.kind.name, r.variant,
                  r.problem.grid.data.tobytes(), r.problem.iterations)
                 for _, r in zip(range(64),
                                 wl.stream(workload, 7,
                                           wl.GridPool(workload, 7)))]
        assert first == again

    def test_other_seed_gives_other_stream(self):
        workload = wl.WORKLOADS["direct-small"]
        one = [k.name for _, (k, _v) in zip(range(64), wl.draws(workload, 1))]
        two = [k.name for _, (k, _v) in zip(range(64), wl.draws(workload, 2))]
        assert one != two

    def test_every_deck_has_the_exact_mix(self):
        workload = wl.WORKLOADS["direct-small"]
        cards = sorted(workload.kinds[i].name
                       for i in wl.deck(workload.kinds))
        assert len(cards) == 100
        kinds = [k.name for _, (k, _v) in zip(range(4 * len(cards)),
                                                wl.draws(workload, 3))]
        for start in range(0, len(kinds), len(cards)):
            assert sorted(kinds[start:start + len(cards)]) == cards

    def test_mix_follows_the_weights(self):
        workload = wl.WORKLOADS["large-tcu"]
        counts = wl.kind_counts(workload, 5, 4000)
        assert counts["box3d27p-64-tcu"] == 1000


def test_instrumentation_records_layers_and_restores_the_program():
    from repro import Problem, StencilSession, Tracer
    from repro.stencils import domains

    original = Problem.__dict__["compile_request"]
    tracer = Tracer(enabled=True)
    inst = Instrumentation(tracer)
    session = StencilSession(devices=2, tracer=tracer)
    grid = wl.Kind("k", 1.0, "heat-2d", (32, 32), 2, "numpy").grid(1, 0)
    problem = Problem(domains.heat_2d(), grid, 2,
                      options={"backend": "numpy"})
    inst.install()
    try:
        with tracer.span("session.solve") as root:
            inst.fallback = root
            solution = session.solve(problem, mode="auto")
    finally:
        inst.fallback = None
        inst.uninstall()
    assert Problem.__dict__["compile_request"] is original
    item = breakdown([SpanRecord.of(s) for s in tracer.spans()],
                     root.span_id)
    for name in ("session.fingerprint", "session.route",
                 "service.cache_lookup", "core.compile", "engine.execute",
                 "engine.sweep", "stencils.boundary_fill"):
        assert item.calls.get(name, 0) >= 1, name
    assert len(inst.compiles) == 1
    assert sum(item.self_seconds.values()) - item.overlap_seconds \
        == pytest.approx(item.root_seconds)
    assert np.all(np.isfinite(solution.output))


class TestExactRepeat:
    class _Verifier:
        def check(self, kind, variant, output):
            return True, ""

    @staticmethod
    def _run(device_seconds):
        return SimpleNamespace(output=None, points_updated=100,
                               elapsed_seconds=device_seconds, iterations=2,
                               sweeps=2)

    def _check(self, device_seconds):
        kind = wl.WORKLOADS["large-tcu"].kinds[0]
        facts = {kind.name: harness.PlanFacts(
            "fp", 1.0, 1.0, harness.RunFacts.of(self._run(1e-6)))}
        state = harness.RunState()
        ok = harness._check(state, wl.Request(kind, 0, None),
                            self._run(device_seconds), facts, self._Verifier())
        return ok, state.errors

    def test_a_request_repeating_its_plan_facts_passes(self):
        assert self._check(1e-6) == (True, {})

    def test_drifting_device_seconds_fail_the_request(self):
        ok, errors = self._check(1e-6 * (1 + 1e-12))
        assert not ok
        assert errors == {harness.FACTS_MISMATCH: 1}
