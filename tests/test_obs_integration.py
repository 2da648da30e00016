"""End-to-end trace correctness across the serving stack.

The acceptance scenario of the observability subsystem: one served, sharded
request under an enabled tracer must yield a single well-formed trace with
queue-wait, coalesce, route, compile/cache, per-round sweep and
halo-exchange spans; ``Solution.provenance.trace_id`` must resolve to it;
and the Chrome export must round-trip ``json.loads`` with valid events.
"""

import json

import pytest

from repro import (
    Problem,
    SessionConfig,
    SolvePolicy,
    StencilPattern,
    StencilSession,
    Tracer,
    make_grid,
)
from repro.analysis import build_span_tree, render_span_tree, validate_spans


@pytest.fixture
def tracer():
    return Tracer()


@pytest.fixture
def traced_session(tracer):
    return StencilSession(SessionConfig(devices=4, tracer=tracer,
                                        min_speedup=1.01))


def heat2d_pattern():
    return StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1],
                               name="heat-2d")


class TestServedShardedTrace:
    @pytest.fixture
    def solution(self, traced_session):
        problem = Problem(heat2d_pattern(), make_grid((1024, 1024),
                                                      kind="random", seed=3),
                          iterations=8, tag="traced")
        return traced_session.solve(problem, SolvePolicy(mode="served"))

    def test_provenance_trace_id_resolves(self, solution, tracer):
        trace_id = solution.provenance.trace_id
        assert trace_id != ""
        spans = tracer.spans(trace_id)
        assert spans, "provenance.trace_id must resolve to recorded spans"
        assert {s.trace_id for s in spans} == {trace_id}

    def test_single_trace_contains_all_phases(self, solution, tracer):
        spans = tracer.spans(solution.provenance.trace_id)
        names = {s.name for s in spans}
        required = {"solve", "request", "queue_wait", "coalesce", "route",
                    "cache.lookup", "sweep"}
        assert required <= names, f"missing {required - names}"
        if solution.provenance.delegate == "sharded":
            assert "round" in names
            assert "halo_exchange" in names

    def test_trace_is_well_formed(self, solution, tracer):
        spans = tracer.spans(solution.provenance.trace_id)
        assert validate_spans(spans) == []
        roots = build_span_tree(spans)
        assert len(roots) == 1 and roots[0].name == "solve"
        # every span is reachable from the root
        assert sum(1 for _ in roots[0].walk()) == len(spans)

    def test_route_span_records_decision(self, solution, tracer):
        spans = tracer.spans(solution.provenance.trace_id)
        route = next(s for s in spans if s.name == "route")
        assert route.attrs["executor"] in ("single", "sharded")
        assert route.attrs["devices"] >= 1
        assert route.attrs["halo_depth"] >= 1
        assert "reason" in route.attrs
        assert route.attrs["memo"] == "miss"    # a fresh session's first

    def test_warm_route_span_is_a_memo_hit(self, solution, traced_session,
                                           tracer):
        again = traced_session.solve(
            Problem(heat2d_pattern(), make_grid((1024, 1024), kind="random",
                                                seed=4),
                    iterations=8, tag="warm"),
            SolvePolicy(mode="served"))
        route = next(s for s in tracer.spans(again.provenance.trace_id)
                     if s.name == "route")
        assert route.attrs["memo"] == "hit"
        assert route.attrs["executor"] == solution.provenance.delegate

    def test_sharded_rounds_nest_halo_and_sweeps(self, solution, tracer):
        if solution.provenance.delegate != "sharded":
            pytest.skip("router chose single-device for this host's model")
        spans = tracer.spans(solution.provenance.trace_id)
        by_id = {s.span_id: s for s in spans}
        rounds = [s for s in spans if s.name == "round"]
        assert rounds
        for name in ("halo_exchange", "sweep"):
            nested = [s for s in spans if s.name == name
                      and s.parent_id in by_id
                      and by_id[s.parent_id].name == "round"]
            assert nested, f"{name} spans must nest under rounds"
        # modelled device time is billed on the sweeps
        assert any(s.device_seconds > 0 for s in spans if s.name == "sweep")

    def test_render_span_tree_is_printable(self, solution, tracer):
        text = render_span_tree(tracer.spans(solution.provenance.trace_id))
        assert "solve" in text and "request" in text

    def test_chrome_export_round_trips(self, solution, tracer, tmp_path):
        path = tmp_path / "trace.json"
        tracer.export_chrome(path, solution.provenance.trace_id)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("X", "M")
            if event["ph"] == "X":
                assert isinstance(event["ts"], (int, float))
                assert event["dur"] >= 0
                assert event["name"]
        spans = tracer.spans(solution.provenance.trace_id)
        assert len([e for e in events if e["ph"] == "X"]) == len(spans)

    def test_server_result_trace_id_matches(self, tracer, traced_session):
        problem = Problem(heat2d_pattern(),
                          make_grid((64, 64), kind="random", seed=1),
                          iterations=2, tag="direct")
        server = traced_session.server()
        handle = server.submit_problem(problem)
        result = handle.result()
        assert result.trace_id != ""
        spans = tracer.spans(result.trace_id)
        assert {"request", "queue_wait"} <= {s.name for s in spans}


class TestDisabledTracingPath:
    def test_untraced_session_leaves_no_trace(self):
        session = StencilSession(SessionConfig(devices=2))
        problem = Problem(heat2d_pattern(),
                          make_grid((64, 64), kind="random", seed=2),
                          iterations=2)
        solution = session.solve(problem, SolvePolicy(mode="served"))
        assert solution.provenance.trace_id == ""
        assert session.tracer.spans() == []

    def test_direct_solve_traces_too(self, tracer):
        session = StencilSession(SessionConfig(devices=1, tracer=tracer))
        problem = Problem(heat2d_pattern(),
                          make_grid((64, 64), kind="random", seed=4),
                          iterations=3)
        solution = session.solve(problem, SolvePolicy(mode="single"))
        spans = tracer.spans(solution.provenance.trace_id)
        names = {s.name for s in spans}
        assert "solve" in names and "sweep" in names
        assert validate_spans(spans) == []

    def test_solve_batch_shares_one_trace(self, tracer):
        session = StencilSession(SessionConfig(devices=1, tracer=tracer))
        problems = [Problem(heat2d_pattern(),
                            make_grid((64, 64), kind="random", seed=s),
                            iterations=2, tag=f"req{s}")
                    for s in range(3)]
        report = session.solve_batch(problems)
        assert len(report.items) == 3
        trace_ids = tracer.trace_ids()
        assert len(trace_ids) == 1
        names = {s.name for s in tracer.spans(trace_ids[0])}
        assert {"solve_batch", "batch.compile", "execute"} <= names
