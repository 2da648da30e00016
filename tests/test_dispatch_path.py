"""One dispatch path: every session-level solve reaches an engine through the
session's :class:`~repro.session.registry.ExecutorRegistry`.

* direct ``solve(mode="single")``, every ``solve_batch`` item and every
  served single-device request run the registry's ``single`` executor;
* a warm served solve looks its plan up once, as a direct solve does;
* a straggler (an iteration count the fused plan does not divide) in a
  micro-batch routed sharded runs single-device, bit-identical to a direct
  single solve, while its leader runs sharded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Problem,
    ServerConfig,
    StencilServer,
    StencilSession,
    make_grid,
)
from repro.session.registry import SingleDeviceSessionExecutor, default_registry


def counting_registry(calls):
    """A default registry whose ``single`` executor records each problem's
    tag before solving it."""

    class CountingSingle(SingleDeviceSessionExecutor):
        def solve(self, session, problem, policy, **kwargs):
            calls.append(problem.tag)
            return super().solve(session, problem, policy, **kwargs)

    registry = default_registry()
    registry.register("single", CountingSingle, replace=True)
    return registry


class TestOneRegistryPath:
    def test_single_batch_and_served_go_through_the_registry(self, heat2d):
        calls = []
        with StencilSession(devices=2,
                            registry=counting_registry(calls)) as session:
            def problem(seed, tag):
                return Problem(heat2d, make_grid((48, 48), seed=seed), 2,
                               tag=tag)

            direct = session.solve(problem(0, "direct"), mode="single")
            auto = session.solve(problem(1, "auto"), mode="auto")
            report = session.solve_batch(
                [problem(2 + i, f"batch{i}") for i in range(3)])
            served = session.solve(problem(0, "served"), mode="served")

        assert calls == ["direct", "auto", "batch0", "batch1", "batch2",
                         "served"]
        assert auto.provenance.executor == "single"
        assert [item.tag for item in report.items] \
            == ["batch0", "batch1", "batch2"]
        assert served.provenance.delegate == "single"
        assert np.array_equal(served.output, direct.output)


class TestWarmServedLookups:
    @staticmethod
    def count_lookups(monkeypatch, cache):
        counts = {"get_or_compile": 0, "contains": 0}
        for name in counts:
            method = getattr(cache, name)

            def counted(*args, _name=name, _method=method, **kwargs):
                counts[_name] += 1
                return _method(*args, **kwargs)

            monkeypatch.setattr(cache, name, counted)
        return counts

    @pytest.mark.parametrize("mode", ["served", "single"])
    def test_warm_solve_looks_its_plan_up_once(self, monkeypatch, heat2d,
                                               mode):
        with StencilSession(devices=1) as session:
            session.solve(Problem(heat2d, make_grid((48, 48), seed=0), 2),
                          mode=mode)
            counts = self.count_lookups(monkeypatch, session.cache)
            session.solve(Problem(heat2d, make_grid((48, 48), seed=1), 2),
                          mode=mode)
        assert counts == {"get_or_compile": 1, "contains": 0}


class TestStraggler:
    def test_straggler_in_a_sharded_batch_runs_single(self, heat2d):
        options = {"backend": "numpy", "temporal_fusion": 2}
        grids = [make_grid((2048, 2048), seed=seed) for seed in (1, 2)]
        with StencilServer(devices=4, config=ServerConfig(
                window_seconds=0.5)) as server:
            leader = server.submit_problem(Problem(
                heat2d, grids[0], 4, options=options, tag="leader"))
            follower = server.submit_problem(Problem(
                heat2d, grids[1], 3, options=options, tag="follower"))
            leader, follower = leader.result(300), follower.result(300)
        # closing the server waits for the batch to release its lease
        ledger = server.scheduler.ledger.snapshot()["per_device"]

        assert leader.batch_size == follower.batch_size == 2
        assert (leader.executor, leader.devices) == ("sharded", 4)
        assert (follower.executor, follower.devices) == ("single", 1)
        assert follower.run.tag == "follower"
        direct = StencilSession()
        for served, grid, iterations in ((leader, grids[0], 4),
                                         (follower, grids[1], 3)):
            expected = direct.solve(
                Problem(heat2d, grid, iterations, options=options),
                mode="single")
            assert served.output.tobytes() == expected.output.tobytes()

        # the ledger records device work: every shard's seconds plus the
        # straggler's, split evenly over the lease
        work = sum(leader.run.shard_elapsed_seconds) \
            + follower.run.elapsed_seconds
        assert len(ledger) == 4
        assert sum(device["modelled_seconds"] for device in ledger) \
            == pytest.approx(work, rel=1e-12)
